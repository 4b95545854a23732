//! Shared-manager snapshot layer: scheduling invariance.
//!
//! Sweep workers thaw delta managers over one frozen good-function
//! snapshot, and that must be a pure execution strategy: the golden TSV
//! (`tests/golden/universe_summaries.tsv`, f64s as bit patterns) has to
//! come out byte-identical at any thread count, under any variable-order
//! strategy. A white-box layer then pins
//! the freeze contract itself: the frozen base is immutable — its node
//! count and table digest are unchanged after engines have analysed whole
//! universes on top of it.

mod common;

use common::{assert_matches_golden, current_golden_lines, stuck_at_universe};
use diffprop::bdd::Manager;
use diffprop::core::{DiffProp, EngineConfig, OrderStrategy, Parallelism, SweepConfig};
use diffprop::netlist::generators::{alu74181, c1908_surrogate, c499_surrogate, c95};

fn config(parallelism: Parallelism, order: OrderStrategy) -> SweepConfig {
    SweepConfig {
        engine: EngineConfig {
            order,
            ..Default::default()
        },
        parallelism,
        ..Default::default()
    }
}

/// The full cross product {serial, 2T, 4T} × {identity, fanin-dfs, auto}
/// reproduces the committed golden file byte for byte.
#[test]
fn golden_summaries_are_invariant_under_threads_and_order() {
    for order in [
        OrderStrategy::Identity,
        OrderStrategy::FaninDfs,
        OrderStrategy::Auto,
    ] {
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
        ] {
            assert_matches_golden(&current_golden_lines(&config(parallelism, order)));
        }
    }
}

/// White-box freeze contract: workers hammering delta managers on top of
/// one snapshot never change the frozen base — same node count, same
/// FNV digest over the node array, before and after.
#[test]
fn frozen_base_is_immutable_while_workers_analyze() {
    let circuit = c95();
    let snapshot = DiffProp::build_snapshot(&circuit, EngineConfig::default()).unwrap();
    let nodes_before = snapshot.num_nodes();
    let digest_before = snapshot.table_digest();
    let faults = stuck_at_universe(&circuit);

    std::thread::scope(|scope| {
        for w in 0..4 {
            let snapshot = &snapshot;
            let faults = &faults;
            let circuit = &circuit;
            scope.spawn(move || {
                let mut dp = DiffProp::from_snapshot(circuit, snapshot, EngineConfig::default());
                // Strided, overlapping shares so every worker allocates delta
                // nodes and garbage-collects over the same base concurrently.
                for fault in faults.iter().skip(w).step_by(2) {
                    let analysis = dp.analyze(fault);
                    assert!(analysis.test_count.is_some(), "exact analysis expected");
                }
                let stats = dp.good().manager().stats();
                assert!(stats.base_hits > 0, "worker never resolved from the base");
                assert_eq!(stats.unique.lookups, stats.base_hits + stats.delta_lookups);
            });
        }
    });

    assert_eq!(snapshot.num_nodes(), nodes_before, "frozen base grew");
    assert_eq!(
        snapshot.table_digest(),
        digest_before,
        "frozen base nodes were rewritten"
    );
}

/// The pre-freeze sift, pinned by what it freezes: `OrderStrategy::Auto`
/// snapshots of the surrogates over the sift floor keep these table
/// digests. Every node's variable and edges enter the digest, so a changed
/// sift decision (visiting order, walk, tie-break) or a changed node
/// placement shows here. (c1355s is pinned by the repo benchmark.)
#[test]
fn sifted_auto_snapshots_keep_their_table_digests() {
    let config = EngineConfig {
        order: OrderStrategy::Auto,
        ..Default::default()
    };
    for (circuit, digest) in [
        (c1908_surrogate(), 0xcfca_1c67_8f59_2213_u64),
        (c499_surrogate(), 0x9dd9_1eb8_cf70_a046),
    ] {
        let snapshot = DiffProp::build_snapshot(&circuit, config).unwrap();
        assert!(snapshot.build_sift().is_some(), "{} did not sift", circuit.name());
        assert_eq!(
            snapshot.table_digest(),
            digest,
            "{}: {:016x}",
            circuit.name(),
            snapshot.table_digest()
        );
    }
}

/// One engine lifecycle: a standalone `Auto` engine thaws the same sifted
/// snapshot a sweep does, so its manager carries the pre-freeze sift's
/// order, not the unsifted fanin-DFS one.
#[test]
fn standalone_auto_engines_carry_the_sifted_snapshot_order() {
    let circuit = c1908_surrogate();
    let config = EngineConfig {
        order: OrderStrategy::Auto,
        ..Default::default()
    };
    let snapshot = DiffProp::build_snapshot(&circuit, config).unwrap();
    let sifted = snapshot.frozen().order();
    assert_ne!(
        sifted,
        OrderStrategy::FaninDfs.resolve(&circuit).as_slice(),
        "the c1908s sift moves the order"
    );
    let dp = DiffProp::with_config(&circuit, config);
    assert_eq!(dp.good().manager().order(), sifted);
}

/// The kernel alone sizes the operation cache: a thawed engine starts at
/// the kernel default, and its first analysis grows the cache to cover the
/// node arena, frozen base included.
#[test]
fn thawed_engines_start_at_the_kernel_op_cache_and_grow_with_the_arena() {
    let kernel_default = Manager::new(1).op_cache_capacity();
    let alu = alu74181();
    let snapshot = DiffProp::build_snapshot(&alu, EngineConfig::default()).unwrap();
    let dp = DiffProp::from_snapshot(&alu, &snapshot, EngineConfig::default());
    assert_eq!(dp.good().manager().op_cache_capacity(), kernel_default);

    let c499 = c499_surrogate();
    let snapshot = DiffProp::build_snapshot(&c499, EngineConfig::default()).unwrap();
    let mut dp = DiffProp::from_snapshot(&c499, &snapshot, EngineConfig::default());
    let fault = &stuck_at_universe(&c499)[0];
    assert!(dp.analyze(fault).is_detectable());
    assert!(
        dp.good().manager().op_cache_capacity() >= snapshot.num_nodes().next_power_of_two(),
        "op cache {} slots under a {}-node base",
        dp.good().manager().op_cache_capacity(),
        snapshot.num_nodes()
    );
}

//! Dynamic variable reordering: Rudell's sifting over reference-counted,
//! level-local adjacent swaps.
//!
//! Variable order dominates OBDD size. [`Manager::sift`] moves each variable
//! in turn through every level and parks it where the live size over the
//! roots is smallest — the classical greedy minimisation. Every step of
//! that walk exchanges two neighbouring levels, so the cost of a sift is
//! the cost of its swaps.
//!
//! A sift collects garbage first, so every stored node is live, and then
//! runs on its own state ([`SiftState`]):
//!
//! * a reference count per arena slot (parent edges plus root handles),
//! * a node list per variable, and
//! * a hash subtable per variable with its `(lo, hi)` keys stored inline
//!   ([`LevelTable`]), so a probe never reads the arena.
//!
//! A swap of `u` (level `l`) with `v` (level `l + 1`) visits only the live
//! `u`- and `v`-nodes. Each `u`-node that depends on `v` is rewritten in
//! place into a `v`-node over two hash-consed `u`-cofactor nodes; its slot
//! keeps its id and its function. Every node whose count drops to zero is
//! freed at once, recursively, and its slot is reused. So no dead structure
//! survives a swap, and the live size is a running count instead of a
//! traversal. The kernel's arena-keyed unique table sits idle during the
//! walk. The closing gc rebuilds it once and places the survivors in
//! post-order from the roots, so the table a sift leaves behind depends
//! only on the root functions and the final order.
//!
//! The public [`Manager::swap_adjacent_levels`] and
//! [`Manager::move_var_to_level`] run the same swap with every stored node
//! counted as referenced. Nothing dies, every [`NodeId`] keeps denoting the
//! same function, and the unique table is re-keyed before they return.

use crate::manager::{Manager, Node, NodeId, Var};
use crate::table::LevelTable;

/// The `var` of a freed arena slot during a sift (no real variable index
/// reaches it; the terminal's slot is never freed).
const DEAD: Var = u32::MAX;

/// One variable's live nodes during a sift.
struct VarNodes {
    /// Arena slots carrying the variable, in no particular order.
    slots: Vec<u32>,
    /// The same nodes keyed by `(lo, hi)`.
    table: LevelTable,
}

/// The bookkeeping a sift keeps beside the node arena.
struct SiftState {
    /// Reference count per arena slot: parent edges from stored nodes plus
    /// root handles.
    refs: Vec<u32>,
    /// Position of each live slot in its variable's `slots`.
    pos: Vec<u32>,
    /// Per variable (indexed by `Var`, not by level).
    vars: Vec<VarNodes>,
    /// Freed slots, reused before the arena grows.
    free: Vec<u32>,
    /// Slots whose count reached zero during the current swap.
    dying: Vec<u32>,
    /// Scratch list of the `u`-nodes a swap rewrites.
    moving: Vec<u32>,
    /// Live internal nodes: the running live size.
    live: usize,
}

impl SiftState {
    /// Counts references over the whole arena, plus one per root and, with
    /// `pin_all`, one per stored node (so none can die).
    fn new(m: &Manager, roots: &[NodeId], pin_all: bool) -> SiftState {
        let len = m.nodes.len();
        let mut refs = vec![u32::from(pin_all); len];
        let mut pos = vec![0; len];
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); m.num_vars()];
        for (i, node) in m.nodes.iter().enumerate().skip(1) {
            for child in [node.lo, node.hi] {
                if !child.is_terminal() {
                    refs[child.index()] += 1;
                }
            }
            let list = &mut lists[node.var as usize];
            pos[i] = list.len() as u32;
            list.push(i as u32);
        }
        for r in roots.iter().filter(|r| !r.is_terminal()) {
            refs[r.index()] += 1;
        }
        debug_assert!(refs[1..].iter().all(|&r| r > 0), "sift state over dead nodes");
        let vars = lists
            .into_iter()
            .map(|slots| {
                let mut table = LevelTable::with_capacity(slots.len());
                for &s in &slots {
                    let node = m.nodes[s as usize];
                    table.insert(node.lo, node.hi, s as usize);
                }
                VarNodes { slots, table }
            })
            .collect();
        SiftState {
            refs,
            pos,
            vars,
            free: Vec::new(),
            dying: Vec::new(),
            moving: Vec::new(),
            live: len - 1,
        }
    }

    /// Appends slot `s` to `var`'s node list.
    fn list(&mut self, var: Var, s: u32) {
        let slots = &mut self.vars[var as usize].slots;
        self.pos[s as usize] = slots.len() as u32;
        slots.push(s);
    }

    fn retain(&mut self, e: NodeId) {
        if !e.is_terminal() {
            self.refs[e.index()] += 1;
        }
    }

    fn release(&mut self, e: NodeId) {
        if !e.is_terminal() {
            let r = &mut self.refs[e.index()];
            *r -= 1;
            if *r == 0 {
                self.dying.push(e.index() as u32);
            }
        }
    }
}

impl Manager {
    /// Swaps the variables at levels `level` and `level + 1` in place.
    ///
    /// All existing [`NodeId`]s continue to denote the same functions. The
    /// operation cache is invalidated; nodes the swap orphans stay stored
    /// until a later [`Manager::gc`].
    ///
    /// # Panics
    ///
    /// Panics if `level + 1 >= num_vars()`, or if this manager extends a
    /// frozen base (the base arena is shared and immutable, so its variable
    /// order is fixed at freeze time).
    pub fn swap_adjacent_levels(&mut self, level: u32) {
        self.assert_reorderable();
        assert!(
            level + 1 < self.num_vars() as u32,
            "cannot swap the last level down"
        );
        self.reorder_in_place(|m, st| m.swap_levels(st, level));
    }

    /// Moves variable `var` to `target_level` by a sequence of adjacent
    /// swaps, in place like [`Manager::swap_adjacent_levels`].
    ///
    /// # Panics
    ///
    /// Panics if `var` or `target_level` is out of range, or if this
    /// manager extends a frozen base.
    pub fn move_var_to_level(&mut self, var: Var, target_level: u32) {
        assert!((var as usize) < self.num_vars(), "variable out of range");
        assert!(
            (target_level as usize) < self.num_vars(),
            "level out of range"
        );
        self.assert_reorderable();
        self.reorder_in_place(|m, st| m.move_var(st, var, target_level, |_, _| {}));
    }

    /// Number of internal nodes reachable from `roots` (the live size —
    /// the quantity sifting minimises).
    pub fn live_size(&self, roots: &[NodeId]) -> usize {
        // Dedup by node index (an edge and its complement share one node)
        // via a dense seen-vector: a byte per arena slot beats hashing.
        let mut seen = vec![false; self.num_nodes()];
        let mut count = 0;
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(x) = stack.pop() {
            if x.is_terminal() || std::mem::replace(&mut seen[x.index()], true) {
                continue;
            }
            count += 1;
            let node = self.node_at(x.index());
            stack.push(node.lo);
            stack.push(node.hi);
        }
        count
    }

    /// Rudell's sifting: each variable in turn is moved through every level
    /// and parked where the live size over `roots` is smallest. Returns the
    /// final live size.
    ///
    /// Variables go in decreasing order of how many live nodes carry them
    /// (a stable sort, so ties keep variable-index order). Each walks to
    /// the nearer end first, then to the other end, and only a strictly
    /// smaller size moves its best level.
    ///
    /// The sift collects garbage before and after the walk. `roots` is
    /// rewritten in place (order preserved) to the post-sift ids, and every
    /// *other* externally held [`NodeId`] is invalidated — the caller owns
    /// the only handles that survive. The work is budget-exempt: it neither
    /// charges nor trips the budget window.
    ///
    /// # Panics
    ///
    /// Panics if this manager extends a frozen base.
    ///
    /// # Examples
    ///
    /// ```
    /// use dp_bdd::Manager;
    ///
    /// // A function with a strongly order-sensitive BDD:
    /// // (x0 ∧ x3) ∨ (x1 ∧ x4) ∨ (x2 ∧ x5) under the identity order.
    /// let mut m = Manager::with_order(&[0, 1, 2, 3, 4, 5])?;
    /// let mut f = m.constant(false);
    /// for i in 0..3 {
    ///     let a = m.var(i);
    ///     let b = m.var(i + 3);
    ///     let t = m.and(a, b);
    ///     f = m.or(f, t);
    /// }
    /// let before = m.live_size(&[f]);
    /// let mut roots = [f];
    /// let after = m.sift(&mut roots);
    /// assert!(after < before); // sifting interleaves the pairs
    /// assert_eq!(m.live_size(&roots), after);
    /// # Ok::<(), dp_bdd::BddError>(())
    /// ```
    pub fn sift(&mut self, roots: &mut [NodeId]) -> usize {
        self.sift_with(roots, |_, _, _| {})
    }

    /// [`Manager::sift`] with a hook run after every adjacent swap of the
    /// walk (the tests audit the sift state there).
    fn sift_with(
        &mut self,
        roots: &mut [NodeId],
        mut after_swap: impl FnMut(&Manager, &SiftState, &[NodeId]),
    ) -> usize {
        self.assert_reorderable();
        self.gc_roots(roots);
        let mut st = SiftState::new(self, roots, false);
        let n = self.num_vars() as u32;
        let mut occupancy: Vec<(usize, Var)> = (0..n)
            .map(|v| (st.vars[v as usize].slots.len(), v))
            .collect();
        occupancy.sort_by_key(|&(count, _)| std::cmp::Reverse(count));

        let mut best_total = st.live;
        for &(_, var) in &occupancy {
            let start = self.level_of(var);
            let mut best_level = start;
            // Walk to the nearer end first, then sweep to the other end.
            let (first_end, second_end) = if start <= n / 2 {
                (0, n - 1)
            } else {
                (n - 1, 0)
            };
            for target in [first_end, second_end] {
                self.move_var(&mut st, var, target, |m, st| {
                    after_swap(m, st, roots);
                    if st.live < best_total {
                        best_total = st.live;
                        best_level = m.level_of(var);
                    }
                });
            }
            self.move_var(&mut st, var, best_level, |m, st| after_swap(m, st, roots));
            best_total = st.live;
        }
        // Free the sift state before the collection rebuilds the kernel
        // tables, so the two never coexist at peak.
        drop(st);
        self.gc_roots(roots);
        best_total
    }

    fn assert_reorderable(&self) {
        assert!(
            !self.has_frozen_base(),
            "frozen-base managers have a fixed order; reorder before freezing"
        );
    }

    /// Collects everything unreachable from `roots`, remapping them in place.
    fn gc_roots(&mut self, roots: &mut [NodeId]) {
        let remap = self.gc(roots);
        for r in roots.iter_mut() {
            *r = remap.map(*r);
        }
    }

    /// Runs `f` over a sift state that pins every stored node, then re-keys
    /// the unique table: ids stay stable and nothing is collected.
    fn reorder_in_place(&mut self, f: impl FnOnce(&mut Manager, &mut SiftState)) {
        let mut st = SiftState::new(self, &[], true);
        f(self, &mut st);
        debug_assert!(st.free.is_empty(), "a pinned swap freed a node");
        drop(st);
        self.unique.clear();
        for i in 1..self.nodes.len() {
            let node = self.nodes[i];
            self.unique.insert(i, &node, &self.nodes, 0);
        }
        self.op_cache.clear();
    }

    /// Moves `var` to `target_level` one adjacent swap at a time, calling
    /// `on_step` after each swap.
    fn move_var(
        &mut self,
        st: &mut SiftState,
        var: Var,
        target_level: u32,
        mut on_step: impl FnMut(&Manager, &SiftState),
    ) {
        loop {
            let current = self.level_of(var);
            match current.cmp(&target_level) {
                std::cmp::Ordering::Equal => break,
                std::cmp::Ordering::Less => self.swap_levels(st, current),
                std::cmp::Ordering::Greater => self.swap_levels(st, current - 1),
            }
            on_step(self, st);
        }
    }

    /// The level-local swap of `level` and `level + 1` over `st`.
    fn swap_levels(&mut self, st: &mut SiftState, level: u32) {
        let u = self.var_at_level(level);
        let v = self.var_at_level(level + 1);
        let nodes = &self.nodes;
        let top_is_v = |e: NodeId| !e.is_terminal() && nodes[e.index()].var == v;

        // u-nodes independent of v just move down a level with u. The rest
        // leave u's list and subtable to be rewritten into v-nodes.
        let mut moving = std::mem::take(&mut st.moving);
        let mut kept = std::mem::take(&mut st.vars[u as usize].slots);
        kept.retain(|&s| {
            let node = nodes[s as usize];
            let depends = top_is_v(node.lo) || top_is_v(node.hi);
            if depends {
                moving.push(s);
            }
            !depends
        });
        for (p, &s) in kept.iter().enumerate() {
            st.pos[s as usize] = p as u32;
        }
        let u_nodes = &mut st.vars[u as usize];
        u_nodes.slots = kept;
        for &s in &moving {
            let node = nodes[s as usize];
            u_nodes.table.remove(node.lo, node.hi);
        }

        for &s in &moving {
            let Node { lo: f0, hi: f1, .. } = self.nodes[s as usize];
            let (f11, f10) = self.cofactors(f1, v);
            let (f01, f00) = self.cofactors(f0, v);
            // F = v ? (u ? f11 : f01) : (u ? f10 : f00). f11 is regular (f1
            // itself or f1's stored hi), so `hi` never complement-normalises
            // and the slot keeps denoting F exactly.
            let hi = self.sift_mk(st, u, f01, f11);
            let lo = self.sift_mk(st, u, f00, f10);
            debug_assert!(!hi.is_complemented(), "swap lost the hi-edge invariant");
            debug_assert_ne!(hi, lo, "a v-dependent node cannot lose v");
            st.release(f1);
            st.release(f0);
            self.nodes[s as usize] = Node { var: v, lo, hi };
            debug_assert!(
                st.vars[v as usize].table.get(lo, hi).is_none(),
                "level swap produced a duplicate node; canonicity violated"
            );
            st.vars[v as usize].table.insert(lo, hi, s as usize);
            st.list(v, s);
        }
        moving.clear();
        st.moving = moving;
        self.free_dying(st);
        self.swap_order_entries(level);
    }

    /// The cofactors `(f|v=1, f|v=0)` of `f` with respect to `v`, where `v`
    /// is at or above `f`'s top level.
    fn cofactors(&self, f: NodeId, v: Var) -> (NodeId, NodeId) {
        if !f.is_terminal() && self.nodes[f.index()].var == v {
            (self.node_hi(f), self.node_lo(f))
        } else {
            (f, f)
        }
    }

    /// The swap's `mk`: reduces, complement-normalises and hash-conses
    /// `(var, lo, hi)` against `var`'s subtable, and counts one reference
    /// to the returned node. Budget-exempt, like every reorder rewrite: a
    /// budget trip mid-swap would leave a level half-rewritten.
    fn sift_mk(&mut self, st: &mut SiftState, var: Var, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            st.retain(lo);
            return lo;
        }
        let flip = hi.is_complemented();
        let (lo, hi) = if flip {
            (lo.complemented(), hi.complemented())
        } else {
            (lo, hi)
        };
        self.stats.delta_lookups += 1;
        let s = if let Some(s) = st.vars[var as usize].table.get(lo, hi) {
            self.stats.unique.hit();
            st.refs[s] += 1;
            s
        } else {
            self.stats.unique.miss();
            let node = Node { var, lo, hi };
            let s = match st.free.pop() {
                Some(s) => {
                    self.nodes[s as usize] = node;
                    s as usize
                }
                None => {
                    self.nodes.push(node);
                    st.refs.push(0);
                    st.pos.push(0);
                    self.nodes.len() - 1
                }
            };
            self.stats.peak_nodes = self.stats.peak_nodes.max(self.nodes.len());
            st.refs[s] = 1;
            st.retain(lo);
            st.retain(hi);
            st.vars[var as usize].table.insert(lo, hi, s);
            st.list(var, s as u32);
            st.live += 1;
            s
        };
        let id = NodeId::from_index(s);
        if flip {
            id.complemented()
        } else {
            id
        }
    }

    /// Frees every slot whose count is still zero, cascading into the
    /// children it releases.
    fn free_dying(&mut self, st: &mut SiftState) {
        while let Some(s) = st.dying.pop() {
            let s = s as usize;
            let node = self.nodes[s];
            // A slot can be queued twice, or revived by a later reference.
            if st.refs[s] != 0 || node.var == DEAD {
                continue;
            }
            let entry = &mut st.vars[node.var as usize];
            entry.table.remove(node.lo, node.hi);
            let p = st.pos[s] as usize;
            entry.slots.swap_remove(p);
            if let Some(&moved) = entry.slots.get(p) {
                st.pos[moved as usize] = p as u32;
            }
            self.nodes[s].var = DEAD;
            st.free.push(s as u32);
            st.live -= 1;
            st.release(node.lo);
            st.release(node.hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the order-sensitive function (x0∧x_k) ∨ (x1∧x_{k+1}) ∨ ... over
    /// 2k variables.
    fn disjoint_pairs(m: &mut Manager, k: u32) -> NodeId {
        let mut f = NodeId::FALSE;
        for i in 0..k {
            let a = m.var(i);
            let b = m.var(i + k);
            let t = m.and(a, b);
            f = m.or(f, t);
        }
        f
    }

    fn eval_all(m: &Manager, f: NodeId, n: usize) -> Vec<bool> {
        (0u32..1 << n)
            .map(|bits| {
                let v: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                m.eval(f, &v)
            })
            .collect()
    }

    #[test]
    fn swap_preserves_functions() {
        let mut m = Manager::new(6);
        let f = disjoint_pairs(&mut m, 3);
        let a = m.var(1);
        let b = m.var(4);
        let g = m.xor(a, b);
        let before_f = eval_all(&m, f, 6);
        let before_g = eval_all(&m, g, 6);
        for level in [0, 1, 4, 2, 3, 0, 4] {
            m.swap_adjacent_levels(level);
            assert_eq!(eval_all(&m, f, 6), before_f, "f broken at level {level}");
            assert_eq!(eval_all(&m, g, 6), before_g, "g broken at level {level}");
            m.assert_canonical();
        }
    }

    #[test]
    fn swap_is_involutive_on_order() {
        let mut m = Manager::new(4);
        let order_before = m.order().to_vec();
        m.swap_adjacent_levels(1);
        assert_ne!(m.order(), order_before.as_slice());
        m.swap_adjacent_levels(1);
        assert_eq!(m.order(), order_before.as_slice());
    }

    #[test]
    fn swap_keeps_canonicity() {
        // After swaps, rebuilding the same function must return the same id.
        let mut m = Manager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        m.swap_adjacent_levels(0);
        m.swap_adjacent_levels(2);
        let ab2 = m.and(a, b);
        let f2 = m.or(ab2, c);
        assert_eq!(f, f2);
    }

    #[test]
    fn move_var_walks_both_directions() {
        let mut m = Manager::new(5);
        let f = disjoint_pairs(&mut m, 2);
        let before = eval_all(&m, f, 5);
        m.move_var_to_level(0, 4);
        assert_eq!(m.level_of(0), 4);
        m.move_var_to_level(0, 2);
        assert_eq!(m.level_of(0), 2);
        assert_eq!(eval_all(&m, f, 5), before);
        m.assert_canonical();
    }

    #[test]
    fn sift_shrinks_disjoint_pairs() {
        // Under the identity order the pairs function needs ~2^k nodes;
        // interleaved it is linear. Sifting must find a big win.
        let mut m = Manager::new(8);
        let f = disjoint_pairs(&mut m, 4);
        let before_eval = eval_all(&m, f, 8);
        let before = m.live_size(&[f]);
        let mut roots = [f];
        let after = m.sift(&mut roots);
        assert!(after < before, "sift did not shrink: {before} -> {after}");
        assert!(after <= 12, "expected near-linear size, got {after}");
        assert_eq!(eval_all(&m, roots[0], 8), before_eval);
    }

    #[test]
    fn sift_leaves_only_the_live_nodes() {
        // Garbage before the sift and garbage made by the swaps are both
        // gone afterwards: the arena is the terminal plus the live nodes,
        // and the remapped roots still denote the same function.
        let mut m = Manager::new(16);
        let f = disjoint_pairs(&mut m, 8);
        for i in 0..8 {
            let v = m.var(i);
            let dead = m.and(f, v);
            let _ = m.xor(dead, v);
        }
        let count_before = m.sat_count(f);
        let mut roots = [f];
        let live = m.sift(&mut roots);
        assert_eq!(m.sat_count(roots[0]), count_before);
        assert_eq!(m.num_nodes(), live + 1);
        assert_eq!(m.live_size(&roots), live);
        m.assert_canonical();
    }

    #[test]
    fn live_size_counts_shared_structure_once() {
        let mut m = Manager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let nab = m.not(ab);
        assert!(m.live_size(&[ab, nab]) <= m.size(ab) + m.size(nab));
        assert_eq!(m.live_size(&[]), 0);
    }

    /// The sift state agrees with the graph it describes: the running live
    /// count is the live size, every listed node sits in its variable's
    /// subtable under its own key with an exact reference count, and the
    /// live graph is canonical (checked by `assert_canonical` on a copy whose
    /// unique table a gc rebuilt).
    fn audit(m: &Manager, st: &SiftState, roots: &[NodeId]) {
        assert_eq!(st.live, m.live_size(roots), "running live count drifted");
        let mut refs = vec![0u32; m.nodes.len()];
        for r in roots.iter().filter(|r| !r.is_terminal()) {
            refs[r.index()] += 1;
        }
        let mut listed = 0;
        for (var, entry) in st.vars.iter().enumerate() {
            assert_eq!(entry.table.len(), entry.slots.len(), "var {var}: table vs list");
            for (p, &s) in entry.slots.iter().enumerate() {
                let node = m.nodes[s as usize];
                assert_eq!(node.var as usize, var, "slot {s} listed under the wrong var");
                assert_eq!(st.pos[s as usize] as usize, p, "slot {s}: stale position");
                assert_eq!(entry.table.get(node.lo, node.hi), Some(s as usize));
                for c in [node.lo, node.hi].into_iter().filter(|c| !c.is_terminal()) {
                    refs[c.index()] += 1;
                }
            }
            listed += entry.slots.len();
        }
        assert_eq!(listed, st.live, "listed nodes vs live count");
        for entry in &st.vars {
            for &s in &entry.slots {
                assert_eq!(st.refs[s as usize], refs[s as usize], "slot {s}: refcount");
            }
        }
        let mut copy = m.clone();
        let mut roots = roots.to_vec();
        copy.gc_roots(&mut roots);
        copy.assert_canonical();
    }

    /// The function whose truth table is `tt` (entry `a` is the value under
    /// the assignment whose bit `i` is variable `i`).
    fn from_truth_table(m: &mut Manager, tt: &[bool]) -> NodeId {
        if tt.len() == 1 {
            return m.constant(tt[0]);
        }
        let half = tt.len() / 2;
        let top = half.trailing_zeros();
        let lo = from_truth_table(m, &tt[..half]);
        let hi = from_truth_table(m, &tt[half..]);
        let x = m.var(top);
        m.ite(x, hi, lo)
    }

    /// Live size of `tts` built from scratch under `order`.
    fn score(tts: &[Vec<bool>], order: &[Var]) -> usize {
        let mut m = Manager::with_order(order).unwrap();
        let roots: Vec<NodeId> = tts.iter().map(|tt| from_truth_table(&mut m, tt)).collect();
        m.live_size(&roots)
    }

    /// Rudell's walk with no incremental state: every candidate position is
    /// scored by rebuilding all functions in a fresh manager. Same visiting
    /// order, same nearer-end-first walk, same strict `<`.
    fn reference_sift(tts: &[Vec<bool>], m: &Manager, roots: &[NodeId]) -> (Vec<Var>, usize) {
        let n = m.num_vars();
        let mut per_var = vec![0usize; n];
        let mut seen = std::collections::HashSet::new();
        let mut stack = roots.to_vec();
        while let Some(f) = stack.pop() {
            if f.is_terminal() || !seen.insert(f.index()) {
                continue;
            }
            per_var[m.node_var(f) as usize] += 1;
            stack.push(m.node_lo(f));
            stack.push(m.node_hi(f));
        }
        let mut occupancy: Vec<(usize, Var)> =
            per_var.iter().enumerate().map(|(v, &c)| (c, v as Var)).collect();
        occupancy.sort_by_key(|&(count, _)| std::cmp::Reverse(count));

        let mut order = m.order().to_vec();
        let position = |order: &[Var], var: Var| order.iter().position(|&x| x == var).unwrap();
        let mut best_total = score(tts, &order);
        for &(_, var) in &occupancy {
            let start = position(&order, var);
            let mut best_level = start;
            let (first_end, second_end) = if start <= n / 2 { (0, n - 1) } else { (n - 1, 0) };
            for target in [first_end, second_end] {
                let mut level = position(&order, var);
                while level != target {
                    let next = if target > level { level + 1 } else { level - 1 };
                    order.swap(level, next);
                    level = next;
                    let size = score(tts, &order);
                    if size < best_total {
                        best_total = size;
                        best_level = level;
                    }
                }
            }
            order.remove(position(&order, var));
            order.insert(best_level, var);
            best_total = score(tts, &order);
        }
        (order, best_total)
    }

    proptest::proptest! {
        #[test]
        fn sift_matches_the_rebuild_from_scratch_walk(
            n in 1usize..8,
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 3..10),
            shape in 0u8..3,
            order_keys in proptest::collection::vec(proptest::prelude::any::<u32>(), 7..8),
        ) {
            // One to three random functions of n variables. `shape` thins or
            // thickens them (a plain random table rarely cares about order).
            let rows = 1usize << n;
            let bit = |w: u64, a: usize| w >> (a % 64) & 1 == 1;
            let tts: Vec<Vec<bool>> = words
                .chunks_exact(3)
                .map(|w| {
                    (0..rows)
                        .map(|a| match shape {
                            0 => bit(w[0], a) ^ bit(w[1], a / 2),
                            1 => bit(w[0], a) && bit(w[1], a) && bit(w[2], a),
                            _ => bit(w[0], a) || (bit(w[1], a) && bit(w[2], a)),
                        })
                        .collect()
                })
                .collect();
            let mut order: Vec<Var> = (0..n as Var).collect();
            order.sort_by_key(|&v| order_keys[v as usize]);

            let mut m = Manager::with_order(&order).unwrap();
            let mut roots: Vec<NodeId> =
                tts.iter().map(|tt| from_truth_table(&mut m, tt)).collect();
            // Garbage the opening gc must drop.
            for &r in &roots {
                let x = m.var(0);
                let _ = m.xor(r, x);
            }
            let (want_order, want_size) = reference_sift(&tts, &m, &roots);

            let size = m.sift_with(&mut roots, audit);
            proptest::prop_assert_eq!(m.order(), want_order.as_slice());
            proptest::prop_assert_eq!(size, want_size);
            proptest::prop_assert_eq!(m.live_size(&roots), size);
            proptest::prop_assert_eq!(m.num_nodes(), size + 1);
            m.assert_canonical();
            let rebuilt: Vec<NodeId> = tts.iter().map(|tt| from_truth_table(&mut m, tt)).collect();
            proptest::prop_assert_eq!(rebuilt, roots);
        }
    }

    #[test]
    #[should_panic(expected = "cannot swap the last level down")]
    fn swap_rejects_last_level() {
        let mut m = Manager::new(3);
        m.swap_adjacent_levels(2);
    }
}

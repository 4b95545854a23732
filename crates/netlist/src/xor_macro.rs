//! Recognition of NAND-expanded XOR gates.
//!
//! [`crate::expand_xor_to_nand`] realises `a ⊕ c` as four NANDs — the C499 →
//! C1355 construction. A difference crossing that motif from outside obeys
//! the XOR row of the paper's Table 1, `Δo = Δa ⊕ Δc`, one apply instead of
//! four NAND rows against internal good functions. This module finds the
//! motifs so the propagation engine can take that shortcut.

use crate::circuit::{Circuit, Driver, GateKind, NetId};

/// One four-NAND XOR: `t1 = NAND(a, c)`, `t2 = NAND(a, t1)`,
/// `t3 = NAND(c, t1)`, `out = NAND(t2, t3) = a ⊕ c` (any pin order).
///
/// The internal nets `t1`, `t2`, `t3` feed only their motif sinks and are not
/// primary outputs, so nothing outside the macro observes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorMacro {
    /// First XOR input (the other fanin of `t2`).
    pub a: NetId,
    /// Second XOR input (the other fanin of `t3`).
    pub c: NetId,
    /// `NAND(a, c)`.
    pub t1: NetId,
    /// `NAND(a, t1)`.
    pub t2: NetId,
    /// `NAND(c, t1)`.
    pub t3: NetId,
    /// `NAND(t2, t3)`, the macro output.
    pub out: NetId,
}

/// Every [`XorMacro`] of a circuit, with a per-net membership index.
///
/// Macros never share a member net: an internal net feeds only its own
/// macro, so it cannot be part of another one.
///
/// # Examples
///
/// ```
/// use dp_netlist::generators::{c1355_surrogate, c17};
/// use dp_netlist::XorMacros;
///
/// assert!(XorMacros::find(&c17()).is_empty());
/// let c1355 = c1355_surrogate();
/// let macros = XorMacros::find(&c1355);
/// assert!(!macros.is_empty());
/// let m = macros.macros()[0];
/// assert_eq!(macros.macro_of(m.t1), Some(0));
/// assert_eq!(macros.macro_of(m.out), Some(0));
/// assert_eq!(macros.macro_of(m.a), None);
/// ```
#[derive(Debug, Clone)]
pub struct XorMacros {
    macros: Vec<XorMacro>,
    /// Per net: index of the macro it is a member of (`t1`, `t2`, `t3` or
    /// `out`), or [`NOT_A_MEMBER`].
    member: Vec<u32>,
}

const NOT_A_MEMBER: u32 = u32::MAX;

impl XorMacros {
    /// Finds every four-NAND XOR motif of `circuit` in one linear pass.
    pub fn find(circuit: &Circuit) -> Self {
        let mut found = XorMacros {
            macros: Vec::new(),
            member: vec![NOT_A_MEMBER; circuit.num_nets()],
        };
        for out in circuit.gates() {
            if let Some(m) = recognise(circuit, out) {
                let id = found.macros.len() as u32;
                for n in [m.t1, m.t2, m.t3, m.out] {
                    debug_assert_eq!(found.member[n.index()], NOT_A_MEMBER);
                    found.member[n.index()] = id;
                }
                found.macros.push(m);
            }
        }
        found
    }

    /// The recognised macros, in topological order of their outputs.
    pub fn macros(&self) -> &[XorMacro] {
        &self.macros
    }

    /// Number of recognised macros.
    pub fn len(&self) -> usize {
        self.macros.len()
    }

    /// `true` when the circuit has no four-NAND XOR.
    pub fn is_empty(&self) -> bool {
        self.macros.is_empty()
    }

    /// Index into [`XorMacros::macros`] of the macro `net` is a member of
    /// (`t1`, `t2`, `t3` or `out`); `None` for the inputs `a`, `c` and every
    /// net outside a macro.
    pub fn macro_of(&self, net: NetId) -> Option<usize> {
        match self.member.get(net.index()) {
            Some(&id) if id != NOT_A_MEMBER => Some(id as usize),
            _ => None,
        }
    }

    /// Like [`XorMacros::macro_of`], but only for the internal nets `t1`,
    /// `t2`, `t3` (`None` for a macro output).
    pub fn internal_macro_of(&self, net: NetId) -> Option<usize> {
        self.macro_of(net).filter(|&id| self.macros[id].out != net)
    }
}

/// The two fanins of a two-input NAND, or `None` for any other driver.
fn nand2(circuit: &Circuit, n: NetId) -> Option<(NetId, NetId)> {
    match circuit.driver(n) {
        Driver::Gate {
            kind: GateKind::Nand,
            fanins,
        } if fanins.len() == 2 => Some((fanins[0], fanins[1])),
        _ => None,
    }
}

/// `true` when `n` is not a primary output and its fanout is exactly the
/// gates in `sinks` (one pin each).
fn feeds_only(circuit: &Circuit, n: NetId, sinks: &[NetId]) -> bool {
    let fanout = circuit.fanout(n);
    !circuit.is_output(n)
        && fanout.len() == sinks.len()
        && sinks
            .iter()
            .all(|s| fanout.iter().any(|&(sink, _)| sink == *s))
}

/// Matches the motif with `out` as its output gate.
fn recognise(circuit: &Circuit, out: NetId) -> Option<XorMacro> {
    let (t2, t3) = nand2(circuit, out)?;
    let (p, q) = nand2(circuit, t2)?;
    let (r, s) = nand2(circuit, t3)?;
    // `t1` is the fanin `t2` and `t3` share; the other fanins are `a`, `c`.
    for (t1, a) in [(p, q), (q, p)] {
        let c = if r == t1 {
            s
        } else if s == t1 {
            r
        } else {
            continue;
        };
        let Some((x, y)) = nand2(circuit, t1) else {
            continue;
        };
        let inputs_match = a != c && ((x, y) == (a, c) || (x, y) == (c, a));
        if inputs_match
            && feeds_only(circuit, t1, &[t2, t3])
            && feeds_only(circuit, t2, &[out])
            && feeds_only(circuit, t3, &[out])
        {
            return Some(XorMacro {
                a,
                c,
                t1,
                t2,
                t3,
                out,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::generators::{
        alu74181, c1355_surrogate, c17, c1908_surrogate, c1908_unexpanded, c432_surrogate,
        c499_surrogate,
    };
    use crate::{decompose_two_input, expand_xor_to_nand};

    fn lone(kind: GateKind) -> Circuit {
        let mut b = CircuitBuilder::new("lone");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.gate("g", kind, &[a, c]).unwrap();
        b.output(g);
        b.finish().unwrap()
    }

    fn net(c: &Circuit, name: &str) -> NetId {
        c.find_net(name).unwrap()
    }

    /// Builds the four-NAND motif by hand with the given pin orders; `tweak`
    /// may add gates or outputs before the circuit is finished.
    fn motif(swap: [bool; 4], tweak: impl FnOnce(&mut CircuitBuilder, [NetId; 6])) -> Circuit {
        let order = |s: bool, x: NetId, y: NetId| if s { [y, x] } else { [x, y] };
        let mut b = CircuitBuilder::new("motif");
        let a = b.input("a");
        let c = b.input("c");
        let t1 = b.gate("t1", GateKind::Nand, &order(swap[0], a, c)).unwrap();
        let t2 = b
            .gate("t2", GateKind::Nand, &order(swap[1], a, t1))
            .unwrap();
        let t3 = b
            .gate("t3", GateKind::Nand, &order(swap[2], c, t1))
            .unwrap();
        let o = b
            .gate("o", GateKind::Nand, &order(swap[3], t2, t3))
            .unwrap();
        b.output(o);
        tweak(&mut b, [a, c, t1, t2, t3, o]);
        b.finish().unwrap()
    }

    fn two_input_xors(c: &Circuit) -> usize {
        c.gates()
            .filter(|&g| {
                matches!(
                    c.driver(g),
                    Driver::Gate { kind: GateKind::Xor | GateKind::Xnor, fanins }
                        if fanins.len() == 2
                )
            })
            .count()
    }

    #[test]
    fn expanded_lone_xor_is_one_macro() {
        let e = expand_xor_to_nand(&lone(GateKind::Xor)).unwrap();
        let found = XorMacros::find(&e);
        assert_eq!(found.len(), 1);
        let m = found.macros()[0];
        assert_eq!((m.a, m.c), (net(&e, "a"), net(&e, "c")));
        assert_eq!(m.out, net(&e, "g"));
        assert_eq!(found.internal_macro_of(m.t1), Some(0));
        assert_eq!(found.internal_macro_of(m.out), None);
    }

    #[test]
    fn expanded_xnor_leaves_the_inverter_outside() {
        let e = expand_xor_to_nand(&lone(GateKind::Xnor)).unwrap();
        let found = XorMacros::find(&e);
        assert_eq!(found.len(), 1);
        let m = found.macros()[0];
        let g = net(&e, "g");
        assert_eq!(
            e.driver(g),
            &Driver::Gate {
                kind: GateKind::Not,
                fanins: vec![m.out]
            }
        );
        assert_eq!(found.macro_of(g), None);
    }

    #[test]
    fn every_pin_order_is_recognised() {
        for bits in 0..16u32 {
            let swap = [0, 1, 2, 3].map(|k| bits >> k & 1 == 1);
            let c = motif(swap, |_, _| {});
            let found = XorMacros::find(&c);
            assert_eq!(found.len(), 1, "pin order {swap:?}");
            let m = found.macros()[0];
            let got = [m.a, m.c, m.t1, m.t2, m.t3, m.out];
            // The motif is symmetric: `a`/`c` and `t2`/`t3` may swap roles.
            let want = ["a", "c", "t1", "t2", "t3", "o"].map(|n| net(&c, n));
            let mirrored = ["c", "a", "t1", "t3", "t2", "o"].map(|n| net(&c, n));
            assert!(got == want || got == mirrored, "pin order {swap:?}");
        }
    }

    #[test]
    fn macro_counts_match_the_unexpanded_xors() {
        let c499 = decompose_two_input(&c499_surrogate()).unwrap();
        assert_eq!(
            XorMacros::find(&c1355_surrogate()).len(),
            two_input_xors(&c499)
        );
        let pre = decompose_two_input(&c1908_unexpanded()).unwrap();
        assert_eq!(
            XorMacros::find(&c1908_surrogate()).len(),
            two_input_xors(&pre)
        );
        assert!(two_input_xors(&pre) > 0);
    }

    #[test]
    fn circuits_without_expanded_xors_have_no_macros() {
        for c in [alu74181(), c432_surrogate(), c17()] {
            assert!(XorMacros::find(&c).is_empty(), "{}", c.name());
        }
    }

    #[test]
    fn t1_with_an_extra_fanout_is_rejected() {
        let c = motif([false; 4], |b, [_, _, t1, ..]| {
            let y = b.gate("y", GateKind::Not, &[t1]).unwrap();
            b.output(y);
        });
        assert!(XorMacros::find(&c).is_empty());
    }

    #[test]
    fn t2_that_is_an_output_is_rejected() {
        let c = motif([false; 4], |b, [_, _, _, t2, ..]| b.output(t2));
        assert!(XorMacros::find(&c).is_empty());
    }

    #[test]
    fn identical_inputs_are_rejected() {
        // NAND(a, a) is an inverter, and the motif over it is not an XOR.
        let mut b = CircuitBuilder::new("aa");
        let a = b.input("a");
        let t1 = b.gate("t1", GateKind::Nand, &[a, a]).unwrap();
        let t2 = b.gate("t2", GateKind::Nand, &[a, t1]).unwrap();
        let t3 = b.gate("t3", GateKind::Nand, &[a, t1]).unwrap();
        let o = b.gate("o", GateKind::Nand, &[t2, t3]).unwrap();
        b.output(o);
        assert!(XorMacros::find(&b.finish().unwrap()).is_empty());
    }

    #[test]
    fn three_input_nand_is_rejected() {
        let mut b = CircuitBuilder::new("wide");
        let a = b.input("a");
        let c = b.input("c");
        let e = b.input("e");
        let t1 = b.gate("t1", GateKind::Nand, &[a, c, e]).unwrap();
        let t2 = b.gate("t2", GateKind::Nand, &[a, t1]).unwrap();
        let t3 = b.gate("t3", GateKind::Nand, &[c, t1]).unwrap();
        let o = b.gate("o", GateKind::Nand, &[t2, t3]).unwrap();
        b.output(o);
        assert!(XorMacros::find(&b.finish().unwrap()).is_empty());
    }
}

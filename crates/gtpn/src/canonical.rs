//! Canonical form of a net: deterministic place/transition reordering.
//!
//! Two call sites that build the *same model* in different orders — places
//! added in a different sequence, transitions interleaved differently —
//! produce [`Net`]s that are structurally identical up to a relabeling of
//! ids, yet compare unequal and hash apart, so a cache keyed on the exact
//! structure cannot recognize them. [`canonicalize`] computes a deterministic representative of that
//! relabeling class: places are sorted by `(name, initial marking)`,
//! transitions by `(name, delay, resource, remapped arcs, frequency
//! skeleton)`, arc lists are merged and sorted, and every [`PlaceId`] /
//! `TransId` embedded in arcs or frequency expressions is rewritten to the
//! new numbering. Nets that differ only in build order canonicalize to the
//! *same* net, so [`fingerprint`] (the hash of the canonical form) is the
//! cache key the engine-level solution cache ([`crate::engine`]) uses.
//!
//! The permutations are returned alongside the canonical net so cached
//! results expressed in one ordering can be re-addressed from another: the
//! engine composes `original → canonical → cached` id maps on a hit.

use crate::expr::Expr;
use crate::net::{Net, PlaceId, TransId, Transition};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// A net in canonical form, with the permutations that produced it.
#[derive(Debug, Clone)]
pub struct Canonical {
    /// The canonical representative (same structure, deterministic order).
    pub net: Net,
    /// `place_map[original.0]` = canonical place index.
    pub place_map: Vec<usize>,
    /// `trans_map[original.0]` = canonical transition index.
    pub trans_map: Vec<usize>,
}

/// Computes the canonical form of `net`; see the module docs.
pub fn canonicalize(net: &Net) -> Canonical {
    // Places ordered by (name, initial marking); ties (duplicate name +
    // marking) stay in original order, which keeps the map deterministic.
    let mut porder: Vec<usize> = (0..net.places.len()).collect();
    porder.sort_by(|&a, &b| {
        let pa = &net.places[a];
        let pb = &net.places[b];
        (pa.name.as_str(), pa.initial, a).cmp(&(pb.name.as_str(), pb.initial, b))
    });
    let mut place_map = vec![0usize; porder.len()];
    for (newi, &old) in porder.iter().enumerate() {
        place_map[old] = newi;
    }

    // Transitions ordered by everything place-remapping can normalize. The
    // frequency skeleton renders `Firing` leaves without their ids (they are
    // not renumbered yet); transitions identical in every other respect but
    // their firing references keep original relative order — both build
    // orders of such twins still canonicalize consistently per-net, they
    // just may not dedup against each other (safe: the cache verifies
    // candidate entries by full structural equality).
    type TransKey = (
        String,
        u64,
        Option<String>,
        Vec<(usize, u32)>,
        Vec<(usize, u32)>,
        String,
    );
    let tkeys: Vec<TransKey> = net
        .transitions
        .iter()
        .map(|t| {
            (
                t.name.clone(),
                t.delay,
                t.resource.clone(),
                normalize_arcs(&t.inputs, &place_map),
                normalize_arcs(&t.outputs, &place_map),
                skeleton(&t.frequency, &place_map),
            )
        })
        .collect();
    let mut torder: Vec<usize> = (0..net.transitions.len()).collect();
    torder.sort_by(|&a, &b| tkeys[a].cmp(&tkeys[b]).then(a.cmp(&b)));
    let mut trans_map = vec![0usize; torder.len()];
    for (newi, &old) in torder.iter().enumerate() {
        trans_map[old] = newi;
    }

    let mut out = Net::new(net.name().to_string());
    for &old in &porder {
        out.add_place(net.places[old].name.clone(), net.places[old].initial);
    }
    for &old in &torder {
        let t = &net.transitions[old];
        let mut nt = Transition::new(t.name.clone())
            .delay(t.delay)
            .frequency(remap_expr(&t.frequency, &place_map, &trans_map));
        if let Some(r) = &t.resource {
            nt = nt.resource(r.clone());
        }
        for (p, m) in normalize_arcs(&t.inputs, &place_map) {
            nt = nt.input(PlaceId(p), m);
        }
        for (p, m) in normalize_arcs(&t.outputs, &place_map) {
            nt = nt.output(PlaceId(p), m);
        }
        out.add_transition(nt)
            .expect("remapped arcs reference existing places");
    }
    Canonical {
        net: out,
        place_map,
        trans_map,
    }
}

/// Canonical fingerprint of a net: the hash of its canonical form
/// (names included — the engine cache verifies hits by full equality, so
/// labels discriminating keys only reduces collision chains). Nets that are
/// identical up to place/transition build order share a fingerprint.
pub fn fingerprint(net: &Net) -> u64 {
    fingerprint_canonical(&canonicalize(net).net)
}

/// Hash of an already-canonical net; [`fingerprint`] = canonicalize + this.
pub(crate) fn fingerprint_canonical(net: &Net) -> u64 {
    let mut h = DefaultHasher::new();
    net.name().hash(&mut h);
    net.place_count().hash(&mut h);
    for p in &net.places {
        p.name.hash(&mut h);
        p.initial.hash(&mut h);
    }
    net.transition_count().hash(&mut h);
    for t in &net.transitions {
        t.name.hash(&mut h);
        t.delay.hash(&mut h);
        t.resource.hash(&mut h);
        t.inputs.hash(&mut h);
        t.outputs.hash(&mut h);
        hash_expr(&t.frequency, &mut h);
    }
    h.finish()
}

/// Hashes an expression tree; floats hash by bit pattern so distinct
/// timings produce distinct fingerprints.
fn hash_expr(e: &Expr, h: &mut DefaultHasher) {
    let pair = |tag: u8, a: &Expr, b: &Expr, h: &mut DefaultHasher| {
        tag.hash(h);
        hash_expr(a, h);
        hash_expr(b, h);
    };
    match e {
        Expr::Const(v) => {
            0u8.hash(h);
            v.to_bits().hash(h);
        }
        Expr::Tokens(p) => {
            1u8.hash(h);
            p.0.hash(h);
        }
        Expr::Firing(t) => {
            2u8.hash(h);
            t.0.hash(h);
        }
        Expr::Add(a, b) => pair(3, a, b, h),
        Expr::Sub(a, b) => pair(4, a, b, h),
        Expr::Mul(a, b) => pair(5, a, b, h),
        Expr::Div(a, b) => pair(6, a, b, h),
        Expr::Eq(a, b) => pair(7, a, b, h),
        Expr::Lt(a, b) => pair(8, a, b, h),
        Expr::Le(a, b) => pair(9, a, b, h),
        Expr::And(a, b) => pair(10, a, b, h),
        Expr::Or(a, b) => pair(11, a, b, h),
        Expr::Not(a) => {
            12u8.hash(h);
            hash_expr(a, h);
        }
        Expr::If(c, a, b) => {
            13u8.hash(h);
            hash_expr(c, h);
            hash_expr(a, h);
            hash_expr(b, h);
        }
    }
}

/// Merges duplicate arcs (the token game accumulates multiplicities per
/// place, so `[(p,1),(p,1)]` ≡ `[(p,2)]`), remaps the place ids and sorts.
fn normalize_arcs(arcs: &[(PlaceId, u32)], place_map: &[usize]) -> Vec<(usize, u32)> {
    let mut merged: BTreeMap<usize, u32> = BTreeMap::new();
    for &(p, m) in arcs {
        let mapped = place_map.get(p.0).copied().unwrap_or(p.0);
        *merged.entry(mapped).or_insert(0) += m;
    }
    merged.into_iter().collect()
}

/// Rewrites `Tokens`/`Firing` leaves to the canonical numbering.
fn remap_expr(e: &Expr, place_map: &[usize], trans_map: &[usize]) -> Expr {
    let r = |x: &Expr| Box::new(remap_expr(x, place_map, trans_map));
    match e {
        Expr::Const(v) => Expr::Const(*v),
        Expr::Tokens(p) => Expr::Tokens(PlaceId(place_map.get(p.0).copied().unwrap_or(p.0))),
        Expr::Firing(t) => Expr::Firing(TransId(trans_map.get(t.0).copied().unwrap_or(t.0))),
        Expr::Add(a, b) => Expr::Add(r(a), r(b)),
        Expr::Sub(a, b) => Expr::Sub(r(a), r(b)),
        Expr::Mul(a, b) => Expr::Mul(r(a), r(b)),
        Expr::Div(a, b) => Expr::Div(r(a), r(b)),
        Expr::Eq(a, b) => Expr::Eq(r(a), r(b)),
        Expr::Lt(a, b) => Expr::Lt(r(a), r(b)),
        Expr::Le(a, b) => Expr::Le(r(a), r(b)),
        Expr::And(a, b) => Expr::And(r(a), r(b)),
        Expr::Or(a, b) => Expr::Or(r(a), r(b)),
        Expr::Not(a) => Expr::Not(r(a)),
        Expr::If(c, a, b) => Expr::If(r(c), r(a), r(b)),
    }
}

/// Order key for a frequency expression: structure and constants with
/// places remapped, `Firing` ids elided (not renumbered yet at sort time).
fn skeleton(e: &Expr, place_map: &[usize]) -> String {
    let mut s = String::new();
    write_skeleton(e, place_map, &mut s);
    s
}

fn write_skeleton(e: &Expr, place_map: &[usize], out: &mut String) {
    use std::fmt::Write;
    let pair = |tag: &str, a: &Expr, b: &Expr, out: &mut String| {
        out.push_str(tag);
        out.push('(');
        write_skeleton(a, place_map, out);
        out.push(',');
        write_skeleton(b, place_map, out);
        out.push(')');
    };
    match e {
        Expr::Const(v) => {
            let _ = write!(out, "c{:016x}", v.to_bits());
        }
        Expr::Tokens(p) => {
            let _ = write!(out, "#{}", place_map.get(p.0).copied().unwrap_or(p.0));
        }
        Expr::Firing(_) => out.push('F'),
        Expr::Add(a, b) => pair("+", a, b, out),
        Expr::Sub(a, b) => pair("-", a, b, out),
        Expr::Mul(a, b) => pair("*", a, b, out),
        Expr::Div(a, b) => pair("/", a, b, out),
        Expr::Eq(a, b) => pair("=", a, b, out),
        Expr::Lt(a, b) => pair("<", a, b, out),
        Expr::Le(a, b) => pair("<=", a, b, out),
        Expr::And(a, b) => pair("&", a, b, out),
        Expr::Or(a, b) => pair("|", a, b, out),
        Expr::Not(a) => {
            out.push('!');
            write_skeleton(a, place_map, out);
        }
        Expr::If(c, a, b) => {
            out.push_str("if(");
            write_skeleton(c, place_map, out);
            out.push(',');
            write_skeleton(a, place_map, out);
            out.push(',');
            write_skeleton(b, place_map, out);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same two-stage model, built in two different orders: places swapped,
    /// transitions interleaved differently.
    fn forward() -> Net {
        let mut net = Net::new("perm");
        let p = net.add_place("P", 1);
        let q = net.add_place("Q", 0);
        net.add_transition(
            Transition::new("exit")
                .delay(1)
                .frequency(Expr::gate(Expr::place_empty(q), Expr::constant(0.25)))
                .resource("lambda")
                .input(p, 1)
                .output(q, 1),
        )
        .unwrap();
        net.add_transition(Transition::new("recycle").delay(2).input(q, 1).output(p, 1))
            .unwrap();
        net
    }

    fn reversed() -> Net {
        let mut net = Net::new("perm");
        let q = net.add_place("Q", 0);
        let p = net.add_place("P", 1);
        net.add_transition(Transition::new("recycle").delay(2).input(q, 1).output(p, 1))
            .unwrap();
        net.add_transition(
            Transition::new("exit")
                .delay(1)
                .frequency(Expr::gate(Expr::place_empty(q), Expr::constant(0.25)))
                .resource("lambda")
                .input(p, 1)
                .output(q, 1),
        )
        .unwrap();
        net
    }

    #[test]
    fn build_order_does_not_change_canonical_form() {
        let a = canonicalize(&forward());
        let b = canonicalize(&reversed());
        assert_eq!(a.net, b.net, "canonical forms must be identical");
        assert_eq!(fingerprint(&forward()), fingerprint(&reversed()));
    }

    #[test]
    fn maps_invert_correctly() {
        let net = reversed();
        let c = canonicalize(&net);
        for (old, &newi) in c.place_map.iter().enumerate() {
            assert_eq!(
                net.place_name(PlaceId(old)),
                c.net.place_name(PlaceId(newi))
            );
        }
        for (old, &newi) in c.trans_map.iter().enumerate() {
            assert_eq!(
                net.transition_name(TransId(old)),
                c.net.transition_name(TransId(newi))
            );
        }
    }

    #[test]
    fn canonical_net_solves_to_the_same_answer() {
        let orig = forward();
        let canon = canonicalize(&orig).net;
        let a = orig
            .reachability(1_000)
            .unwrap()
            .solve(1e-12, 100_000)
            .unwrap()
            .resource_usage("lambda")
            .unwrap();
        let b = canon
            .reachability(1_000)
            .unwrap()
            .solve(1e-12, 100_000)
            .unwrap()
            .resource_usage("lambda")
            .unwrap();
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn duplicate_arcs_merge() {
        let mut a = Net::new("m");
        let p = a.add_place("P", 2);
        a.add_transition(
            Transition::new("t")
                .delay(1)
                .input(p, 1)
                .input(p, 1)
                .output(p, 2),
        )
        .unwrap();
        let mut b = Net::new("m");
        let p = b.add_place("P", 2);
        b.add_transition(Transition::new("t").delay(1).input(p, 2).output(p, 2))
            .unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(canonicalize(&a).net, canonicalize(&b).net);
    }

    #[test]
    fn different_structure_changes_fingerprint() {
        let mut other = forward();
        let extra = other.add_place("R", 1);
        other
            .add_transition(
                Transition::new("noise")
                    .delay(1)
                    .input(extra, 1)
                    .output(extra, 1),
            )
            .unwrap();
        assert_ne!(fingerprint(&forward()), fingerprint(&other));
    }
}

//! Place-invariant (conservation) analysis.
//!
//! A *P-invariant* is an integer weighting `y` of places with `C·y = 0`
//! (where `C` is the incidence matrix): the weighted token count
//! `Σ y_p · M(p)` is conserved by every firing. The paper's models are built
//! from conservative cycles — clients, servers and processor tokens all
//! circulate — so invariants are a useful structural sanity check on the
//! architecture nets: e.g. the `Host` token weighting must be invariant in
//! every model.

use crate::net::Net;

/// Computes a basis of P-invariants (integer vectors `y ≥ 0` is *not*
/// required; this returns a rational null-space basis scaled to integers).
///
/// Returns one `Vec<i64>` per basis vector, indexed by place.
pub fn p_invariants(net: &Net) -> Vec<Vec<i64>> {
    let c = net.incidence_matrix();
    let p = net.place_count();
    if p == 0 {
        return Vec::new();
    }
    // Solve C·y = 0: exact fraction-free elimination over the t×p matrix.
    let m: Vec<Vec<i128>> = c
        .iter()
        .map(|row| row.iter().map(|&v| i128::from(v)).collect())
        .collect();
    null_space_basis(m, p)
}

/// Checks whether the weighted token count `Σ y_p · M(p)` of `weights` is
/// conserved by every transition, i.e. `weights` is a P-invariant.
pub fn is_invariant(net: &Net, weights: &[i64]) -> bool {
    let c = net.incidence_matrix();
    c.iter().all(|row| {
        row.iter()
            .zip(weights.iter())
            .map(|(&a, &y)| i128::from(a) * i128::from(y))
            .sum::<i128>()
            == 0
    })
}

/// Weighted token count of a marking under an invariant.
pub fn weighted_tokens(marking: &[u32], weights: &[i64]) -> i64 {
    marking
        .iter()
        .zip(weights.iter())
        .map(|(&m, &y)| i64::from(m) * y)
        .sum()
}

/// Computes a basis of T-invariants: integer firing-count vectors `x` with
/// `Cᵀ·x = 0` — firing every transition `x_t` times returns the net to its
/// starting marking. The paper's conversation cycles are exactly such
/// invariants (every stage fires once per conversation).
pub fn t_invariants(net: &Net) -> Vec<Vec<i64>> {
    // T-invariants of C are P-invariants of the transposed incidence
    // matrix; reuse the same elimination on a transposed view via a
    // lightweight shim.
    let c = net.incidence_matrix();
    let t = c.len();
    let p = net.place_count();
    if t == 0 {
        return Vec::new();
    }
    // Build transposed matrix rows = places, cols = transitions.
    let mut m: Vec<Vec<i128>> = vec![vec![0; t]; p];
    for (ti, row) in c.iter().enumerate() {
        for (pi, &v) in row.iter().enumerate() {
            m[pi][ti] = i128::from(v);
        }
    }
    null_space_basis(m, t)
}

/// Fraction-free Gaussian elimination returning an integer basis of the
/// null space of the given row-major matrix with `cols` columns.
#[allow(clippy::needless_range_loop)] // indices alias rows during elimination
fn null_space_basis(mut m: Vec<Vec<i128>>, cols: usize) -> Vec<Vec<i64>> {
    let rows = m.len();
    let mut pivot_col_of_row: Vec<usize> = Vec::new();
    let mut row = 0usize;
    for col in 0..cols {
        let mut pivot = None;
        for r in row..rows {
            if m[r][col] != 0 {
                pivot = Some(r);
                break;
            }
        }
        let Some(pr) = pivot else { continue };
        m.swap(row, pr);
        let pv = m[row][col];
        for r in 0..rows {
            if r != row && m[r][col] != 0 {
                let f = m[r][col];
                for k in 0..cols {
                    m[r][k] = m[r][k] * pv - f * m[row][k];
                }
                normalize_row(&mut m[r]);
            }
        }
        pivot_col_of_row.push(col);
        row += 1;
        if row == rows {
            break;
        }
    }
    let pivot_cols = pivot_col_of_row.clone();
    let free_cols: Vec<usize> = (0..cols).filter(|c| !pivot_cols.contains(c)).collect();
    let mut basis = Vec::new();
    for &fc in &free_cols {
        let mut num: Vec<i128> = vec![0; cols];
        let mut den: Vec<i128> = vec![1; cols];
        num[fc] = 1;
        for (r, &pc) in pivot_col_of_row.iter().enumerate() {
            let pv = m[r][pc];
            let coeff = m[r][fc];
            if coeff != 0 {
                num[pc] = -coeff;
                den[pc] = pv;
            }
        }
        let mut l: i128 = 1;
        for &d in &den {
            l = lcm(l, d.abs().max(1));
        }
        let mut y: Vec<i64> = (0..cols)
            .map(|i| i64::try_from(num[i] * (l / den[i])).expect("coefficient overflow"))
            .collect();
        let g = y.iter().fold(0i64, |acc, &v| gcd64(acc, v.abs()));
        if g > 1 {
            for v in y.iter_mut() {
                *v /= g;
            }
        }
        if y.iter().find(|&&v| v != 0).map(|&v| v < 0).unwrap_or(false) {
            for v in y.iter_mut() {
                *v = -*v;
            }
        }
        basis.push(y);
    }
    basis
}

fn normalize_row(row: &mut [i128]) {
    let mut g: i128 = 0;
    for &v in row.iter() {
        g = gcd(g, v.abs());
    }
    if g > 1 {
        for v in row.iter_mut() {
            *v /= g;
        }
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn gcd64(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd64(b, a % b)
    }
}

fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        0
    } else {
        a / gcd(a, b) * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Transition;

    /// A simple cycle conserves its token: invariant (1, 1).
    #[test]
    fn cycle_is_conservative() {
        let mut net = Net::new("cycle");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        net.add_transition(Transition::new("ab").delay(1).input(a, 1).output(b, 1))
            .unwrap();
        net.add_transition(Transition::new("ba").delay(1).input(b, 1).output(a, 1))
            .unwrap();
        let basis = p_invariants(&net);
        assert_eq!(basis.len(), 1);
        assert!(is_invariant(&net, &basis[0]));
        assert_eq!(basis[0], vec![1, 1]);
        assert_eq!(weighted_tokens(&net.initial_marking(), &basis[0]), 1);
    }

    /// A producer (token multiplication) breaks conservation.
    #[test]
    fn producer_has_no_full_invariant() {
        let mut net = Net::new("prod");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        // A -> A + B : cannot conserve both A and B with nonzero weights.
        net.add_transition(
            Transition::new("t")
                .delay(1)
                .input(a, 1)
                .output(a, 1)
                .output(b, 1),
        )
        .unwrap();
        let basis = p_invariants(&net);
        // The only invariants have weight 0 on B... actually y_A*0 + y_B*1 =
        // 0 forces y_B = 0, leaving y = (1, 0).
        assert_eq!(basis.len(), 1);
        assert_eq!(basis[0], vec![1, 0]);
    }

    /// Weighted invariant: T consumes 2 of A, produces 1 of B -> y = (1, 2).
    #[test]
    fn weighted_invariant_found() {
        let mut net = Net::new("weighted");
        let a = net.add_place("A", 2);
        let b = net.add_place("B", 0);
        net.add_transition(Transition::new("fwd").delay(1).input(a, 2).output(b, 1))
            .unwrap();
        net.add_transition(Transition::new("rev").delay(1).input(b, 1).output(a, 2))
            .unwrap();
        let basis = p_invariants(&net);
        assert_eq!(basis.len(), 1);
        assert!(is_invariant(&net, &basis[0]));
        assert_eq!(basis[0], vec![1, 2]);
    }

    /// Two independent cycles: two-dimensional invariant space.
    #[test]
    fn independent_cycles_two_invariants() {
        let mut net = Net::new("two");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 1);
        net.add_transition(Transition::new("ta").delay(1).input(a, 1).output(a, 1))
            .unwrap();
        net.add_transition(Transition::new("tb").delay(1).input(b, 1).output(b, 1))
            .unwrap();
        let basis = p_invariants(&net);
        assert_eq!(basis.len(), 2);
        for y in &basis {
            assert!(is_invariant(&net, y));
        }
    }

    /// T-invariants: a plain cycle reproduces with firing vector (1, 1); a
    /// batching cycle (one transition moves tokens two at a time) needs the
    /// single-token transition to fire twice per batch.
    #[test]
    fn cycle_t_invariants() {
        let mut net = Net::new("cycle");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        net.add_transition(Transition::new("ab").delay(1).input(a, 1).output(b, 1))
            .unwrap();
        net.add_transition(Transition::new("ba").delay(1).input(b, 1).output(a, 1))
            .unwrap();
        let basis = t_invariants(&net);
        assert_eq!(basis.len(), 1);
        assert_eq!(basis[0], vec![1, 1]);

        let mut net = Net::new("batch");
        let a = net.add_place("A", 2);
        let b = net.add_place("B", 0);
        net.add_transition(Transition::new("ab").delay(1).input(a, 1).output(b, 1))
            .unwrap();
        net.add_transition(Transition::new("ba2").delay(1).input(b, 2).output(a, 2))
            .unwrap();
        let basis = t_invariants(&net);
        assert_eq!(basis.len(), 1);
        assert_eq!(basis[0], vec![2, 1]);
    }

    /// is_invariant rejects a non-invariant weighting.
    #[test]
    fn non_invariant_rejected() {
        let mut net = Net::new("n");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        net.add_transition(Transition::new("t").delay(1).input(a, 1).output(b, 2))
            .unwrap();
        assert!(!is_invariant(&net, &[1, 1]));
        assert!(is_invariant(&net, &[2, 1]));
    }
}

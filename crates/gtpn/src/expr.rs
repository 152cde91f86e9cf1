//! State-dependent expression language for frequency attributes.
//!
//! The paper's models gate transitions on the current marking and on whether
//! other transitions are in progress, e.g. Table 6.7:
//!
//! ```text
//! (NetIntr = 0) & !T4 & !T5  ->  1/1314.9, 0
//! ```
//!
//! meaning "frequency 1/1314.9 when the place `NetIntr` is empty and
//! transitions T4, T5 are not firing; 0 otherwise". [`Expr`] encodes exactly
//! this class of expressions; boolean results are represented as 1.0 / 0.0.

use crate::net::{PlaceId, TransId};
use std::fmt;

/// Evaluation context for an [`Expr`]: a marking plus the multiset of
/// in-progress firings (including transitions selected earlier in the same
/// instantaneous firing round, matching the paper's "host is busy" gating).
#[derive(Debug, Clone, Copy)]
pub struct EvalContext<'a> {
    /// Tokens per place.
    pub marking: &'a [u32],
    /// Number of in-progress firing instances per transition.
    pub firing: &'a [u32],
}

impl<'a> EvalContext<'a> {
    /// Creates a context from marking and firing-count slices.
    pub fn new(marking: &'a [u32], firing: &'a [u32]) -> Self {
        EvalContext { marking, firing }
    }
}

/// A state-dependent real-valued expression.
///
/// Comparison and boolean operators yield `1.0` (true) or `0.0` (false).
/// Expressions are evaluated against an [`EvalContext`].
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant value.
    Const(f64),
    /// Number of tokens in a place.
    Tokens(PlaceId),
    /// Number of in-progress firing instances of a transition.
    Firing(TransId),
    /// Sum of two sub-expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two sub-expressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two sub-expressions.
    Mul(Box<Expr>, Box<Expr>),
    /// Quotient of two sub-expressions (`0/0` evaluates to 0).
    Div(Box<Expr>, Box<Expr>),
    /// Equality test (`1.0` if equal within 1e-9).
    Eq(Box<Expr>, Box<Expr>),
    /// Less-than test.
    Lt(Box<Expr>, Box<Expr>),
    /// Less-or-equal test.
    Le(Box<Expr>, Box<Expr>),
    /// Logical conjunction of two boolean-valued sub-expressions.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation (`1.0` if operand is zero).
    Not(Box<Expr>),
    /// `If(c, a, b)`: `a` when `c` is non-zero, else `b` — the paper's
    /// `expr -> a, b` notation.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A constant expression.
    pub fn constant(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// The number of tokens in `place`.
    pub fn tokens(place: PlaceId) -> Expr {
        Expr::Tokens(place)
    }

    /// The number of in-progress firings of `transition`.
    pub fn firing(transition: TransId) -> Expr {
        Expr::Firing(transition)
    }

    /// `1.0` when `place` is empty — the paper's `(P = 0)` gate.
    pub fn place_empty(place: PlaceId) -> Expr {
        Expr::Eq(Box::new(Expr::Tokens(place)), Box::new(Expr::Const(0.0)))
    }

    /// `1.0` when `transition` is not firing — the paper's `!T` gate.
    pub fn not_firing(transition: TransId) -> Expr {
        Expr::Not(Box::new(Expr::Firing(transition)))
    }

    /// The paper's `cond -> value, 0` notation.
    pub fn gate(cond: Expr, value: Expr) -> Expr {
        Expr::If(Box::new(cond), Box::new(value), Box::new(Expr::Const(0.0)))
    }

    /// Conjunction of an arbitrary number of conditions.
    ///
    /// An empty slice yields the always-true constant `1.0`.
    pub fn all<I: IntoIterator<Item = Expr>>(conds: I) -> Expr {
        let mut iter = conds.into_iter();
        let first = match iter.next() {
            Some(e) => e,
            None => return Expr::Const(1.0),
        };
        iter.fold(first, |acc, e| Expr::And(Box::new(acc), Box::new(e)))
    }

    /// Builds `a.and(b)`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// Builds `a.or(b)`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// Evaluates the expression in `ctx`.
    pub fn eval(&self, ctx: EvalContext<'_>) -> f64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Tokens(p) => f64::from(ctx.marking.get(p.0).copied().unwrap_or(0)),
            Expr::Firing(t) => f64::from(ctx.firing.get(t.0).copied().unwrap_or(0)),
            Expr::Add(a, b) => a.eval(ctx) + b.eval(ctx),
            Expr::Sub(a, b) => a.eval(ctx) - b.eval(ctx),
            Expr::Mul(a, b) => a.eval(ctx) * b.eval(ctx),
            Expr::Div(a, b) => {
                let d = b.eval(ctx);
                if d == 0.0 {
                    0.0
                } else {
                    a.eval(ctx) / d
                }
            }
            Expr::Eq(a, b) => bool_val((a.eval(ctx) - b.eval(ctx)).abs() < 1e-9),
            Expr::Lt(a, b) => bool_val(a.eval(ctx) < b.eval(ctx)),
            Expr::Le(a, b) => bool_val(a.eval(ctx) <= b.eval(ctx)),
            Expr::And(a, b) => bool_val(a.eval(ctx) != 0.0 && b.eval(ctx) != 0.0),
            Expr::Or(a, b) => bool_val(a.eval(ctx) != 0.0 || b.eval(ctx) != 0.0),
            Expr::Not(a) => bool_val(a.eval(ctx) == 0.0),
            Expr::If(c, a, b) => {
                if c.eval(ctx) != 0.0 {
                    a.eval(ctx)
                } else {
                    b.eval(ctx)
                }
            }
        }
    }

    /// The first `Tokens` / `Firing` leaf, in evaluation order, that names a
    /// place `>= places` or a transition `>= transitions` — a reference
    /// [`eval`](Self::eval) would silently read as 0.
    pub(crate) fn first_unknown_leaf(&self, places: usize, transitions: usize) -> Option<&Expr> {
        match self {
            Expr::Const(_) => None,
            Expr::Tokens(p) => (p.0 >= places).then_some(self),
            Expr::Firing(t) => (t.0 >= transitions).then_some(self),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Eq(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => a
                .first_unknown_leaf(places, transitions)
                .or_else(|| b.first_unknown_leaf(places, transitions)),
            Expr::Not(a) => a.first_unknown_leaf(places, transitions),
            Expr::If(c, a, b) => c
                .first_unknown_leaf(places, transitions)
                .or_else(|| a.first_unknown_leaf(places, transitions))
                .or_else(|| b.first_unknown_leaf(places, transitions)),
        }
    }

    /// True when the expression cannot depend on the state (no `Tokens` /
    /// `Firing` leaves), so its value can be cached.
    pub fn is_constant(&self) -> bool {
        match self {
            Expr::Const(_) => true,
            Expr::Tokens(_) | Expr::Firing(_) => false,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Eq(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => a.is_constant() && b.is_constant(),
            Expr::Not(a) => a.is_constant(),
            Expr::If(c, a, b) => c.is_constant() && a.is_constant() && b.is_constant(),
        }
    }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Expr {
        Expr::Const(v)
    }
}

fn bool_val(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Tokens(p) => write!(f, "#P{}", p.0),
            Expr::Firing(t) => write!(f, "T{}", t.0),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Eq(a, b) => write!(f, "({a} = {b})"),
            Expr::Lt(a, b) => write!(f, "({a} < {b})"),
            Expr::Le(a, b) => write!(f, "({a} <= {b})"),
            Expr::And(a, b) => write!(f, "({a} & {b})"),
            Expr::Or(a, b) => write!(f, "({a} | {b})"),
            Expr::Not(a) => write!(f, "!{a}"),
            Expr::If(c, a, b) => write!(f, "({c} -> {a}, {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(marking: &'a [u32], firing: &'a [u32]) -> EvalContext<'a> {
        EvalContext::new(marking, firing)
    }

    #[test]
    fn constants_and_arithmetic() {
        let e = Expr::Add(Box::new(Expr::constant(2.0)), Box::new(Expr::constant(3.0)));
        assert_eq!(e.eval(ctx(&[], &[])), 5.0);
        assert!(e.is_constant());
    }

    #[test]
    fn marking_and_firing_lookups() {
        let e = Expr::tokens(PlaceId(1));
        assert_eq!(e.eval(ctx(&[4, 7], &[])), 7.0);
        let e = Expr::firing(TransId(0));
        assert_eq!(e.eval(ctx(&[], &[2])), 2.0);
        assert!(!e.is_constant());
    }

    #[test]
    fn paper_style_gate() {
        // (NetIntr = 0) & !T4 & !T5 -> 1/1314.9, 0
        let net_intr = PlaceId(0);
        let t4 = TransId(4);
        let t5 = TransId(5);
        let gate = Expr::gate(
            Expr::all([
                Expr::place_empty(net_intr),
                Expr::not_firing(t4),
                Expr::not_firing(t5),
            ]),
            Expr::constant(1.0 / 1314.9),
        );
        let mut firing = vec![0u32; 6];
        assert!((gate.eval(ctx(&[0], &firing)) - 1.0 / 1314.9).abs() < 1e-15);
        // Pending interrupt blocks the transition.
        assert_eq!(gate.eval(ctx(&[1], &firing)), 0.0);
        // Interrupt processing in progress blocks the transition.
        firing[4] = 1;
        assert_eq!(gate.eval(ctx(&[0], &firing)), 0.0);
    }

    #[test]
    fn division_by_zero_is_zero() {
        let e = Expr::Div(Box::new(Expr::constant(1.0)), Box::new(Expr::constant(0.0)));
        assert_eq!(e.eval(ctx(&[], &[])), 0.0);
    }

    #[test]
    fn out_of_range_lookups_are_zero() {
        assert_eq!(Expr::tokens(PlaceId(9)).eval(ctx(&[1], &[])), 0.0);
        assert_eq!(Expr::firing(TransId(9)).eval(ctx(&[], &[1])), 0.0);
    }

    #[test]
    fn display_round_trips_structure() {
        let e = Expr::gate(Expr::place_empty(PlaceId(0)), Expr::constant(0.5));
        let rendered = format!("{e}");
        assert!(rendered.contains("#P0"), "{rendered}");
        assert!(rendered.contains("-> 0.5, 0"), "{rendered}");
    }

    #[test]
    fn all_of_empty_is_true() {
        assert_eq!(Expr::all([]).eval(ctx(&[], &[])), 1.0);
    }
}

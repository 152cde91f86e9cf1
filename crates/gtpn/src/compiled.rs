//! A [`Net`] compiled once for expansion.
//!
//! The instantaneous phase ([`crate::reach`]) asks the same three questions
//! of every transition in every configuration: does the marking cover its
//! input demand, what is its frequency, and what marking does firing it
//! leave. [`CompiledNet`] answers them from flat per-transition tables
//! built once per reachability build: the aggregated demand of a multigraph
//! input list (the quadratic scan done here, not per configuration), the
//! output arcs, the delay, and the frequency either pre-evaluated (a
//! constant expression) or flattened to a postfix [`Op`] program that
//! indexes the marking directly — [`Net::validate`] has already rejected
//! every leaf outside the net.

use crate::expr::{EvalContext, Expr};
use crate::net::Net;

/// One transition of a [`CompiledNet`].
#[derive(Debug)]
pub(crate) struct CompiledTransition {
    /// For error messages.
    pub(crate) name: String,
    /// `(place, tokens needed)` per distinct input place: repeated arcs
    /// from one place are summed, so the enabling test and the token
    /// removal are one pass each.
    pub(crate) demand: Vec<(usize, u32)>,
    /// Output arcs `(place, multiplicity)`, as declared.
    pub(crate) outputs: Vec<(usize, u32)>,
    /// Firing duration.
    pub(crate) delay: u64,
    frequency: Frequency,
}

#[derive(Debug)]
enum Frequency {
    /// A state-independent expression, evaluated at compile time.
    Constant(f64),
    /// A state-dependent expression in postfix order.
    Program(Vec<Op>),
}

/// One postfix instruction; operands are popped right to left.
#[derive(Debug, Clone, Copy)]
enum Op {
    Const(f64),
    Tokens(usize),
    Firing(usize),
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Lt,
    Le,
    And,
    Or,
    Not,
    If,
}

/// The net's transitions in id order, compiled; see the module docs.
#[derive(Debug)]
pub(crate) struct CompiledNet {
    pub(crate) places: usize,
    pub(crate) transitions: Vec<CompiledTransition>,
}

impl CompiledNet {
    /// Compiles `net`, which must have passed [`Net::validate`].
    pub(crate) fn new(net: &Net) -> CompiledNet {
        let transitions = net
            .transitions
            .iter()
            .map(|t| {
                let mut demand: Vec<(usize, u32)> = Vec::with_capacity(t.inputs.len());
                for &(p, m) in &t.inputs {
                    match demand.iter_mut().find(|(q, _)| *q == p.0) {
                        Some((_, needed)) => *needed += m,
                        None => demand.push((p.0, m)),
                    }
                }
                let frequency = if t.frequency.is_constant() {
                    Frequency::Constant(t.frequency.eval(EvalContext::new(&[], &[])))
                } else {
                    let mut program = Vec::new();
                    flatten(&t.frequency, &mut program);
                    Frequency::Program(program)
                };
                CompiledTransition {
                    name: t.name.clone(),
                    demand,
                    outputs: t.outputs.iter().map(|&(p, m)| (p.0, m)).collect(),
                    delay: t.delay,
                    frequency,
                }
            })
            .collect();
        CompiledNet {
            places: net.place_count(),
            transitions,
        }
    }
}

impl CompiledTransition {
    /// Whether `marking` covers the aggregated input demand.
    #[inline]
    pub(crate) fn has_tokens(&self, marking: &[u32]) -> bool {
        self.demand.iter().all(|&(p, needed)| marking[p] >= needed)
    }

    /// The frequency under `marking` and per-transition `firing` counts —
    /// the value [`Expr::eval`] returns for the same context, bit for bit:
    /// the operators are pure, so evaluating both arms of a conditional or
    /// both sides of a short-circuit changes no result. `stack` is scratch.
    #[inline]
    pub(crate) fn frequency(&self, marking: &[u32], firing: &[u32], stack: &mut Vec<f64>) -> f64 {
        match &self.frequency {
            Frequency::Constant(w) => *w,
            Frequency::Program(program) => run(program, marking, firing, stack),
        }
    }
}

/// Appends `e` to `out` in postfix order.
fn flatten(e: &Expr, out: &mut Vec<Op>) {
    let (operands, op): (&[&Expr], Op) = match e {
        Expr::Const(v) => (&[], Op::Const(*v)),
        Expr::Tokens(p) => (&[], Op::Tokens(p.0)),
        Expr::Firing(t) => (&[], Op::Firing(t.0)),
        Expr::Add(a, b) => (&[a, b], Op::Add),
        Expr::Sub(a, b) => (&[a, b], Op::Sub),
        Expr::Mul(a, b) => (&[a, b], Op::Mul),
        Expr::Div(a, b) => (&[a, b], Op::Div),
        Expr::Eq(a, b) => (&[a, b], Op::Eq),
        Expr::Lt(a, b) => (&[a, b], Op::Lt),
        Expr::Le(a, b) => (&[a, b], Op::Le),
        Expr::And(a, b) => (&[a, b], Op::And),
        Expr::Or(a, b) => (&[a, b], Op::Or),
        Expr::Not(a) => (&[a], Op::Not),
        Expr::If(c, a, b) => (&[c, a, b], Op::If),
    };
    for operand in operands {
        flatten(operand, out);
    }
    out.push(op);
}

fn run(program: &[Op], marking: &[u32], firing: &[u32], stack: &mut Vec<f64>) -> f64 {
    fn truth(b: bool) -> f64 {
        if b {
            1.0
        } else {
            0.0
        }
    }
    stack.clear();
    for &op in program {
        let mut pop = || stack.pop().expect("well-formed postfix program");
        let v = match op {
            Op::Const(v) => v,
            Op::Tokens(p) => f64::from(marking[p]),
            Op::Firing(t) => f64::from(firing[t]),
            Op::Not => truth(pop() == 0.0),
            Op::If => {
                let (otherwise, then, cond) = (pop(), pop(), pop());
                if cond != 0.0 {
                    then
                } else {
                    otherwise
                }
            }
            binary => {
                let (b, a) = (pop(), pop());
                match binary {
                    Op::Add => a + b,
                    Op::Sub => a - b,
                    Op::Mul => a * b,
                    Op::Div => {
                        if b == 0.0 {
                            0.0
                        } else {
                            a / b
                        }
                    }
                    Op::Eq => truth((a - b).abs() < 1e-9),
                    Op::Lt => truth(a < b),
                    Op::Le => truth(a <= b),
                    Op::And => truth(a != 0.0 && b != 0.0),
                    Op::Or => truth(a != 0.0 || b != 0.0),
                    _ => unreachable!("leaves and unary operators are matched above"),
                }
            }
        };
        stack.push(v);
    }
    stack
        .pop()
        .expect("a program leaves its value on the stack")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{PlaceId, TransId, Transition};

    /// The postfix program returns the tree walk's bits on every operator,
    /// including the guarded division and a NaN-producing operand.
    #[test]
    fn program_matches_tree_walk() {
        let b = |e: Expr| Box::new(e);
        let p0 = || Expr::tokens(PlaceId(0));
        let t1 = || Expr::firing(TransId(1));
        let exprs = [
            Expr::gate(
                Expr::all([
                    Expr::place_empty(PlaceId(0)),
                    Expr::not_firing(TransId(0)),
                    Expr::not_firing(TransId(1)),
                ]),
                Expr::constant(1.0 / 1314.9),
            ),
            Expr::Div(b(p0()), b(t1())),
            Expr::If(
                b(Expr::Lt(b(t1()), b(p0()))),
                b(Expr::Sub(
                    b(p0()),
                    b(Expr::Mul(b(t1()), b(Expr::constant(0.3)))),
                )),
                b(Expr::Add(b(t1()), b(Expr::constant(0.1)))),
            ),
            Expr::Le(b(p0()), b(t1())).or(Expr::Eq(b(p0()), b(Expr::constant(2.0)))),
            // 0 · ∞ is NaN when P0 is empty: it must flow through identically.
            Expr::Mul(b(p0()), b(Expr::constant(f64::INFINITY)))
                .and(Expr::Div(b(Expr::constant(1.0)), b(p0()))),
            Expr::Not(b(Expr::Mul(b(p0()), b(Expr::constant(f64::INFINITY))))),
        ];
        let mut net = Net::new("ops");
        let p = net.add_place("P", 0);
        for (i, e) in exprs.iter().enumerate() {
            net.add_transition(
                Transition::new(format!("T{i}"))
                    .frequency(e.clone())
                    .input(p, 1),
            )
            .unwrap();
        }
        let compiled = CompiledNet::new(&net);
        let mut stack = Vec::new();
        for marking in [[0u32], [1], [2], [5]] {
            for firing in [[0u32, 0], [1, 0], [0, 2], [3, 1]] {
                let firing: Vec<u32> = firing.iter().copied().chain([0, 0, 0]).collect();
                for (t, e) in compiled.transitions.iter().zip(&exprs) {
                    let want = e.eval(EvalContext::new(&marking, &firing));
                    let got = t.frequency(&marking, &firing, &mut stack);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{e} at {marking:?} {firing:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn multigraph_demand_is_aggregated() {
        let mut net = Net::new("multi");
        let a = net.add_place("A", 2);
        let b = net.add_place("B", 0);
        net.add_transition(
            Transition::new("T")
                .input(a, 1)
                .input(b, 3)
                .input(a, 1)
                .output(b, 1),
        )
        .unwrap();
        let t = &CompiledNet::new(&net).transitions[0];
        assert_eq!(t.demand, vec![(0, 2), (1, 3)]);
        assert!(t.has_tokens(&[2, 3]) && !t.has_tokens(&[1, 3]));
    }
}

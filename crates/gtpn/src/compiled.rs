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
//!
//! The same walk splits a net into its [`Shape`] — everything the chain's
//! states, edges and control flow depend on — and its rates, the values
//! that only weigh the edges. A re-priceable transition also compiles a
//! *slot program*: its frequency with every rate replaced by that rate's
//! slot number, so a recording build can note which rate each enabled
//! transition drew (see `crate::reach`'s skeletons).
//!
//! Each transition's demand is ordered scarce place first (ascending
//! initial marking), so the enabling test usually fails on a processor
//! token before it reads a client count — which is what lets the phase memo
//! of `crate::reach` ignore those counts ([`CompiledNet::clamp`]).

use crate::expr::{EvalContext, Expr};
use crate::net::Net;

/// One transition of a [`CompiledNet`].
#[derive(Debug)]
pub(crate) struct CompiledTransition {
    /// For error messages.
    pub(crate) name: String,
    /// `(place, tokens needed)` per distinct input place, scarce place
    /// first: repeated arcs from one place are summed, so the enabling
    /// test and the token removal are one pass each.
    pub(crate) demand: Vec<(usize, u32)>,
    /// Output arcs `(place, multiplicity)`, as declared.
    pub(crate) outputs: Vec<(usize, u32)>,
    /// Firing duration.
    pub(crate) delay: u64,
    frequency: Frequency,
    /// The slot program when every frequency of the net is re-priceable.
    slot: Option<Frequency>,
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

impl Op {
    /// Appends the instruction to a [`Shape`] key: a tag, then the
    /// operand of a leaf (a constant by its bits).
    fn encode(self, key: &mut Vec<u64>) {
        let (tag, operand) = match self {
            Op::Const(v) => (0, Some(v.to_bits())),
            Op::Tokens(p) => (1, Some(p as u64)),
            Op::Firing(t) => (2, Some(t as u64)),
            Op::Add => (3, None),
            Op::Sub => (4, None),
            Op::Mul => (5, None),
            Op::Div => (6, None),
            Op::Eq => (7, None),
            Op::Lt => (8, None),
            Op::Le => (9, None),
            Op::And => (10, None),
            Op::Or => (11, None),
            Op::Not => (12, None),
            Op::If => (13, None),
        };
        key.push(tag);
        key.extend(operand);
    }
}

/// The net's transitions in id order, compiled; see the module docs.
#[derive(Debug)]
pub(crate) struct CompiledNet {
    pub(crate) places: usize,
    pub(crate) transitions: Vec<CompiledTransition>,
    /// Per place, the count above which a phase memo starts out not telling
    /// start markings apart: `u32::MAX` (never) for a place a frequency or
    /// slot program reads, else the place's largest single demand — every
    /// enabling test of a phase that has not consumed from the place
    /// answers alike above it ([`raise_clamp`](Self::raise_clamp)).
    pub(crate) clamp: Vec<u32>,
    /// Per place, the enabling tests that read it: `(transition, index in
    /// its demand)`.
    tested_by: Vec<Vec<(usize, usize)>>,
}

impl CompiledNet {
    /// Compiles `net`, which must have passed [`Net::validate`].
    pub(crate) fn new(net: &Net) -> CompiledNet {
        let initial = net.initial_marking();
        let mut programs = Vec::with_capacity(net.transition_count());
        let mut slots = Shape::walk(net, Some(&mut programs)).map(|_| programs.into_iter());
        let transitions: Vec<CompiledTransition> = net
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
                demand.sort_by_key(|&(p, _)| initial[p]);
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
                    slot: slots.as_mut().and_then(Iterator::next),
                }
            })
            .collect();
        let mut clamp = vec![0; net.place_count()];
        let mut tested_by = vec![Vec::new(); net.place_count()];
        for (ti, t) in transitions.iter().enumerate() {
            for (k, &(p, needed)) in t.demand.iter().enumerate() {
                clamp[p] = clamp[p].max(needed);
                tested_by[p].push((ti, k));
            }
            for program in [Some(&t.frequency), t.slot.as_ref()].into_iter().flatten() {
                if let Frequency::Program(ops) = program {
                    for op in ops {
                        if let Op::Tokens(p) = *op {
                            clamp[p] = u32::MAX;
                        }
                    }
                }
            }
        }
        CompiledNet {
            places: net.place_count(),
            transitions,
            clamp,
            tested_by,
        }
    }

    /// Raises `clamp[p]` for a configuration `marking` of a phase from
    /// `start` that has consumed from `p`.
    ///
    /// An enabling test ([`CompiledTransition::has_tokens`]) of the
    /// configuration reads `p` when every place before it in the
    /// transition's demand is covered, and answers alike for every start
    /// count of `p` at or above `needed − (marking − start)`. A memo that
    /// tells starts apart only up to the clamp must raise it to that
    /// threshold. Only a test after consumption can need more than the
    /// largest single demand, where the clamp starts.
    pub(crate) fn raise_clamp(&self, p: usize, marking: &[u32], start: &[u32], clamp: &mut [u32]) {
        let consumed = start[p].saturating_sub(marking[p]);
        for &(t, k) in &self.tested_by[p] {
            let demand = &self.transitions[t].demand;
            if demand[..k].iter().all(|&(q, needed)| marking[q] >= needed) {
                clamp[p] = clamp[p].max(demand[k].1.saturating_add(consumed));
            }
        }
    }
}

/// A net's rate-free shape and its rates.
///
/// A frequency is *re-priceable* when it is state-independent — one rate —
/// or an `If(cond, a, b)` tree whose leaves `a`, `b` are re-priceable: the
/// conditions choose which rate applies, the rates only weigh. Rates are
/// numbered (*slots*) in transition order, each tree's leaves left to
/// right. The key holds the place count, the initial marking and, per
/// transition, its delay, its arcs and its frequency with every rate
/// replaced by the rate's class — zero or positive and finite — and every
/// condition kept verbatim, constants included. Two nets with equal keys
/// have the same chain up to edge probabilities, as long as the same
/// transitions clear the probability floor (`crate::reach`); resource
/// labels and names are not part of it.
#[derive(Debug)]
pub(crate) struct Shape {
    /// The rate-free form, as a word string; equal strings are equal
    /// shapes (every part is tagged or length-prefixed).
    pub(crate) key: Vec<u64>,
    /// Each slot's rate, in slot order.
    pub(crate) rates: Vec<f64>,
}

/// Key words opening a frequency form. A condition follows its word as
/// its postfix length and ops ([`Op::encode`]), then its two branches.
const ZERO_RATE: u64 = 0;
const POSITIVE_RATE: u64 = 1;
const CONDITION: u64 = 2;

impl Shape {
    /// The shape of `net`, or `None` when some frequency is not
    /// re-priceable or some rate is negative or not finite.
    pub(crate) fn of(net: &Net) -> Option<Shape> {
        Shape::walk(net, None)
    }

    /// The shape, and into `slots`, when given, each transition's slot
    /// program.
    fn walk(net: &Net, mut slots: Option<&mut Vec<Frequency>>) -> Option<Shape> {
        let mut key = vec![net.place_count() as u64];
        key.extend(net.initial_marking().into_iter().map(u64::from));
        key.push(net.transition_count() as u64);
        let mut rates = Vec::new();
        let mut program = Vec::new();
        let arcs = |key: &mut Vec<u64>, arcs: &[(crate::net::PlaceId, u32)]| {
            key.push(arcs.len() as u64);
            key.extend(arcs.iter().map(|&(p, m)| (p.0 as u64) << 32 | u64::from(m)));
        };
        for t in &net.transitions {
            key.push(t.delay);
            arcs(&mut key, &t.inputs);
            arcs(&mut key, &t.outputs);
            program.clear();
            if !rate_form(&t.frequency, &mut key, &mut rates, &mut program) {
                return None;
            }
            if let Some(slots) = slots.as_deref_mut() {
                slots.push(match program[..] {
                    [Op::Const(slot)] => Frequency::Constant(slot),
                    _ => Frequency::Program(program.clone()),
                });
            }
        }
        Some(Shape { key, rates })
    }
}

/// Walks `e` as a re-priceable tree: appends its rate-free form to `key`,
/// its rates to `rates` and its slot program to `slot`. False when it is
/// not re-priceable or a rate is negative or not finite.
fn rate_form(e: &Expr, key: &mut Vec<u64>, rates: &mut Vec<f64>, slot: &mut Vec<Op>) -> bool {
    if e.is_constant() {
        let v = e.eval(EvalContext::new(&[], &[]));
        if v == 0.0 {
            key.push(ZERO_RATE);
        } else if v > 0.0 && v.is_finite() {
            key.push(POSITIVE_RATE);
        } else {
            return false;
        }
        slot.push(Op::Const(rates.len() as f64));
        rates.push(v);
        return true;
    }
    let Expr::If(cond, a, b) = e else {
        return false;
    };
    key.push(CONDITION);
    let start = slot.len();
    flatten(cond, slot);
    key.push((slot.len() - start) as u64);
    for op in &slot[start..] {
        op.encode(key);
    }
    let ok = rate_form(a, key, rates, slot) && rate_form(b, key, rates, slot);
    slot.push(Op::If);
    ok
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

    /// The rate slot [`frequency`](Self::frequency) draws from under the
    /// same context — the leaf its conditions select.
    ///
    /// # Panics
    ///
    /// Panics unless every frequency of the net is re-priceable.
    pub(crate) fn slot(&self, marking: &[u32], firing: &[u32], stack: &mut Vec<f64>) -> u32 {
        let slot = match self.slot.as_ref().expect("a re-priceable net") {
            Frequency::Constant(slot) => *slot,
            Frequency::Program(program) => run(program, marking, firing, stack),
        };
        slot as u32
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
        let p0 = || Expr::Tokens(PlaceId(0));
        let t1 = || Expr::Firing(TransId(1));
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
            Expr::Or(
                b(Expr::Le(b(p0()), b(t1()))),
                b(Expr::Eq(b(p0()), b(Expr::constant(2.0)))),
            ),
            // 0 · ∞ is NaN when P0 is empty: it must flow through identically.
            Expr::And(
                b(Expr::Mul(b(p0()), b(Expr::constant(f64::INFINITY)))),
                b(Expr::Div(b(Expr::constant(1.0)), b(p0()))),
            ),
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
        // Scarce first: B starts empty, A with two tokens.
        assert_eq!(t.demand, vec![(1, 3), (0, 2)]);
        assert!(t.has_tokens(&[2, 3]) && !t.has_tokens(&[1, 3]));
    }

    /// The clamp starts at each place's largest single demand, places a
    /// program reads stay exact, and a test the configuration evaluates
    /// after the phase consumed from a place raises its clamp to the start
    /// count that test needed.
    #[test]
    fn clamp_seeds_and_grows_where_tokens_were_consumed() {
        let mut net = Net::new("clamp");
        let a = net.add_place("A", 4);
        let b = net.add_place("B", 1);
        let c = net.add_place("C", 0);
        net.add_transition(Transition::new("T0").input(a, 2).input(b, 1))
            .unwrap();
        net.add_transition(Transition::new("T1").input(a, 1).output(c, 1))
            .unwrap();
        net.add_transition(Transition::new("T2").input(c, 1).frequency(Expr::Tokens(c)))
            .unwrap();
        let compiled = CompiledNet::new(&net);
        assert_eq!(compiled.clamp, vec![2, 1, u32::MAX]);
        assert_eq!(compiled.transitions[0].demand, vec![(1, 1), (0, 2)]);
        let start = [5, 1, 0];
        // From A = 5 the phase took three tokens; T0 asks for two more,
        // which a start of at least 2 + 3 would have held, T1 for one.
        let mut clamp = compiled.clamp.clone();
        compiled.raise_clamp(0, &[2, 1, 0], &start, &mut clamp);
        assert_eq!(clamp, vec![5, 1, u32::MAX]);
        // Short on B, T0 never reads A: T1's test alone counts.
        let mut clamp = compiled.clamp.clone();
        compiled.raise_clamp(0, &[2, 0, 0], &start, &mut clamp);
        assert_eq!(clamp, vec![4, 1, u32::MAX]);
        compiled.raise_clamp(1, &[2, 0, 0], &start, &mut clamp);
        assert_eq!(clamp, vec![4, 2, u32::MAX]);
    }
}

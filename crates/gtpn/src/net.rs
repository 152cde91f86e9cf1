//! Net structure: places, transitions, arcs.

use crate::error::GtpnError;
use crate::expr::Expr;
use std::fmt;

/// Identifier of a place within a [`Net`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub usize);

/// Identifier of a transition within a [`Net`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransId(pub usize);

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for TransId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlaceDef {
    pub name: String,
    pub initial: u32,
}

/// A transition description: inputs, outputs and the GTPN attribute vector
/// (delay, frequency, resource).
///
/// Built with a consuming builder style:
///
/// ```
/// # use gtpn::{Net, Transition, Expr};
/// # let mut net = Net::new("n");
/// # let p = net.add_place("p", 1);
/// let t = Transition::new("T0")
///     .delay(1)
///     .frequency(Expr::constant(0.25))
///     .resource("lambda")
///     .input(p, 1)
///     .output(p, 1);
/// net.add_transition(t)?;
/// # Ok::<(), gtpn::GtpnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    pub(crate) name: String,
    pub(crate) delay: u64,
    pub(crate) frequency: Expr,
    pub(crate) resource: Option<String>,
    pub(crate) inputs: Vec<(PlaceId, u32)>,
    pub(crate) outputs: Vec<(PlaceId, u32)>,
}

impl Transition {
    /// Creates a transition with delay 0, frequency 1 and no arcs.
    pub fn new(name: impl Into<String>) -> Transition {
        Transition {
            name: name.into(),
            delay: 0,
            frequency: Expr::Const(1.0),
            resource: None,
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Sets the deterministic firing duration in integer time units.
    pub fn delay(mut self, delay: u64) -> Transition {
        self.delay = delay;
        self
    }

    /// Sets the frequency attribute (may be state-dependent).
    pub fn frequency(mut self, frequency: impl Into<Expr>) -> Transition {
        self.frequency = frequency.into();
        self
    }

    /// Attaches a resource label; the analyzer reports its mean usage.
    pub fn resource(mut self, resource: impl Into<String>) -> Transition {
        self.resource = Some(resource.into());
        self
    }

    /// Adds an input arc of the given multiplicity.
    pub fn input(mut self, place: PlaceId, multiplicity: u32) -> Transition {
        self.inputs.push((place, multiplicity));
        self
    }

    /// Adds an output arc of the given multiplicity.
    pub fn output(mut self, place: PlaceId, multiplicity: u32) -> Transition {
        self.outputs.push((place, multiplicity));
        self
    }
}

/// A Generalized Timed Petri Net.
///
/// Equality is structural — same places, transitions, arcs, delays and
/// frequency expressions — and is what the reachability cache
/// ([`crate::cache`]) uses to recognize a net it has already expanded.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    name: String,
    pub(crate) places: Vec<PlaceDef>,
    pub(crate) transitions: Vec<Transition>,
}

impl Net {
    /// Creates an empty net.
    pub fn new(name: impl Into<String>) -> Net {
        Net {
            name: name.into(),
            places: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a place with the given initial marking and returns its id.
    pub fn add_place(&mut self, name: impl Into<String>, initial: u32) -> PlaceId {
        self.places.push(PlaceDef {
            name: name.into(),
            initial,
        });
        PlaceId(self.places.len() - 1)
    }

    /// Adds a transition and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`GtpnError::UnknownPlace`] if an arc references a place that
    /// has not been added to this net.
    pub fn add_transition(&mut self, transition: Transition) -> Result<TransId, GtpnError> {
        for &(p, _) in transition.inputs.iter().chain(transition.outputs.iter()) {
            if p.0 >= self.places.len() {
                return Err(GtpnError::UnknownPlace {
                    transition: transition.name.clone(),
                    place: p.0,
                });
            }
        }
        self.transitions.push(transition);
        Ok(TransId(self.transitions.len() - 1))
    }

    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Name of a place.
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to this net.
    pub fn place_name(&self, place: PlaceId) -> &str {
        &self.places[place.0].name
    }

    /// Name of a transition.
    ///
    /// # Panics
    ///
    /// Panics if `transition` does not belong to this net.
    pub fn transition_name(&self, transition: TransId) -> &str {
        &self.transitions[transition.0].name
    }

    /// Delay attribute of a transition.
    ///
    /// # Panics
    ///
    /// Panics if `transition` does not belong to this net.
    pub fn transition_delay(&self, transition: TransId) -> u64 {
        self.transitions[transition.0].delay
    }

    /// Output arcs `(place, multiplicity)` of a transition — the tokens it
    /// deposits at end-of-firing.
    ///
    /// # Panics
    ///
    /// Panics if `transition` does not belong to this net.
    pub fn transition_outputs(&self, transition: TransId) -> &[(PlaceId, u32)] {
        &self.transitions[transition.0].outputs
    }

    /// Looks up a transition id by name (first match).
    pub fn transition_by_name(&self, name: &str) -> Option<TransId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(TransId)
    }

    /// Looks up a place id by name (first match).
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.places.iter().position(|p| p.name == name).map(PlaceId)
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> Vec<u32> {
        self.places.iter().map(|p| p.initial).collect()
    }

    /// All distinct resource labels, in order of first appearance.
    pub fn resources(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for t in &self.transitions {
            if let Some(r) = &t.resource {
                if !out.contains(&r.as_str()) {
                    out.push(r);
                }
            }
        }
        out
    }

    /// The incidence matrix `C[t][p] = outputs(t, p) - inputs(t, p)`.
    pub fn incidence_matrix(&self) -> Vec<Vec<i64>> {
        let mut c = vec![vec![0i64; self.places.len()]; self.transitions.len()];
        for (ti, t) in self.transitions.iter().enumerate() {
            for &(p, m) in &t.inputs {
                c[ti][p.0] -= i64::from(m);
            }
            for &(p, m) in &t.outputs {
                c[ti][p.0] += i64::from(m);
            }
        }
        c
    }

    /// Validates the net: non-empty, and every place or transition a
    /// frequency expression names belongs to the net. (Arcs are checked by
    /// [`add_transition`](Self::add_transition); expressions cannot be,
    /// because a gate may legitimately name a transition added later.)
    ///
    /// # Errors
    ///
    /// * [`GtpnError::EmptyNet`] when the net has no places or no
    ///   transitions.
    /// * [`GtpnError::UnknownPlace`] / [`GtpnError::UnknownTransition`]
    ///   when a frequency expression has a `Tokens` / `Firing` leaf outside
    ///   the net — which evaluation would otherwise read as a silent 0.
    pub fn validate(&self) -> Result<(), GtpnError> {
        if self.places.is_empty() || self.transitions.is_empty() {
            return Err(GtpnError::EmptyNet);
        }
        for t in &self.transitions {
            match t
                .frequency
                .first_unknown_leaf(self.places.len(), self.transitions.len())
            {
                Some(Expr::Tokens(p)) => {
                    return Err(GtpnError::UnknownPlace {
                        transition: t.name.clone(),
                        place: p.0,
                    })
                }
                Some(Expr::Firing(f)) => {
                    return Err(GtpnError::UnknownTransition {
                        transition: t.name.clone(),
                        referenced: f.0,
                    })
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut net = Net::new("test");
        let a = net.add_place("A", 2);
        let b = net.add_place("B", 0);
        let t = net
            .add_transition(Transition::new("T0").delay(3).input(a, 1).output(b, 2))
            .unwrap();
        assert_eq!(net.place_count(), 2);
        assert_eq!(net.transition_count(), 1);
        assert_eq!(net.place_name(a), "A");
        assert_eq!(net.transition_name(t), "T0");
        assert_eq!(net.transition_delay(t), 3);
        assert_eq!(net.initial_marking(), vec![2, 0]);
        assert_eq!(net.place_by_name("B"), Some(b));
        assert_eq!(net.transition_by_name("T0"), Some(t));
        assert_eq!(net.transition_by_name("nope"), None);
    }

    #[test]
    fn unknown_place_rejected() {
        let mut net = Net::new("test");
        let err = net
            .add_transition(Transition::new("T0").input(PlaceId(5), 1))
            .unwrap_err();
        assert!(matches!(err, GtpnError::UnknownPlace { place: 5, .. }));
    }

    #[test]
    fn incidence_matrix_signs() {
        let mut net = Net::new("test");
        let a = net.add_place("A", 1);
        let b = net.add_place("B", 0);
        net.add_transition(Transition::new("T0").input(a, 2).output(b, 3))
            .unwrap();
        assert_eq!(net.incidence_matrix(), vec![vec![-2, 3]]);
    }

    #[test]
    fn resources_deduplicated_in_order() {
        let mut net = Net::new("test");
        let a = net.add_place("A", 1);
        net.add_transition(Transition::new("T0").resource("x").input(a, 1))
            .unwrap();
        net.add_transition(Transition::new("T1").resource("y").input(a, 1))
            .unwrap();
        net.add_transition(Transition::new("T2").resource("x").input(a, 1))
            .unwrap();
        assert_eq!(net.resources(), vec!["x", "y"]);
    }

    #[test]
    fn empty_net_invalid() {
        assert!(Net::new("e").validate().is_err());
    }

    /// A frequency that names a place or transition outside the net is an
    /// error at validation — evaluation would read it as a silent 0, turning
    /// a mistyped gate `!T99` always-true — from every road into analysis:
    /// the raw build, the lumped build, the DES backend and the engine. A
    /// gate on a transition added *after* the gated one stays legitimate.
    #[test]
    fn unknown_expression_leaves_are_rejected() {
        use crate::engine::{AnalysisEngine, BackendSel, EngineConfig};
        use crate::expr::Expr;
        use crate::par::ParallelBudget;

        let build = |frequency: Expr| {
            let mut net = Net::new("leaves");
            let a = net.add_place("A", 1);
            net.add_transition(
                Transition::new("gated")
                    .delay(1)
                    .frequency(frequency)
                    .input(a, 1)
                    .output(a, 1),
            )
            .unwrap();
            net.add_transition(Transition::new("later").delay(1).input(a, 1).output(a, 1))
                .unwrap();
            net
        };
        let place = build(Expr::Mul(
            Box::new(Expr::tokens(PlaceId(99))),
            Box::new(Expr::constant(0.5)),
        ));
        let want_place = GtpnError::UnknownPlace {
            transition: "gated".into(),
            place: 99,
        };
        let transition = build(Expr::gate(
            Expr::not_firing(TransId(99)),
            Expr::constant(0.5),
        ));
        let want_transition = GtpnError::UnknownTransition {
            transition: "gated".into(),
            referenced: 99,
        };
        for (net, want) in [(&place, &want_place), (&transition, &want_transition)] {
            assert_eq!(net.validate().as_ref(), Err(want));
            assert_eq!(net.reachability(100).err().as_ref(), Some(want));
            let lumped = crate::lump::reach_lumped_budgeted(net, 100, &ParallelBudget::serial());
            assert_eq!(lumped.err().as_ref(), Some(want));
            assert!(!crate::lump::lumpable(net));
            for backend in [BackendSel::Exact, BackendSel::Des, BackendSel::Auto] {
                let engine = AnalysisEngine::new(EngineConfig {
                    backend,
                    ..EngineConfig::default()
                })
                .with_cache(4);
                assert_eq!(
                    engine.analyze(net).err().as_ref(),
                    Some(want),
                    "{backend:?}"
                );
            }
        }

        // `later` (id 1) does not exist yet when `gated` is added, and the
        // gate works: with two tokens, `gated` (0.5 unless `later` fires)
        // against `later` (1.0), both tokens go to `later` with probability
        // 2/3 · 1 — it would be 2/3 · 2/3 were the gate read as always true.
        let mut forward = build(Expr::gate(
            Expr::not_firing(TransId(1)),
            Expr::constant(0.5),
        ));
        forward.places[0].initial = 2;
        assert_eq!(forward.validate(), Ok(()));
        let g = forward.reachability(100).unwrap();
        let both_later = (0..g.state_count())
            .find(|&i| g.firings(i) == [(TransId(1), 1), (TransId(1), 1)])
            .expect("both tokens can go to `later`");
        let p = g
            .out_edges(0)
            .iter()
            .find(|&&(j, _)| j == both_later)
            .unwrap()
            .1;
        assert!((p - 2.0 / 3.0).abs() < 1e-12, "gate ignored? p = {p}");
        let engine = AnalysisEngine::new(EngineConfig::default()).with_cache(4);
        assert!(engine.analyze(&forward).is_ok());
    }

    #[test]
    fn multigraph_arcs_accumulate() {
        // Two arcs from the same place behave like multiplicity 2.
        let mut net = Net::new("test");
        let a = net.add_place("A", 2);
        net.add_transition(Transition::new("T0").input(a, 1).input(a, 1))
            .unwrap();
        let c = net.incidence_matrix();
        assert_eq!(c[0][0], -2);
    }
}

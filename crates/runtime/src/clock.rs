//! Pluggable time: the live stack runs on a [`ClockSystem`] that is either
//! the wall clock or a conservative discrete-event virtual clock.
//!
//! # Real mode
//!
//! [`ClockMode::Real`] reproduces the original runtime behavior: occupancy
//! spins (short activities) or sleeps (long ones) for the activity's
//! wall-clock time, timestamps come from [`Instant`], and idle threads park
//! on a condvar-backed [`Bell`] with a timeout. Real occupancy additionally
//! records *sleep overshoot* per activity class — the OS never wakes a
//! sleeper exactly on time, and the requested-vs-actual ledger
//! (`ClockSystem::overshoot_report`) puts error bars on every real-time
//! measurement.
//!
//! # Virtual mode
//!
//! [`ClockMode::Virtual`] replaces waiting with bookkeeping, and threads
//! with futures. Every processor of the live runtime registers as an
//! *actor* with its own logical clock and runs as one `std` future; the
//! clock operations that can give up the processor
//! ([`ClockHandle::attach`], `occupy_us`, [`ClockHandle::sleep`],
//! [`ClockHandle::wait_past`]) are `async` and are the only suspension
//! points. [`ClockSystem::run_actors`] polls the futures on the calling
//! thread — always the one actor that holds the *execution token*:
//!
//! * **Frontier rule.** The token goes to the minimum `(clock, actor_id)`
//!   among runnable actors. An actor may only act at time `t` once every
//!   peer has committed to a clock `>= t` (peers blocked on a [`Bell`] are
//!   exempt: any future wake they receive carries the ringer's clock, which
//!   is `>=` the frontier, so no event in their past can still be
//!   generated). An actor that is still the minimum after advancing keeps
//!   the token and never suspends. The runnable actors sit in a binary
//!   min-heap keyed by `(clock, actor_id)`, each at most once, so a grant
//!   is one `O(log n)` pop. The holder's id lives in one atomic word,
//!   written under the lock at every grant and read without it by the
//!   executor and every token check.
//! * **Rendezvous.** Ringing a [`Bell`] stamps the ring with the ringer's
//!   clock and makes every actor blocked on that bell runnable *at the ring
//!   time*: a woken waiter's clock jumps forward to the instant the work
//!   arrived. Because the executing actor is always the frontier minimum,
//!   ring timestamps are non-decreasing, so the first ring a blocked actor
//!   receives is also the earliest — it can never miss an earlier event.
//! * **Determinism.** One thread polls one future at a time, and which one
//!   is a function of the registered order and the logical clocks alone —
//!   the heap's keys are unique, so its pop is the one minimum whatever
//!   order the entries arrived in. Same config ⇒ byte-identical output,
//!   whatever the machine is doing.
//! * **Deadlock.** No token holder while an actor is still blocked: only
//!   the executing actor rings, so no ring can ever arrive. The clock is
//!   poisoned and [`ClockSystem::run_actors`] panics with a diagnostic. A
//!   clock that can never advance is an error, not a hang.
//!
//! The payoff: `occupy_us(1140.0)` costs nanoseconds instead of 1.14 ms and
//! passing the token is a function return, not a thread wake-up, so the
//! same node/kernel/queue code that sustains ~500 round trips per
//! wall-second in real mode simulates 64+ nodes and 100k+ conversations in
//! a fraction of a second.

use archsim::timings::ActivityKind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Which time base drives a live run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Wall-clock occupancy: activities spin/sleep for their measured time.
    #[default]
    Real,
    /// Conservative discrete-event virtual time: activities advance logical
    /// clocks; actors rendezvous on virtual timestamps.
    Virtual,
}

impl ClockMode {
    /// Lower-case label (`real` / `virtual`), as accepted by `--clock`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ClockMode::Real => "real",
            ClockMode::Virtual => "virtual",
        }
    }
}

impl std::str::FromStr for ClockMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ClockMode, String> {
        match s {
            "real" => Ok(ClockMode::Real),
            "virtual" => Ok(ClockMode::Virtual),
            other => Err(format!("unknown clock mode `{other}` (real|virtual)")),
        }
    }
}

impl std::fmt::Display for ClockMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Occupancy classes tracked by the overshoot ledger: the thirteen
/// [`ActivityKind`]s (indices from [`crate::cost`]) plus server compute.
pub(crate) const CLASSES: usize = 14;

/// Class index of the workload's server compute time (the X of §6.3).
pub(crate) const CLASS_COMPUTE: usize = 13;

/// Display labels, indexed like [`crate::cost::kind_index`] with
/// [`CLASS_COMPUTE`] last.
const CLASS_LABELS: [&str; CLASSES] = [
    "SyscallSend",
    "ProcessSend",
    "DmaOut",
    "SyscallReceive",
    "ProcessReceive",
    "DmaIn",
    "Match",
    "RestartServer",
    "SyscallReply",
    "ProcessReply",
    "RestartServerAfterReply",
    "CleanupClient",
    "RestartClient",
    "ServerCompute",
];

/// Overshoot class of an activity kind.
pub(crate) fn class_of(kind: ActivityKind) -> usize {
    crate::cost::kind_index(kind)
}

/// Requested-vs-actual occupancy of one activity class under the real
/// clock (virtual occupancy is exact by construction and records nothing).
#[derive(Debug, Clone, Copy)]
pub struct OvershootRow {
    /// Activity class label (an [`ActivityKind`] name or `ServerCompute`).
    pub class: &'static str,
    /// Occupancy calls in this class.
    pub count: u64,
    /// Total requested occupancy, microseconds.
    pub requested_us: f64,
    /// Total measured occupancy, microseconds.
    pub actual_us: f64,
}

impl OvershootRow {
    /// Mean per-call overshoot (actual − requested), microseconds.
    pub fn mean_overshoot_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.actual_us - self.requested_us) / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct OvershootCell {
    count: AtomicU64,
    requested_ns: AtomicU64,
    actual_ns: AtomicU64,
}

/// Ceiling below which real occupancy spins instead of sleeping: OS sleep
/// overshoot (tens of microseconds on a virtualized host) would swamp a
/// short activity, while a sub-30 µs spin steals negligible time from
/// other threads timesharing the core.
const SPIN_CEILING_US: f64 = 30.0;

/// What a virtual actor is doing, as the clock sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActorMode {
    /// Holds the execution token; the only actor running code.
    Executing,
    /// Runnable at its clock; waiting to be the frontier minimum.
    Waiting,
    /// Suspended on the bell with this id until rung.
    Blocked(usize),
    /// Retired; no longer constrains the frontier.
    Gone,
}

#[derive(Debug)]
struct ActorSlot {
    clock_ns: u64,
    mode: ActorMode,
}

/// The token word's value while no actor holds the execution token.
const NO_HOLDER: usize = usize::MAX;

#[derive(Debug)]
struct VState {
    actors: Vec<ActorSlot>,
    bell_epochs: Vec<u64>,
    /// Actors suspended on each bell, in arrival order — drained by
    /// [`Bell::ring`] without scanning the whole fleet.
    bell_waiters: Vec<Vec<usize>>,
    /// The [`ActorMode::Waiting`] actors, a min-heap on `(clock, id)`. An
    /// actor is on it exactly while it is `Waiting`, so at most once: the
    /// keys are unique, and the pop is the one minimum `(clock, id)` an
    /// ordered set's first element would be.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Set when an actor is blocked and no token holder is left to ring it.
    poisoned: bool,
    /// Grants that moved the token to another actor.
    handoffs: u64,
}

impl VState {
    /// Moves an actor into [`ActorMode::Waiting`] and indexes it for the
    /// next grant.
    fn make_ready(&mut self, id: usize) {
        debug_assert_ne!(
            self.actors[id].mode,
            ActorMode::Waiting,
            "actor {id} is already on the ready heap"
        );
        self.actors[id].mode = ActorMode::Waiting;
        self.ready.push(Reverse((self.actors[id].clock_ns, id)));
    }

    /// `from` gives the execution token up: it goes to the
    /// minimum-`(clock, id)` runnable actor — `from` itself if it still is
    /// that — or, when only blocked actors remain, the clock is poisoned.
    /// The new holder (or [`NO_HOLDER`]) is published in `holder`.
    fn grant(&mut self, from: usize, holder: &AtomicUsize) {
        debug_assert_eq!(
            holder.load(Ordering::Relaxed),
            from,
            "clock operation by an actor that does not hold the execution token"
        );
        let next = match self.ready.pop() {
            Some(Reverse((clock_ns, id))) => {
                debug_assert_eq!(self.actors[id].clock_ns, clock_ns, "stale ready entry");
                self.actors[id].mode = ActorMode::Executing;
                if id != from {
                    self.handoffs += 1;
                }
                id
            }
            None => {
                self.poisoned = self
                    .actors
                    .iter()
                    .any(|a| matches!(a.mode, ActorMode::Blocked(_)));
                NO_HOLDER
            }
        };
        holder.store(next, Ordering::Release);
    }
}

#[derive(Debug)]
enum Inner {
    Real {
        /// Zero point of [`ClockHandle::now_ns`].
        epoch: Instant,
    },
    Virtual {
        state: Mutex<VState>,
        /// The actor holding the execution token, or [`NO_HOLDER`]. Written
        /// under the `state` lock at every grant; read without it by the
        /// executor and every [`Token`] poll. The `Release` store pairs
        /// with their `Acquire` loads, so a holder that sees its own id
        /// also sees the clock state of the grant that chose it; loads
        /// made under the lock may be `Relaxed`.
        holder: AtomicUsize,
    },
}

/// One actor's future, as [`ClockSystem::run_actors`] polls it.
pub type Actor<'a, T = ()> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// One run's time base: construct with [`ClockSystem::new`], register every
/// processor that charges occupancy or waits, then let the handles do the
/// rest. See the module docs for the two modes.
#[derive(Debug)]
pub struct ClockSystem {
    inner: Inner,
    overshoot: [OvershootCell; CLASSES],
}

impl ClockSystem {
    /// A clock system in the requested mode.
    pub fn new(mode: ClockMode) -> Arc<ClockSystem> {
        let inner = match mode {
            ClockMode::Real => Inner::Real {
                epoch: Instant::now(),
            },
            ClockMode::Virtual => Inner::Virtual {
                state: Mutex::new(VState {
                    actors: Vec::new(),
                    bell_epochs: Vec::new(),
                    bell_waiters: Vec::new(),
                    ready: BinaryHeap::new(),
                    poisoned: false,
                    handoffs: 0,
                }),
                holder: AtomicUsize::new(NO_HOLDER),
            },
        };
        Arc::new(ClockSystem {
            inner,
            overshoot: std::array::from_fn(|_| OvershootCell::default()),
        })
    }

    /// Execution-token handoffs so far: scheduling decisions that picked an
    /// actor other than the one giving the token up (0 in real mode).
    pub(crate) fn handoffs(&self) -> u64 {
        match &self.inner {
            Inner::Real { .. } => 0,
            Inner::Virtual { state, .. } => lock(state).handoffs,
        }
    }

    /// The mode this system runs in.
    pub(crate) fn mode(&self) -> ClockMode {
        match self.inner {
            Inner::Real { .. } => ClockMode::Real,
            Inner::Virtual { .. } => ClockMode::Virtual,
        }
    }

    /// Registers an actor and returns its handle. **Virtual mode:** actor
    /// ids are the determinism tie-break, so register in a fixed order and
    /// pass [`ClockSystem::run_actors`] the futures in that same order. The
    /// first registered actor (the run's driver) starts with the execution
    /// token; all others start runnable at clock 0 and suspend in
    /// [`ClockHandle::attach`] until granted.
    pub fn register(self: &Arc<Self>) -> ClockHandle {
        let actor = match &self.inner {
            Inner::Real { .. } => 0,
            Inner::Virtual { state, holder } => {
                let mut st = lock(state);
                let id = st.actors.len();
                st.actors.push(ActorSlot {
                    clock_ns: 0,
                    mode: ActorMode::Waiting,
                });
                if id == 0 {
                    // The first actor starts with the token.
                    st.actors[0].mode = ActorMode::Executing;
                    holder.store(0, Ordering::Release);
                } else {
                    st.ready.push(Reverse((0, id)));
                }
                id
            }
        };
        ClockHandle {
            sys: Arc::clone(self),
            actor,
        }
    }

    /// The virtual clock's executor: polls, on the calling thread, whichever
    /// actor holds the execution token until every actor has retired, and
    /// returns their outputs. `actors[id]` is the future of the `id`-th
    /// registered actor; it must [`ClockHandle::attach`] first and
    /// [`ClockHandle::retire`] last.
    ///
    /// # Panics
    ///
    /// With `virtual clock deadlock` when the token has nowhere to go while
    /// an actor is still blocked on a bell; on a real-mode clock.
    pub fn run_actors<T>(&self, mut actors: Vec<Actor<'_, T>>) -> Vec<T> {
        let Inner::Virtual { state, holder } = &self.inner else {
            panic!("run_actors needs a virtual clock");
        };
        assert_eq!(
            actors.len(),
            lock(state).actors.len(),
            "one future per registered actor"
        );
        let mut outputs: Vec<Option<T>> = actors.iter().map(|_| None).collect();
        let mut cx = Context::from_waker(Waker::noop());
        let executing = || Some(holder.load(Ordering::Acquire)).filter(|&id| id != NO_HOLDER);
        while let Some(id) = executing() {
            // Pending: the actor passed the token on. Ready: it retired.
            if let Poll::Ready(output) = actors[id].as_mut().poll(&mut cx) {
                outputs[id] = Some(output);
            }
        }
        assert!(
            !lock(state).poisoned,
            "virtual clock deadlock: every live actor is blocked on a bell, \
             so no ring can ever arrive and the frontier can never advance"
        );
        outputs
            .into_iter()
            .map(|output| output.expect("every actor retired"))
            .collect()
    }

    /// The recorded requested-vs-actual occupancy per activity class
    /// (non-empty classes only; empty in virtual mode, where occupancy is
    /// exact by construction).
    pub(crate) fn overshoot_report(&self) -> Vec<OvershootRow> {
        self.overshoot
            .iter()
            .enumerate()
            .filter_map(|(class, cell)| {
                let count = cell.count.load(Ordering::Relaxed);
                (count > 0).then(|| OvershootRow {
                    class: CLASS_LABELS[class],
                    count,
                    requested_us: cell.requested_ns.load(Ordering::Relaxed) as f64 / 1_000.0,
                    actual_us: cell.actual_ns.load(Ordering::Relaxed) as f64 / 1_000.0,
                })
            })
            .collect()
    }
}

/// Poison-tolerant lock: an actor that panicked mid-poll must not turn the
/// panic that surfaces into "poisoned mutex".
fn lock(state: &Mutex<VState>) -> MutexGuard<'_, VState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drives a future whose clock operations are all real-mode — they complete
/// inside the call, so one poll finishes it.
pub(crate) fn block_on<F: Future>(future: F) -> F::Output {
    let future = std::pin::pin!(future);
    match future.poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => unreachable!("a real-clock operation suspended"),
    }
}

/// Ready once the actor holds the execution token. Awaited after every
/// virtual clock operation that may have passed the token on; the executor
/// polls an actor again only when the token has come back.
struct Token<'a>(&'a ClockHandle);

impl Future for Token<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        let Inner::Virtual { holder, .. } = &self.0.sys.inner else {
            return Poll::Ready(());
        };
        if holder.load(Ordering::Acquire) == self.0.actor {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// One actor's interface to the clock. Cloning is allowed for a single
/// actor that plays several roles (Architecture I's combined loop); two
/// *actors* sharing a handle would break the execution-token invariant.
#[derive(Debug, Clone)]
pub struct ClockHandle {
    sys: Arc<ClockSystem>,
    actor: usize,
}

impl ClockHandle {
    /// The clock mode.
    pub(crate) fn mode(&self) -> ClockMode {
        self.sys.mode()
    }

    /// Whether idle loops should spin-poll before waiting (real mode only:
    /// a virtual actor polling without a clock op would hold the execution
    /// token forever).
    pub(crate) fn spins(&self) -> bool {
        self.mode() == ClockMode::Real
    }

    /// An actor's first clock operation: suspends until it holds the
    /// execution token (virtual), so that everything it does is serialized
    /// into the deterministic order. No-op in real mode.
    pub async fn attach(&self) {
        Token(self).await;
    }

    /// Nanoseconds since the run's zero point: wall time in real mode, the
    /// actor's logical clock in virtual mode.
    pub(crate) fn now_ns(&self) -> u64 {
        match &self.sys.inner {
            Inner::Real { epoch } => epoch.elapsed().as_nanos() as u64,
            Inner::Virtual { state, .. } => lock(state).actors[self.actor].clock_ns,
        }
    }

    /// Occupies this actor's processor for `us` microseconds of `class`
    /// work: real mode spins/sleeps (recording overshoot), virtual mode
    /// advances the logical clock and re-enters the frontier ordering.
    pub(crate) async fn occupy_us(&self, us: f64, class: usize) {
        if us <= 0.0 {
            return;
        }
        let ns = (us * 1_000.0).round() as u64;
        match &self.sys.inner {
            Inner::Real { .. } => {
                let t0 = Instant::now();
                if us <= SPIN_CEILING_US {
                    crate::cost::spin_us(us);
                } else {
                    std::thread::sleep(Duration::from_nanos(ns));
                }
                let actual = t0.elapsed().as_nanos() as u64;
                let cell = &self.sys.overshoot[class];
                cell.count.fetch_add(1, Ordering::Relaxed);
                cell.requested_ns.fetch_add(ns, Ordering::Relaxed);
                cell.actual_ns.fetch_add(actual, Ordering::Relaxed);
            }
            Inner::Virtual { state, holder } => self.advance(state, holder, ns).await,
        }
    }

    /// The run driver's load-phase sleep: wall sleep in real mode, a plain
    /// clock advance in virtual mode (no overshoot ledger — this is not an
    /// activity).
    pub async fn sleep(&self, duration: Duration) {
        match &self.sys.inner {
            Inner::Real { .. } => std::thread::sleep(duration),
            Inner::Virtual { state, holder } => {
                self.advance(state, holder, duration.as_nanos() as u64)
                    .await
            }
        }
    }

    /// Virtual clock advance: bump own clock, then pass the execution token
    /// on if another runnable actor now has a smaller `(clock, id)`.
    async fn advance(&self, state: &Mutex<VState>, holder: &AtomicUsize, ns: u64) {
        {
            let mut st = lock(state);
            st.actors[self.actor].clock_ns += ns;
            st.make_ready(self.actor);
            st.grant(self.actor, holder);
        }
        Token(self).await;
    }

    /// Waits (on an idle poll that found nothing) until `bell` is rung past
    /// `epoch`. Real mode parks on the bell's condvar for at most `timeout`
    /// — a missed ring costs one timeout period. Virtual mode blocks the
    /// actor with no timeout: it resumes exactly at the next ring, with its
    /// clock advanced to the ring's virtual timestamp; if no ring can ever
    /// come, the executor panics (see module docs).
    pub async fn wait_past(&self, bell: &Bell, epoch: u64, timeout: Duration) {
        match (&self.sys.inner, &bell.inner) {
            (Inner::Real { .. }, BellInner::Real { seq, cv }) => {
                let guard = seq.lock().expect("bell lock");
                let _ = cv
                    .wait_timeout_while(guard, timeout, |s| *s == epoch)
                    .expect("bell lock");
            }
            (Inner::Virtual { state, holder }, BellInner::Virtual { id }) => {
                {
                    let mut st = lock(state);
                    if st.bell_epochs[*id] != epoch {
                        return; // rung since the caller polled: re-poll.
                    }
                    st.actors[self.actor].mode = ActorMode::Blocked(*id);
                    st.bell_waiters[*id].push(self.actor);
                    st.grant(self.actor, holder);
                }
                Token(self).await;
            }
            _ => panic!("bell and clock handle belong to different clock systems"),
        }
    }

    /// Retires the actor: it stops constraining the frontier. Call exactly
    /// once, as the actor's last clock operation.
    pub fn retire(&self) {
        if let Inner::Virtual { state, holder } = &self.sys.inner {
            let mut st = lock(state);
            st.actors[self.actor].mode = ActorMode::Gone;
            st.grant(self.actor, holder);
        }
    }
}

#[derive(Debug)]
enum BellInner {
    Real { seq: Mutex<u64>, cv: Condvar },
    Virtual { id: usize },
}

/// A wakeup channel between actors: ring after publishing work, wait (via
/// [`ClockHandle::wait_past`]) when a poll finds nothing. Real mode is a
/// plain condvar doorbell; virtual mode is a rendezvous point of the
/// clock — rings carry the ringer's virtual clock, and waking a blocked
/// actor advances its clock to the ring time.
#[derive(Debug)]
pub struct Bell {
    sys: Arc<ClockSystem>,
    inner: BellInner,
}

impl Bell {
    /// A bell on the given clock system.
    pub fn new(sys: &Arc<ClockSystem>) -> Bell {
        let inner = match &sys.inner {
            Inner::Real { .. } => BellInner::Real {
                seq: Mutex::new(0),
                cv: Condvar::new(),
            },
            Inner::Virtual { state, .. } => {
                let mut st = lock(state);
                st.bell_epochs.push(0);
                st.bell_waiters.push(Vec::new());
                BellInner::Virtual {
                    id: st.bell_epochs.len() - 1,
                }
            }
        };
        Bell {
            sys: Arc::clone(sys),
            inner,
        }
    }

    /// Current ring count; pass to [`ClockHandle::wait_past`]. Taking the
    /// epoch *before* polling the queues closes the poll-then-sleep race in
    /// real mode (in virtual mode the token serializes poll and publish, so
    /// the race cannot occur, but the protocol is shared).
    pub fn epoch(&self) -> u64 {
        match &self.inner {
            BellInner::Real { seq, .. } => *seq.lock().expect("bell lock"),
            BellInner::Virtual { id } => {
                let Inner::Virtual { state, .. } = &self.sys.inner else {
                    unreachable!();
                };
                lock(state).bell_epochs[*id]
            }
        }
    }

    /// Wakes every waiter. Virtual mode stamps the ring with the clock of
    /// the executing actor — only it runs code, so only it can ring — and
    /// makes every actor blocked on this bell runnable at that time.
    pub(crate) fn ring(&self) {
        match &self.inner {
            BellInner::Real { seq, cv } => {
                *seq.lock().expect("bell lock") += 1;
                cv.notify_all();
            }
            BellInner::Virtual { id } => {
                let Inner::Virtual { state, holder } = &self.sys.inner else {
                    unreachable!();
                };
                let mut st = lock(state);
                st.bell_epochs[*id] += 1;
                let ringer = holder.load(Ordering::Relaxed);
                assert_ne!(ringer, NO_HOLDER, "virtual ring outside an actor");
                let at = st.actors[ringer].clock_ns;
                // Only this bell's waiters, in arrival order — no fleet scan.
                let waiters = std::mem::take(&mut st.bell_waiters[*id]);
                for w in waiters {
                    debug_assert_eq!(st.actors[w].mode, ActorMode::Blocked(*id));
                    st.actors[w].clock_ns = st.actors[w].clock_ns.max(at);
                    st.make_ready(w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn class_labels_match_activity_kind_names() {
        for kind in [
            ActivityKind::SyscallSend,
            ActivityKind::ProcessSend,
            ActivityKind::DmaOut,
            ActivityKind::SyscallReceive,
            ActivityKind::ProcessReceive,
            ActivityKind::DmaIn,
            ActivityKind::Match,
            ActivityKind::RestartServer,
            ActivityKind::SyscallReply,
            ActivityKind::ProcessReply,
            ActivityKind::RestartServerAfterReply,
            ActivityKind::CleanupClient,
            ActivityKind::RestartClient,
        ] {
            assert_eq!(CLASS_LABELS[class_of(kind)], format!("{kind:?}"));
        }
        assert_eq!(CLASS_LABELS[CLASS_COMPUTE], "ServerCompute");
    }

    #[test]
    fn real_occupancy_records_overshoot() {
        let sys = ClockSystem::new(ClockMode::Real);
        let h = sys.register();
        block_on(h.occupy_us(120.0, CLASS_COMPUTE));
        block_on(h.occupy_us(80.0, CLASS_COMPUTE));
        let report = sys.overshoot_report();
        assert_eq!(report.len(), 1);
        let row = &report[0];
        assert_eq!(row.class, "ServerCompute");
        assert_eq!(row.count, 2);
        assert!((row.requested_us - 200.0).abs() < 1e-9);
        // The OS may overshoot but never undershoots a sleep.
        assert!(row.actual_us >= row.requested_us);
        assert!(row.mean_overshoot_us() >= 0.0);
    }

    #[test]
    fn real_bell_wakes_a_waiter() {
        let sys = ClockSystem::new(ClockMode::Real);
        let bell = Arc::new(Bell::new(&sys));
        let epoch = bell.epoch();
        let waiter = {
            let (sys, bell) = (Arc::clone(&sys), Arc::clone(&bell));
            std::thread::spawn(move || {
                block_on(
                    sys.register()
                        .wait_past(&bell, epoch, Duration::from_secs(10)),
                );
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        bell.ring();
        waiter.join().unwrap();
        // A stale epoch returns immediately.
        block_on(
            sys.register()
                .wait_past(&bell, epoch, Duration::from_secs(10)),
        );
    }

    #[test]
    fn virtual_occupancy_is_exact_and_free() {
        let sys = ClockSystem::new(ClockMode::Virtual);
        let h = sys.register(); // first actor: holds the token.
        let t0 = Instant::now();
        // The only actor stays the frontier minimum, keeps the token and
        // never suspends — so one poll is enough here too.
        block_on(h.occupy_us(50_000_000.0, CLASS_COMPUTE)); // 50 virtual seconds
        assert!(t0.elapsed() < Duration::from_secs(5), "virtual time slept");
        assert_eq!(h.now_ns(), 50_000_000_000);
        assert_eq!(sys.handoffs(), 0);
        assert!(sys.overshoot_report().is_empty());
    }

    #[test]
    fn two_actors_interleave_in_clock_order() {
        // Actor 0 (the driver) sleeps far ahead; actor 1 runs the past and
        // rendezvouses with actor 2 on a bell; ring timestamps carry the
        // ringer's clock.
        let sys = ClockSystem::new(ClockMode::Virtual);
        let driver = sys.register();
        let bell = Bell::new(&sys);
        let a = sys.register();
        let b = sys.register();
        let log = RefCell::new(Vec::new());
        sys.run_actors(vec![
            Box::pin(async {
                driver.sleep(Duration::from_millis(1)).await; // 1 ms ≫ 300 µs: runs last
                driver.retire();
            }),
            Box::pin(async {
                a.attach().await;
                a.occupy_us(300.0, 0).await;
                log.borrow_mut().push(("a-ring", a.now_ns()));
                bell.ring();
                a.retire();
            }),
            Box::pin(async {
                b.attach().await;
                let epoch = bell.epoch();
                b.wait_past(&bell, epoch, Duration::from_secs(9)).await;
                log.borrow_mut().push(("b-woke", b.now_ns()));
                b.retire();
            }),
        ]);
        // a rang at 300 µs; b woke exactly at the ring's virtual time.
        assert_eq!(log.into_inner(), [("a-ring", 300_000), ("b-woke", 300_000)]);
    }

    #[test]
    fn deterministic_schedule_across_runs() {
        let run = || {
            let sys = ClockSystem::new(ClockMode::Virtual);
            let driver = sys.register();
            let order = RefCell::new(Vec::new());
            let mut actors: Vec<Actor<'_>> = vec![Box::pin(async {
                driver.sleep(Duration::from_millis(10)).await;
                driver.retire();
            })];
            for i in 0..4usize {
                let (h, order) = (sys.register(), &order);
                actors.push(Box::pin(async move {
                    h.attach().await;
                    for _ in 0..50 {
                        // Unequal steps force constant reordering.
                        h.occupy_us(((i * 7) % 5 + 1) as f64, 0).await;
                        order.borrow_mut().push((i, h.now_ns()));
                    }
                    h.retire();
                }));
            }
            sys.run_actors(actors);
            (order.into_inner(), sys.handoffs())
        };
        let (order, handoffs) = run();
        assert_eq!(order.len(), 200);
        assert!(
            order.windows(2).all(|w| w[0].1 <= w[1].1),
            "not clock order"
        );
        assert!(handoffs > 0);
        assert_eq!((order, handoffs), run());
    }

    #[test]
    fn all_blocked_actors_poison_instead_of_hang() {
        let sys = ClockSystem::new(ClockMode::Virtual);
        let driver = sys.register();
        let bell = Bell::new(&sys);
        let h = sys.register();
        let actors: Vec<Actor<'_>> = vec![
            Box::pin(async { driver.retire() }),
            Box::pin(async {
                h.attach().await;
                let epoch = bell.epoch();
                // Nobody will ever ring: once the driver retires, the clock
                // must be poisoned, not hang.
                h.wait_past(&bell, epoch, Duration::from_secs(600)).await;
            }),
        ];
        let err = catch_unwind(AssertUnwindSafe(|| sys.run_actors(actors)))
            .expect_err("a deadlocked clock must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("virtual clock deadlock"), "panic: {msg}");
    }
}

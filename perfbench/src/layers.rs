//! Decorators the benchmark wraps around the program's public traits
//! (`Scheduler`, `ConfigSampler`, `BenchmarkModel`, `Recorder`) to time the
//! calls into each layer from outside. They forward every method, so the
//! wrapped run makes exactly the calls, and draws exactly the random
//! numbers, of the bare one. The surrogate's per-job work runs inside the
//! `ConfigProfile` that `BenchmarkModel::profile` builds once per trial;
//! those are methods of a concrete type the simulator calls directly, so
//! the decorator sees the profile builds and the per-call fallbacks, and
//! the per-job profile evaluations stay in the simulator's self time.
//!
//! `LoggingScheduler` and `ReplayScheduler` measure the simulator itself:
//! one logs a scheduler's decisions and random draws, the other replays
//! them with no model behind them, so a replayed run does the logged run's
//! simulator and surrogate work and nothing else.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use asha_core::telemetry::{Event, EventKind, Recorder};
use asha_core::{ConfigSampler, Decision, Fidelity, Observation, Scheduler};
use asha_space::{Config, SearchSpace};
use asha_surrogate::{BenchmarkModel, ConfigProfile, TrainingState};

/// Calls and nanoseconds spent in one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls made.
    pub n: u64,
    /// Nanoseconds inside them.
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, since: Instant) {
        self.n += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }

    fn merge(&mut self, other: Tally) {
        self.n += other.n;
        self.ns += other.ns;
    }

    /// Seconds inside the calls.
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// What the scheduler and sampler decorators accumulate.
#[derive(Debug, Clone, Default)]
pub struct CoreTally {
    /// `Scheduler::suggest` (including any sampler work nested in it).
    pub suggest: Tally,
    /// `Scheduler::observe` (including any sampler `record` nested in it).
    pub observe: Tally,
    /// Suggest calls answered with `Decision::Wait`.
    pub waits: u64,
    /// `ConfigSampler::propose` / `propose_at`.
    pub propose: Tally,
    /// `ConfigSampler::record`.
    pub record: Tally,
    /// Scheduler lifetimes (creation to drop): one cell of a sweep each.
    pub lifetimes: Vec<Span>,
}

impl CoreTally {
    /// Suggest time not spent in the sampler.
    pub fn suggest_self_s(&self) -> f64 {
        (self.suggest.secs() - self.propose.secs()).max(0.0)
    }

    /// Observe time not spent in the sampler.
    pub fn observe_self_s(&self) -> f64 {
        (self.observe.secs() - self.record.secs()).max(0.0)
    }

    /// Share of suggest calls that returned `Wait`.
    pub fn wait_share(&self) -> f64 {
        if self.suggest.n == 0 {
            0.0
        } else {
            self.waits as f64 / self.suggest.n as f64
        }
    }
}

/// One scheduler's lifetime on one thread.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Creation, seconds since the sink's epoch.
    pub start: f64,
    /// Drop, seconds since the sink's epoch.
    pub end: f64,
    /// Which runner thread (dense index in order of first appearance).
    pub thread: usize,
}

/// Shared destination the per-scheduler tallies are flushed into on drop,
/// so the hot path never touches shared state.
#[derive(Debug)]
pub struct CoreSink {
    epoch: Instant,
    tally: Mutex<CoreTally>,
    threads: Mutex<Vec<std::thread::ThreadId>>,
}

impl CoreSink {
    /// A sink whose spans are measured from `epoch`.
    pub fn new(epoch: Instant) -> Arc<CoreSink> {
        Arc::new(CoreSink {
            epoch,
            tally: Mutex::new(CoreTally::default()),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// Everything flushed by the decorators dropped so far.
    pub fn take(&self) -> CoreTally {
        std::mem::take(&mut *self.tally.lock().expect("core sink poisoned"))
    }

    fn thread_index(&self) -> usize {
        let id = std::thread::current().id();
        let mut threads = self.threads.lock().expect("core sink poisoned");
        match threads.iter().position(|&t| t == id) {
            Some(i) => i,
            None => {
                threads.push(id);
                threads.len() - 1
            }
        }
    }
}

/// [`ConfigSampler`] decorator timing `propose`/`propose_at`/`record`;
/// on drop it flushes its tallies into a [`CoreSink`].
pub struct TimedSampler {
    inner: Box<dyn ConfigSampler>,
    propose: Tally,
    record: Tally,
    sink: Arc<CoreSink>,
}

impl TimedSampler {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn ConfigSampler>, sink: Arc<CoreSink>) -> Self {
        TimedSampler {
            inner,
            propose: Tally::default(),
            record: Tally::default(),
            sink,
        }
    }
}

impl Drop for TimedSampler {
    fn drop(&mut self) {
        if let Ok(mut total) = self.sink.tally.lock() {
            total.propose.merge(self.propose);
            total.record.merge(self.record);
        }
    }
}

impl ConfigSampler for TimedSampler {
    fn propose(&mut self, space: &SearchSpace, rng: &mut dyn rand::RngCore) -> Config {
        let t = Instant::now();
        let c = self.inner.propose(space, rng);
        self.propose.add(t);
        c
    }

    fn propose_at(
        &mut self,
        space: &SearchSpace,
        fidelity: Fidelity,
        rng: &mut dyn rand::RngCore,
    ) -> Config {
        let t = Instant::now();
        let c = self.inner.propose_at(space, fidelity, rng);
        self.propose.add(t);
        c
    }

    fn record(&mut self, config: &Config, rung: usize, resource: f64, loss: f64) {
        let t = Instant::now();
        self.inner.record(config, rung, resource, loss);
        self.record.add(t);
    }

    fn wants_reports(&self) -> bool {
        self.inner.wants_reports()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn export_cursor(&self) -> Option<String> {
        self.inner.export_cursor()
    }

    fn restore_cursor(&mut self, cursor: &str) {
        self.inner.restore_cursor(cursor)
    }
}

/// [`Scheduler`] decorator timing `suggest`/`observe`; on drop it flushes
/// its tallies and its lifetime into a [`CoreSink`].
pub struct TimedScheduler<S: Scheduler> {
    inner: S,
    tally: CoreTally,
    sink: Arc<CoreSink>,
    born: Instant,
    thread: usize,
}

impl<S: Scheduler> TimedScheduler<S> {
    /// Wrap `inner`.
    pub fn new(inner: S, sink: Arc<CoreSink>) -> Self {
        let thread = sink.thread_index();
        TimedScheduler {
            inner,
            tally: CoreTally::default(),
            sink,
            born: Instant::now(),
            thread,
        }
    }
}

impl<S: Scheduler> Drop for TimedScheduler<S> {
    fn drop(&mut self) {
        let end = self.sink.epoch.elapsed().as_secs_f64();
        let start = self.born.duration_since(self.sink.epoch).as_secs_f64();
        let Ok(mut total) = self.sink.tally.lock() else {
            return;
        };
        total.suggest.merge(self.tally.suggest);
        total.observe.merge(self.tally.observe);
        total.waits += self.tally.waits;
        total.lifetimes.push(Span {
            start,
            end,
            thread: self.thread,
        });
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        let t = Instant::now();
        let d = self.inner.suggest(rng);
        self.tally.suggest.add(t);
        if d.is_wait() {
            self.tally.waits += 1;
        }
        d
    }

    fn observe(&mut self, obs: Observation) {
        let t = Instant::now();
        self.inner.observe(obs);
        self.tally.observe.add(t);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn wait_is_stable(&self) -> bool {
        self.inner.wait_is_stable()
    }
}

/// One random-number call a scheduler made, replayed in kind and size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Draw {
    U32,
    U64,
    Fill(usize),
}

/// The first random value a scheduler drew: a fresh `StdRng` seeded with
/// the cell's seed gives the same value, which names the cell a log
/// belongs to (the simulator draws nothing before the first `suggest`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FirstDraw {
    /// A `next_u32`.
    U32(u32),
    /// A `next_u64`.
    U64(u64),
    /// A `fill_bytes`.
    Fill(Vec<u8>),
}

impl FirstDraw {
    /// Whether `rng` (fresh) makes this same first draw.
    pub fn matches(&self, rng: &mut dyn rand::RngCore) -> bool {
        match self {
            FirstDraw::U32(v) => rng.next_u32() == *v,
            FirstDraw::U64(v) => rng.next_u64() == *v,
            FirstDraw::Fill(v) => {
                let mut buf = vec![0u8; v.len()];
                rng.fill_bytes(&mut buf);
                buf == *v
            }
        }
    }
}

/// Every decision one scheduler made, with the random-number calls behind
/// each, so [`ReplayScheduler`] can hand the simulator the same decisions
/// and leave its random stream exactly where the scheduler left it.
#[derive(Debug, Clone, Default)]
pub struct DecisionLog {
    /// Which method of the sweep (index into its method list).
    pub method: usize,
    /// The cell's first random value, if the scheduler drew any.
    pub first: Option<FirstDraw>,
    /// `(decision, wait_is_stable after it, end index into draws)`.
    suggests: Vec<(Decision, bool, usize)>,
    draws: Vec<Draw>,
}

/// An `RngCore` that forwards to `inner` and logs each call.
struct LoggingRng<'a> {
    inner: &'a mut dyn rand::RngCore,
    log: &'a mut DecisionLog,
}

impl LoggingRng<'_> {
    fn first(&mut self, draw: impl FnOnce() -> FirstDraw) {
        if self.log.first.is_none() {
            self.log.first = Some(draw());
        }
    }
}

impl rand::RngCore for LoggingRng<'_> {
    fn next_u32(&mut self) -> u32 {
        let v = self.inner.next_u32();
        self.log.draws.push(Draw::U32);
        self.first(|| FirstDraw::U32(v));
        v
    }

    fn next_u64(&mut self) -> u64 {
        let v = self.inner.next_u64();
        self.log.draws.push(Draw::U64);
        self.first(|| FirstDraw::U64(v));
        v
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
        self.log.draws.push(Draw::Fill(dest.len()));
        self.first(|| FirstDraw::Fill(dest.to_vec()));
    }
}

/// [`Scheduler`] decorator that logs every decision and the random-number
/// calls behind it; on drop it hands the log to `sink`.
pub struct LoggingScheduler<S: Scheduler> {
    inner: S,
    log: DecisionLog,
    sink: Arc<Mutex<Vec<DecisionLog>>>,
}

impl<S: Scheduler> LoggingScheduler<S> {
    /// Wrap `inner`, the scheduler of sweep method `method`.
    pub fn new(inner: S, method: usize, sink: Arc<Mutex<Vec<DecisionLog>>>) -> Self {
        LoggingScheduler {
            inner,
            log: DecisionLog {
                method,
                ..DecisionLog::default()
            },
            sink,
        }
    }
}

impl<S: Scheduler> Drop for LoggingScheduler<S> {
    fn drop(&mut self) {
        if let Ok(mut logs) = self.sink.lock() {
            logs.push(std::mem::take(&mut self.log));
        }
    }
}

impl<S: Scheduler> Scheduler for LoggingScheduler<S> {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        let mut logging = LoggingRng {
            inner: rng,
            log: &mut self.log,
        };
        let d = self.inner.suggest(&mut logging);
        let stable = self.inner.wait_is_stable();
        self.log
            .suggests
            .push((d.clone(), stable, self.log.draws.len()));
        d
    }

    fn observe(&mut self, obs: Observation) {
        self.inner.observe(obs);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn wait_is_stable(&self) -> bool {
        self.inner.wait_is_stable()
    }
}

/// A scheduler that replays a [`DecisionLog`]: the same decisions, and the
/// same random-number calls on the simulator's stream, with no model
/// behind them. A simulator driven by it does exactly the work of the
/// logged run minus the scheduler's, so timing it measures the simulator.
pub struct ReplayScheduler<'a> {
    log: &'a DecisionLog,
    next: usize,
    drawn: usize,
    stable: bool,
    /// Time spent in `suggest` (replaying draws, cloning decisions).
    pub tally: Tally,
    /// Suggest calls beyond the end of the log (a diverged replay).
    pub overrun: u64,
}

impl<'a> ReplayScheduler<'a> {
    /// Replay `log`.
    pub fn new(log: &'a DecisionLog) -> Self {
        ReplayScheduler {
            log,
            next: 0,
            drawn: 0,
            stable: false,
            tally: Tally::default(),
            overrun: 0,
        }
    }
}

impl Scheduler for ReplayScheduler<'_> {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        let t = Instant::now();
        let Some((d, stable, end)) = self.log.suggests.get(self.next) else {
            self.overrun += 1;
            return Decision::Finished;
        };
        let mut buf = Vec::new();
        for draw in &self.log.draws[self.drawn..*end] {
            match *draw {
                Draw::U32 => {
                    rng.next_u32();
                }
                Draw::U64 => {
                    rng.next_u64();
                }
                Draw::Fill(n) => {
                    buf.resize(n, 0);
                    rng.fill_bytes(&mut buf);
                }
            }
        }
        self.drawn = *end;
        self.next += 1;
        self.stable = *stable;
        let d = d.clone();
        self.tally.add(t);
        d
    }

    fn observe(&mut self, _obs: Observation) {}

    fn name(&self) -> &str {
        "replay"
    }

    fn wait_is_stable(&self) -> bool {
        self.stable
    }
}

/// Shared counters of the surrogate decorator (atomic: one benchmark
/// instance serves every runner thread).
#[derive(Debug, Default)]
pub struct BenchCells {
    advance: AtomicTally,
    loss: AtomicTally,
    profile: AtomicTally,
}

#[derive(Debug, Default)]
struct AtomicTally {
    n: AtomicU64,
    ns: AtomicU64,
}

impl AtomicTally {
    fn add(&self, since: Instant) {
        self.n.fetch_add(1, Ordering::Relaxed);
        self.ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn read(&self) -> Tally {
        Tally {
            n: self.n.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

impl BenchCells {
    /// `(advance, loss, profile)` tallies so far. `advance` covers the
    /// training-dynamics calls (`init_state`, `advance`, `time_per_unit`),
    /// `loss` the evaluations (`validation_loss`, `test_loss`), `profile`
    /// the per-trial `ConfigProfile` builds.
    pub fn read(&self) -> (Tally, Tally, Tally) {
        (self.advance.read(), self.loss.read(), self.profile.read())
    }
}

/// [`BenchmarkModel`] decorator timing the surrogate's calls.
pub struct TimedBench<'a> {
    inner: &'a dyn BenchmarkModel,
    /// The counters.
    pub cells: BenchCells,
}

impl<'a> TimedBench<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn BenchmarkModel) -> Self {
        TimedBench {
            inner,
            cells: BenchCells::default(),
        }
    }
}

impl BenchmarkModel for TimedBench<'_> {
    fn space(&self) -> &SearchSpace {
        self.inner.space()
    }

    fn max_resource(&self) -> f64 {
        self.inner.max_resource()
    }

    fn init_state(&self, config: &Config, rng: &mut dyn rand::RngCore) -> TrainingState {
        let t = Instant::now();
        let s = self.inner.init_state(config, rng);
        self.cells.advance.add(t);
        s
    }

    fn advance(
        &self,
        config: &Config,
        state: &mut TrainingState,
        target_resource: f64,
        rng: &mut dyn rand::RngCore,
    ) {
        let t = Instant::now();
        self.inner.advance(config, state, target_resource, rng);
        self.cells.advance.add(t);
    }

    fn validation_loss(
        &self,
        config: &Config,
        state: &TrainingState,
        rng: &mut dyn rand::RngCore,
    ) -> f64 {
        let t = Instant::now();
        let l = self.inner.validation_loss(config, state, rng);
        self.cells.loss.add(t);
        l
    }

    fn test_loss(&self, config: &Config, state: &TrainingState) -> f64 {
        let t = Instant::now();
        let l = self.inner.test_loss(config, state);
        self.cells.loss.add(t);
        l
    }

    fn time_per_unit(&self, config: &Config) -> f64 {
        let t = Instant::now();
        let v = self.inner.time_per_unit(config);
        self.cells.advance.add(t);
        v
    }

    fn profile(&self, config: &Config) -> Option<ConfigProfile> {
        let t = Instant::now();
        let p = self.inner.profile(config);
        self.cells.profile.add(t);
        p
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// [`Recorder`] decorator that forwards to `inner` while keeping every
/// event, stamped with gap-free sequence numbers like the WAL's, so a run's
/// stream can be compared with what a store persisted.
pub struct TapRecorder<R: Recorder> {
    inner: R,
    /// Every event seen, in order.
    pub events: Vec<Event>,
}

impl<R: Recorder> TapRecorder<R> {
    /// Tap `inner`.
    pub fn new(inner: R) -> Self {
        TapRecorder {
            inner,
            events: Vec::new(),
        }
    }
}

impl<R: Recorder> Recorder for TapRecorder<R> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, now: f64, kind: EventKind) {
        self.events.push(Event {
            seq: self.events.len() as u64,
            time: now,
            kind,
        });
        if self.inner.enabled() {
            self.inner.record(now, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_core::telemetry::NoopRecorder;
    use asha_core::{Asha, AshaConfig};
    use asha_sim::{ClusterSim, SimConfig, SimEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn replayed_decisions_reproduce_the_logged_run() {
        let bench = asha_surrogate::presets::cifar10_cuda_convnet(1);
        let sim = SimConfig::new(5, 1e6).with_max_jobs(300);
        let logs = Arc::new(Mutex::new(Vec::new()));
        let asha = Asha::new(bench.space().clone(), AshaConfig::new(1.0, 256.0, 4.0));
        let logged = ClusterSim::new(sim.clone()).run(
            LoggingScheduler::new(asha, 0, Arc::clone(&logs)),
            &bench,
            &mut StdRng::seed_from_u64(7),
        );
        let log = logs.lock().unwrap().pop().unwrap();
        let first = log.first.as_ref().unwrap();
        assert!(first.matches(&mut StdRng::seed_from_u64(7)));
        assert!(!first.matches(&mut StdRng::seed_from_u64(8)));

        let mut engine = SimEngine::new(sim, ReplayScheduler::new(&log), &bench);
        let mut rng = StdRng::seed_from_u64(7);
        while engine.step(&mut rng, &mut NoopRecorder) {}
        assert_eq!(engine.scheduler().overrun, 0);
        assert!(engine.scheduler().tally.n > 0);
        let replayed = engine.into_result();
        assert_eq!(replayed.jobs_completed, logged.jobs_completed);
        assert_eq!(
            replayed.trace.incumbent_curve().points(),
            logged.trace.incumbent_curve().points()
        );
    }
}

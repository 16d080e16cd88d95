//! `durable-500w`: one `DurableRun` of random-sampler ASHA on
//! `cifar10_cuda_convnet` with 500 simulated workers and default
//! `RunOptions` (binary-v2, fsync every 64 records, checkpoint every 200
//! jobs, delta chain 8) — the daemon's storage path at the paper's
//! 500-worker scale. Each unit drops the run once mid-flight, resumes it
//! from the store and runs it to completion.
//!
//! Outputs are checked against an in-memory `ClusterSim` run of the same
//! seed: the result (jobs, trials, final incumbent) must be equal, and the
//! WAL's telemetry must equal the in-memory run's event stream.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use asha_core::telemetry::{Event, NoopRecorder};
use asha_core::{Asha, AshaConfig};
use asha_metrics::JsonValue;
use asha_obs::HistogramSnapshot;
use asha_sim::{ClusterSim, SimConfig, SimEngine, SimResult};
use asha_store::{
    delta, read_document, read_wal, replay_scheduler, BenchSpec, DeltaDoc, DurableRun,
    ExperimentMeta, MarkerRef, RunOptions, SchedulerState, Snapshot, StoreError, StoreFormat,
    StoreMetrics, StoredScheduler, WalContents, WAL_FILE,
};
use asha_surrogate::{BenchmarkModel, CurveBenchmark};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{CoreSink, CoreTally, Tally, TapRecorder, TimedBench, TimedScheduler};
use crate::stats::{median, Ledger, Outcomes};
use crate::sys::{dir_bytes, peak_rss_mb, reset_peak_rss, ScratchDir};
use crate::{Ctx, Report};

/// Workload name.
pub const NAME: &str = "durable-500w";
const WORKERS: usize = 500;
/// Jobs per run: a fixed budget, so every seed does the same amount of
/// work; the horizon is long enough that the budget, not time, ends the run.
const MAX_JOBS: usize = 12_000;
const HORIZON: f64 = 100.0;
const PRESET: &str = "cifar10_cuda_convnet";
const SURFACE_SEED: u64 = 2020;
/// Wall seconds one unit takes on a 2-core box; sets the unit count.
const NOMINAL_UNIT_S: f64 = 3.0;
/// Disk one unit's store may need (stores of this size reach ~60 MB).
const DISK_NEED: u64 = 512 << 20;
/// Set-up takes about a millisecond and its fsyncs are noisy, so it is
/// repeated before every unit and at least this often per run.
const SETUPS_PER_UNIT: usize = 8;
const MIN_SETUPS: usize = 40;

fn inputs(seed: u64) -> (ExperimentMeta, CurveBenchmark) {
    let spec = BenchSpec {
        preset: PRESET.to_owned(),
        seed: SURFACE_SEED,
    };
    let bench = spec.build().expect("preset exists");
    let space = bench.space().clone();
    let asha = Asha::new(space.clone(), AshaConfig::new(1.0, 256.0, 4.0));
    let meta = ExperimentMeta {
        name: NAME.to_owned(),
        space,
        initial: SchedulerState::Asha(asha.export_state()),
        sampler: None,
        seed,
        sim: SimConfig::new(WORKERS, HORIZON).with_max_jobs(MAX_JOBS),
        bench: spec,
    };
    (meta, bench)
}

/// The in-memory twin of a durable run: same seed, same scheduler state,
/// no store.
pub struct Reference {
    pub result: SimResult,
    pub events: Vec<Event>,
}

pub fn reference(meta: &ExperimentMeta, bench: &dyn BenchmarkModel) -> Reference {
    let scheduler = StoredScheduler::from_state(meta.space.clone(), meta.initial.clone());
    let mut rng = StdRng::seed_from_u64(meta.seed);
    let mut tap = TapRecorder::new(NoopRecorder);
    let result =
        ClusterSim::new(meta.sim.clone()).run_recorded(scheduler, bench, &mut rng, &mut tap);
    Reference {
        result,
        events: tap.events,
    }
}

/// The twin stepped one event-loop iteration at a time, with its scheduler
/// and surrogate timed. It makes the durable run's decisions step for step
/// without a store, so its step times measure the simulator, core and
/// surrogate work of the durable run independently of the durable run's
/// own clock. `core` stands in for the core layer, which `DurableRun` owns
/// and the benchmark cannot wrap.
struct TimedTwin {
    reference: Reference,
    /// Seconds of every `SimEngine::step` call, the last (ending) one too.
    steps: Vec<f64>,
    core: CoreTally,
    surrogate: (Tally, Tally, Tally),
}

fn timed_twin(meta: &ExperimentMeta, plain: &dyn BenchmarkModel) -> TimedTwin {
    let sink = CoreSink::new(Instant::now());
    let bench = TimedBench::new(plain);
    let scheduler = TimedScheduler::new(
        StoredScheduler::from_state(meta.space.clone(), meta.initial.clone()),
        Arc::clone(&sink),
    );
    let mut rng = StdRng::seed_from_u64(meta.seed);
    let mut tap = TapRecorder::new(NoopRecorder);
    let mut engine = SimEngine::new(meta.sim.clone(), scheduler, &bench);
    let mut steps = Vec::new();
    loop {
        let t = Instant::now();
        let alive = engine.step(&mut rng, &mut tap);
        steps.push(t.elapsed().as_secs_f64());
        if !alive {
            break;
        }
    }
    let result = engine.into_result();
    TimedTwin {
        reference: Reference {
            result,
            events: tap.events,
        },
        steps,
        core: sink.take(),
        surrogate: bench.cells.read(),
    }
}

/// Equal results, compared bit for bit.
pub fn same_result(a: &SimResult, b: &SimResult) -> Result<(), String> {
    let key = |r: &SimResult| {
        (
            r.jobs_completed,
            r.distinct_trials,
            r.end_time.to_bits(),
            r.trace
                .final_best()
                .map(|(v, t)| (v.to_bits(), t.to_bits())),
            r.best_config
                .as_ref()
                .map(|(c, v, res)| (format!("{c:?}"), v.to_bits(), res.to_bits())),
        )
    };
    if key(a) == key(b) {
        Ok(())
    } else {
        Err(format!(
            "result differs: jobs {} vs {}, trials {} vs {}, final {:?} vs {:?}",
            a.jobs_completed,
            b.jobs_completed,
            a.distinct_trials,
            b.distinct_trials,
            a.trace.final_best(),
            b.trace.final_best()
        ))
    }
}

/// The WAL's telemetry equals `events`, event for event.
pub fn same_events(wal: &WalContents, events: &[Event]) -> Result<(), String> {
    let mut n = 0usize;
    for (i, got) in wal.telemetry().enumerate() {
        let Some(want) = events.get(i) else {
            return Err(format!("WAL has more than {} events", events.len()));
        };
        let equal = got == want || format!("{got:?}") == format!("{want:?}");
        if !equal {
            return Err(format!(
                "event {i} differs: WAL {got:?}, in-memory {want:?}"
            ));
        }
        n += 1;
    }
    if n != events.len() {
        return Err(format!(
            "WAL has {n} events, in-memory run {}",
            events.len()
        ));
    }
    Ok(())
}

/// The final test loss of a run's incumbent.
pub fn final_loss(r: &SimResult) -> f64 {
    r.trace.final_best().map_or(f64::NAN, |(_, test)| test)
}

struct UnitOut {
    setup_s: f64,
    wall_s: f64,
    recover_s: f64,
    jobs: usize,
    store_bytes: u64,
    final_loss: f64,
    peak_rss_mb: f64,
}

/// Jobs at which a unit drops its run: mid-flight and off the checkpoint
/// cadence, so recovery must discard a WAL suffix and re-execute it.
const DROP_AT: usize = MAX_JOBS / 2 + 37;

fn check(
    outcomes: &mut Outcomes,
    dir: &Path,
    result: &SimResult,
    reference: &Reference,
) -> Option<WalContents> {
    outcomes.check(
        "durable result equals the in-memory run",
        same_result(result, &reference.result),
    );
    let wal = outcomes.check("read back the WAL", read_wal(&dir.join(WAL_FILE)))?;
    outcomes.check(
        "WAL telemetry equals the in-memory event stream",
        same_events(&wal, &reference.events),
    );
    Some(wal)
}

/// One untraced unit: create, run to the drop point, drop, resume, finish.
/// Its peak RSS is read as soon as the run ends, before any check loads
/// the store or runs the in-memory twin.
fn unit(
    dir: &Path,
    meta: &ExperimentMeta,
    drop_at: usize,
) -> Result<(UnitOut, SimResult), StoreError> {
    let t = Instant::now();
    let (_, bench) = inputs(meta.seed);
    let mut run = DurableRun::create(dir, meta, &bench, RunOptions::default())?;
    let setup_s = t.elapsed().as_secs_f64();
    let t0 = Instant::now();
    run.run_until_jobs(drop_at)?;
    drop(run);
    let t_resume = Instant::now();
    let run = DurableRun::resume(dir, meta, &bench, RunOptions::default())?;
    let recover_s = t_resume.elapsed().as_secs_f64();
    let result = run.run_to_completion()?;
    let wall_s = t0.elapsed().as_secs_f64();
    let peak = peak_rss_mb(None).unwrap_or(f64::NAN);
    let out = UnitOut {
        peak_rss_mb: peak,
        setup_s,
        wall_s,
        recover_s,
        jobs: result.jobs_completed,
        store_bytes: dir_bytes(dir),
        final_loss: final_loss(&result),
    };
    Ok((out, result))
}

/// Set-up alone: build the benchmark, create the store, drop it.
fn setup_only(dir: &Path, meta: &ExperimentMeta) -> Result<f64, StoreError> {
    let t = Instant::now();
    let (_, bench) = inputs(meta.seed);
    let run = DurableRun::create(dir, meta, &bench, RunOptions::default())?;
    let secs = t.elapsed().as_secs_f64();
    drop(run);
    let _ = std::fs::remove_dir_all(dir);
    Ok(secs)
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let scratch = ScratchDir::create(
        &ctx.work,
        &format!("{NAME}-{}", std::process::id()),
        DISK_NEED,
    )?;
    let mut report = Report::default();
    let mut outs = Vec::new();
    let mut setups = Vec::new();
    let mut traced_wall = None;
    let mut peak_reset = true;
    for (u, traced) in ctx.plan(trace, NOMINAL_UNIT_S) {
        if traced {
            traced_wall = Some(traced_unit(&mut report, scratch.path(), ctx.run_seed(0))?);
            continue;
        }
        let (meta, bench) = inputs(ctx.run_seed(u as u64));
        // Set-ups are spread over the run, so they sample the box at the
        // same moments the units do.
        for _ in 0..SETUPS_PER_UNIT {
            let dir = scratch.path().join("setup");
            if let Some(s) = report
                .outcomes
                .check("durable set-up", setup_only(&dir, &meta))
            {
                setups.push(s);
            }
        }
        let dir = scratch.path().join(format!("unit-{u}"));
        // The peak must be the durable run's, not an earlier unit's twin
        // or checks.
        peak_reset &= reset_peak_rss();
        match unit(&dir, &meta, DROP_AT) {
            Ok((out, result)) => {
                report.outcomes.record(true);
                let reference = reference(&meta, &bench);
                check(&mut report.outcomes, &dir, &result, &reference);
                setups.push(out.setup_s);
                outs.push(out);
            }
            Err(e) => {
                report.outcomes.check::<(), _>("durable unit", Err(e));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    if !peak_reset {
        report.notes.push(
            "VmHWM could not be reset: peak_rss_mb covers the whole benchmark process".to_owned(),
        );
    }
    for _ in setups.len()..MIN_SETUPS {
        let (meta, _) = inputs(ctx.run_seed(0));
        let dir = scratch.path().join("setup");
        if let Some(s) = report
            .outcomes
            .check("durable set-up", setup_only(&dir, &meta))
        {
            setups.push(s);
        }
    }
    if outs.is_empty() {
        return Err("no unit completed".to_owned());
    }
    let rates: Vec<f64> = outs.iter().map(|o| o.jobs as f64 / o.wall_s).collect();
    for (u, o) in outs.iter().enumerate() {
        report.notes.push(format!(
            "unit {u}: {} jobs in {:.4} s = {:.1} jobs/s, resume {:.4} s, set-up {:.6} s, peak {:.1} MiB",
            o.jobs, o.wall_s, rates[u], o.recover_s, o.setup_s, o.peak_rss_mb
        ));
    }
    report.set("setup_s", median(&setups));
    report.set("jobs_per_s", median(&rates));
    report.set(
        "final_loss",
        outs.iter().map(|o| o.final_loss).sum::<f64>() / outs.len() as f64,
    );
    report.set(
        "peak_rss_mb",
        median(&outs.iter().map(|o| o.peak_rss_mb).collect::<Vec<_>>()),
    );
    report.set(
        "recover_s",
        median(&outs.iter().map(|o| o.recover_s).collect::<Vec<_>>()),
    );
    report.set(
        "store_bytes_per_job",
        median(
            &outs
                .iter()
                .map(|o| o.store_bytes as f64 / o.jobs as f64)
                .collect::<Vec<_>>(),
        ),
    );
    if let Some(wall) = traced_wall {
        report.overhead(wall, &outs.iter().map(|o| o.wall_s).collect::<Vec<_>>());
    }
    report.set("error_rate", report.outcomes.error_rate());
    Ok(report)
}

/// Histogram counts and sums of the store's four hot operations.
#[derive(Debug, Clone, Copy, Default)]
struct StoreHist {
    append: (u64, f64),
    fsync: (u64, f64),
    full: (u64, f64),
    delta: (u64, f64),
}

impl StoreHist {
    fn read(m: &StoreMetrics) -> Self {
        let cs = |h: HistogramSnapshot| (h.count(), h.sum());
        StoreHist {
            append: cs(m.wal_append.snapshot()),
            fsync: cs(m.wal_fsync.snapshot()),
            full: cs(m.snapshot_write.snapshot()),
            delta: cs(m.snapshot_delta_write.snapshot()),
        }
    }

    fn minus(&self, o: &Self) -> Self {
        let d = |a: (u64, f64), b: (u64, f64)| (a.0 - b.0, a.1 - b.1);
        StoreHist {
            append: d(self.append, o.append),
            fsync: d(self.fsync, o.fsync),
            full: d(self.full, o.full),
            delta: d(self.delta, o.delta),
        }
    }

    fn add(&mut self, o: &Self) {
        let a = |x: &mut (u64, f64), y: (u64, f64)| {
            x.0 += y.0;
            x.1 += y.1;
        };
        a(&mut self.append, o.append);
        a(&mut self.fsync, o.fsync);
        a(&mut self.full, o.full);
        a(&mut self.delta, o.delta);
    }
}

/// One durable step: its wall time, whether it wrote a checkpoint (the
/// `StoreMetrics` snapshot histograms grew), and the store histograms'
/// growth during it.
#[derive(Debug, Clone, Copy)]
struct StepRec {
    secs: f64,
    ckpt: bool,
    hist: StoreHist,
}

/// Step `run` until it ends or reaches `stop_at` jobs, recording each step.
fn timed_steps(
    run: &mut DurableRun<'_>,
    metrics: &StoreMetrics,
    stop_at: Option<usize>,
    steps: &mut Vec<StepRec>,
) -> Result<(), StoreError> {
    let mut before = StoreHist::read(metrics);
    loop {
        if stop_at.is_some_and(|n| run.jobs_completed() >= n) {
            return Ok(());
        }
        let t = Instant::now();
        let alive = run.step()?;
        let secs = t.elapsed().as_secs_f64();
        let after = StoreHist::read(metrics);
        let hist = after.minus(&before);
        steps.push(StepRec {
            secs,
            ckpt: hist.full.0 + hist.delta.0 > 0,
            hist,
        });
        before = after;
        if !alive {
            return Ok(());
        }
    }
}

/// Steps of one class (checkpointing or not): count, wall time, and the
/// store histograms' growth during them.
#[derive(Debug, Default)]
struct StepClass {
    n: u64,
    secs: f64,
    hist: StoreHist,
}

/// The checkpoint document a WAL marker names: its full snapshot with the
/// marker's delta chain applied.
fn checkpoint_doc(dir: &Path, m: MarkerRef) -> Result<JsonValue, String> {
    let base = Snapshot::find(dir, m.snap).ok_or("marker names a missing snapshot")?;
    let mut doc = read_document(&base).map_err(|e| e.to_string())?;
    for k in 1..=m.delta {
        let d = DeltaDoc::load(dir, m.snap, k).map_err(|e| e.to_string())?;
        doc = delta::apply(&doc, &d.patch)?;
    }
    Ok(doc)
}

/// The traced unit: the same inputs as untraced unit 0, with every layer
/// boundary the benchmark can reach timed. Returns its wall time.
fn traced_unit(report: &mut Report, scratch: &Path, seed: u64) -> Result<f64, String> {
    let (meta, plain_bench) = inputs(seed);
    let dir = scratch.join("traced");
    let bench = TimedBench::new(&plain_bench);
    let metrics = StoreMetrics::new();
    let opts = RunOptions::default();
    let mut first = Vec::new();
    let mut second = Vec::new();

    let e = |e: StoreError| e.to_string();
    let mut run = DurableRun::create(&dir, &meta, &bench, opts).map_err(e)?;
    run.set_metrics(Arc::clone(&metrics));
    let t0 = Instant::now();
    timed_steps(&mut run, &metrics, Some(DROP_AT), &mut first).map_err(e)?;
    drop(run);
    let first_leg = t0.elapsed().as_secs_f64();

    // Recovery, decomposed by calling the public functions resume uses on
    // the same dropped store (outside the ledger's wall time).
    let wal_path = dir.join(WAL_FILE);
    let t = Instant::now();
    let contents = read_wal(&wal_path).map_err(e)?;
    let read_wal_s = t.elapsed().as_secs_f64();
    let marker = contents
        .last_snapshot_marker()
        .ok_or("dropped WAL has no checkpoint marker")?;
    let t = Instant::now();
    let base = Snapshot::find(&dir, marker.snap).ok_or("marker names a missing snapshot")?;
    let mut doc = read_document(&base).map_err(e)?;
    let deltas = (1..=marker.delta)
        .map(|k| DeltaDoc::load(&dir, marker.snap, k))
        .collect::<Result<Vec<_>, _>>()
        .map_err(e)?;
    let snapshot_read_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for d in &deltas {
        doc = delta::apply(&doc, &d.patch)?;
    }
    let delta_apply_s = t.elapsed().as_secs_f64();
    let snap = Snapshot::from_json(&doc).map_err(|e| e.to_string())?;
    let mut scheduler = StoredScheduler::from_state(meta.space.clone(), snap.scheduler.clone());
    let mut rng = StdRng::from_state(snap.rng);
    let t = Instant::now();
    let replayed = replay_scheduler(&mut scheduler, &mut rng, &contents.records, marker.events);
    let replay_s = t.elapsed().as_secs_f64();
    report
        .outcomes
        .check("replay_scheduler over the dropped WAL suffix", replayed);

    let t1 = Instant::now();
    let mut run = DurableRun::resume(&dir, &meta, &bench, opts).map_err(e)?;
    let resume_s = t1.elapsed().as_secs_f64();
    run.set_metrics(Arc::clone(&metrics));
    timed_steps(&mut run, &metrics, None, &mut second).map_err(e)?;
    let result = run.into_result();
    let wall = first_leg + t1.elapsed().as_secs_f64();

    // The twin, after the durable run so the traced wall time is taken in
    // the same order as the untraced units'.
    let twin = timed_twin(&meta, &plain_bench);
    report.outcomes.record(true);
    let wal = check(&mut report.outcomes, &dir, &result, &twin.reference);

    // The final checkpoint document, for the per-trial state size.
    let bytes_per_trial = wal
        .as_ref()
        .and_then(|w| w.last_snapshot_marker())
        .and_then(|m| checkpoint_doc(&dir, m).ok())
        .map_or(f64::NAN, |doc| {
            let mut bytes = Vec::new();
            StoreFormat::BinaryV2
                .snapshot_codec()
                .encode_document(&doc, &mut bytes);
            bytes.len() as f64 / result.distinct_trials as f64
        });
    let wal_bytes = std::fs::metadata(&wal_path).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(&dir);

    // Durable step i makes the twin's step i: the first leg is twin steps
    // 0..n1, and the resumed leg, which re-executes from the checkpoint
    // and runs to the end, is the last n2 of them.
    let n = twin.steps.len();
    let resumed_at = n.checked_sub(second.len()).filter(|&k| k <= first.len());
    report.outcomes.check(
        "durable steps map onto the in-memory twin's",
        resumed_at.ok_or(format!(
            "legs of {} and {} steps do not fit the twin's {n}",
            first.len(),
            second.len()
        )),
    );
    let resumed_at = resumed_at.unwrap_or(0);
    let paired = first
        .iter()
        .zip(&twin.steps)
        .chain(second.iter().zip(twin.steps.iter().skip(resumed_at)));
    // Twin time of the durable run's plain and checkpointing steps.
    let (mut twin_plain, mut twin_ckpt) = (0.0, 0.0);
    let (mut plain, mut ckpt) = (StepClass::default(), StepClass::default());
    for (step, twin_s) in paired {
        let (class, twin_sum) = if step.ckpt {
            (&mut ckpt, &mut twin_ckpt)
        } else {
            (&mut plain, &mut twin_plain)
        };
        class.n += 1;
        class.secs += step.secs;
        class.hist.add(&step.hist);
        *twin_sum += twin_s;
    }

    // Ledger. The simulator, core and surrogate work is the twin's time
    // for the steps the durable run made, split in the twin's proportions;
    // the store's is measured on the durable run. Nothing is derived as a
    // remainder, so the residual checks the two clocks against each other.
    let twin_total: f64 = twin.steps.iter().sum();
    let share = (twin_plain + twin_ckpt) / twin_total.max(1e-12);
    let (advance, loss, profile) = twin.surrogate;
    let core = &twin.core;
    let suggest_s = core.suggest_self_s() * share;
    let observe_s = core.observe_self_s() * share;
    let surrogate_s = [advance.secs(), loss.secs(), profile.secs()].map(|x| x * share);
    let sim_self = twin_plain + twin_ckpt - suggest_s - observe_s - surrogate_s.iter().sum::<f64>();
    let wal_fsync_s = plain.hist.fsync.1;
    let wal_append_s = plain.hist.append.1 - plain.hist.fsync.1;
    let checkpoint_s = ckpt.secs - twin_ckpt;
    let snapshot_full_s = ckpt.hist.full.1;
    let snapshot_delta_s = ckpt.hist.delta.1;

    let mut ledger = Ledger::new("wall time of the traced run (steps, drop, resume)", wall);
    ledger.add("surrogate.advance_s", surrogate_s[0]);
    ledger.add("surrogate.loss_s", surrogate_s[1]);
    ledger.add("surrogate.profile_s", surrogate_s[2]);
    ledger.add("core.suggest_s", suggest_s);
    ledger.add("core.observe_s", observe_s);
    ledger.add("sim.step_self_s", sim_self);
    ledger.add("store.wal_append_s", wal_append_s);
    ledger.add("store.wal_fsync_s", wal_fsync_s);
    ledger.add("store.snapshot_full_s", snapshot_full_s);
    ledger.add("store.snapshot_delta_s", snapshot_delta_s);
    ledger.add(
        "store.checkpoint_other_s",
        checkpoint_s - snapshot_full_s - snapshot_delta_s,
    );
    ledger.add("store.resume_s", resume_s);
    report.ledger(&ledger);
    report.notes.push(format!(
        "sim.step_self_s = {sim_self:.4} s, measured on the in-memory twin: {:.4} s of its \
         {n} steps ({:.4} s) match the durable run's {} steps, minus the twin's core and \
         surrogate time in them{}",
        twin_plain + twin_ckpt,
        twin_total,
        plain.n + ckpt.n,
        if sim_self < 0.0 {
            " (NEGATIVE: the layers over-attribute)"
        } else {
            ""
        }
    ));
    report.notes.push(format!(
        "plain steps: durable {:.4} s = twin {twin_plain:.4} s + WAL appends and fsyncs \
         {:.4} s + {:.4} s unaccounted",
        plain.secs,
        wal_append_s + wal_fsync_s,
        plain.secs - twin_plain - wal_append_s - wal_fsync_s
    ));
    report.notes.push(format!(
        "store.checkpoint_s = {checkpoint_s:.4} s = {:.1}% of the traced wall time {wall:.4} s \
         ({} checkpointing steps at {:.4} s, minus the twin's {twin_ckpt:.4} s for the same steps)",
        100.0 * checkpoint_s / wall,
        ckpt.n,
        ckpt.secs,
    ));
    report.notes.push(format!(
        "recovery: resume {resume_s:.4} s; its parts timed on the same store: read_wal \
         {read_wal_s:.4} s, snapshot read {snapshot_read_s:.4} s, {} delta applies \
         {delta_apply_s:.4} s, other {:.4} s; replay_scheduler of the {} -event suffix \
         (not on resume's path) {replay_s:.4} s",
        marker.delta,
        resume_s - read_wal_s - snapshot_read_s - delta_apply_s,
        contents.telemetry_len() - marker.events
    ));

    let (bench_advance, _, bench_profile) = bench.cells.read();
    report.set("core.suggest_n", core.suggest.n as f64);
    report.set("core.observe_n", core.observe.n as f64);
    report.set("core.wait_share", core.wait_share());
    report.set("surrogate.advance_n", bench_advance.n as f64);
    report.set("surrogate.profile_n", bench_profile.n as f64);
    report.set("sim.step_n", (plain.n + ckpt.n) as f64);
    report.set("sim.trials", result.distinct_trials as f64);
    report.set("sim.bytes_per_trial", bytes_per_trial);
    let mut all = StoreHist::default();
    all.add(&plain.hist);
    all.add(&ckpt.hist);
    report.set("store.wal_append_n", all.append.0 as f64);
    report.set("store.wal_fsync_n", all.fsync.0 as f64);
    report.set("store.checkpoint_n", ckpt.n as f64);
    report.set("store.checkpoint_s", checkpoint_s);
    report.set(
        "store.bytes_written",
        (metrics.snapshot_full_bytes.get() + metrics.snapshot_delta_bytes.get() + wal_bytes) as f64,
    );
    report.set("store.read_wal_s", read_wal_s);
    report.set("store.snapshot_read_s", snapshot_read_s);
    report.set("store.delta_apply_s", delta_apply_s);
    report.set("store.replay_s", replay_s);
    Ok(wall)
}

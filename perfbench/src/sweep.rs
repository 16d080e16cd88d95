//! `model-sweep`: an in-memory sweep of ASHA+TPE and ASHA+GP cells (25
//! simulated workers each, several seeds) through
//! `asha_bench::run_experiment_parallel` on `nproc` threads (at most 2).
//! The model-based samplers do most of the work; the store and the service
//! are bypassed. `final_loss` catches a sampler shortcut that trades
//! quality for speed, and one cell per run is re-run on the sequential
//! runner and must match bit for bit.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use asha_baselines::{GpSampler, GpSamplerConfig, TpeConfig, TpeSampler};
use asha_bench::{
    run_experiment, run_experiment_parallel, ExperimentConfig, MethodResult, MethodSpec,
};
use asha_core::telemetry::NoopRecorder;
use asha_core::{Asha, AshaConfig, ConfigSampler, Scheduler};
use asha_sim::{SimConfig, SimEngine};
use asha_space::SearchSpace;
use asha_surrogate::{presets, BenchmarkModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{
    CoreSink, DecisionLog, LoggingScheduler, ReplayScheduler, TimedBench, TimedSampler,
    TimedScheduler,
};
use crate::stats::{median, Ledger, Outcomes};
use crate::sys::{load_threads, peak_rss_mb};
use crate::{Ctx, Report};

/// Workload name.
pub const NAME: &str = "model-sweep";
const WORKERS: usize = 25;
/// The horizon is long enough that each cell's fixed job budget ends it,
/// so every seed does the same amount of work.
const HORIZON: f64 = 2000.0;
const MAX_JOBS: usize = 16_000;
/// Seeds per sampler in one unit: 2 samplers x 3 seeds = 6 cells.
const TRIALS: usize = 3;
const SURFACE_SEED: u64 = 2020;
/// Wall seconds one unit takes on a 2-core box; sets the unit count.
const NOMINAL_UNIT_S: f64 = 4.0;
/// Set-up takes microseconds: it is timed in batches of this many, a few
/// batches before every unit and at least `MIN_SETUP_BATCHES` per run, and
/// the median batch is reported per set-up.
const SETUP_BATCH: usize = 200;
const SETUP_BATCHES_PER_UNIT: usize = 5;
const MIN_SETUP_BATCHES: usize = 40;

type Sampler = fn(&SearchSpace) -> Box<dyn ConfigSampler>;

const SAMPLERS: [(&str, Sampler); 2] = [
    ("ASHA+TPE", |s| {
        Box::new(TpeSampler::new(s.clone(), TpeConfig::default()))
    }),
    ("ASHA+GP", |s| {
        Box::new(GpSampler::new(s.clone(), GpSamplerConfig::default()))
    }),
];

/// Where the traced sweep's decorators report: the scheduler and sampler
/// timings, and each cell's decision log.
struct Taps {
    sink: Arc<CoreSink>,
    logs: Arc<Mutex<Vec<DecisionLog>>>,
}

/// The sweep's methods; with taps, every scheduler and sampler is timed
/// and every cell's decisions are logged for the simulator replay.
fn methods(space: &SearchSpace, taps: Option<&Taps>) -> Vec<MethodSpec> {
    SAMPLERS
        .iter()
        .enumerate()
        .map(|(m, &(name, make))| {
            let space = space.clone();
            let taps = taps.map(|t| (Arc::clone(&t.sink), Arc::clone(&t.logs)));
            MethodSpec {
                name: name.to_owned(),
                factory: Box::new(move || -> Box<dyn Scheduler> {
                    let cfg = AshaConfig::new(1.0, 256.0, 4.0);
                    match &taps {
                        None => Box::new(Asha::with_sampler(space.clone(), cfg, make(&space))),
                        Some((sink, logs)) => {
                            let sampler = TimedSampler::new(make(&space), Arc::clone(sink));
                            let asha = Asha::with_sampler(space.clone(), cfg, Box::new(sampler));
                            let timed = TimedScheduler::new(asha, Arc::clone(sink));
                            Box::new(LoggingScheduler::new(timed, m, Arc::clone(logs)))
                        }
                    }
                }),
            }
        })
        .collect()
}

/// Seconds per set-up, timed over one batch: build the surrogate and
/// every method's scheduler and sampler.
fn setup_batch() -> f64 {
    let t = Instant::now();
    for _ in 0..SETUP_BATCH {
        let bench = presets::cifar10_cuda_convnet(SURFACE_SEED);
        let methods = methods(bench.space(), None);
        for m in &methods {
            drop((m.factory)());
        }
    }
    t.elapsed().as_secs_f64() / SETUP_BATCH as f64
}

fn config(ctx: &Ctx, unit: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(WORKERS, HORIZON, TRIALS, 1.0);
    cfg.sim_tweak = |c| c.with_max_jobs(MAX_JOBS);
    cfg.base_seed = ctx.run_seed((unit * TRIALS) as u64);
    cfg
}

/// Final incumbent test loss of every cell, in cell order.
fn final_losses(results: &[MethodResult]) -> Vec<f64> {
    results
        .iter()
        .flat_map(|r| r.curves.iter().map(|c| c.last_value().unwrap_or(f64::NAN)))
        .collect()
}

fn jobs(results: &[MethodResult]) -> f64 {
    results.iter().map(|r| r.mean_jobs * TRIALS as f64).sum()
}

/// Every cell ran and ended with a finite incumbent.
fn check_cells(outcomes: &mut Outcomes, results: &[MethodResult]) {
    for r in results {
        for c in &r.curves {
            let ok = c.last_value().is_some_and(f64::is_finite);
            if !ok {
                eprintln!("perfbench: FAILED {} cell has no finite incumbent", r.name);
            }
            outcomes.record(ok);
        }
    }
}

fn same_curves(a: &[MethodResult], b: &[MethodResult]) -> bool {
    let bits = |rs: &[MethodResult]| -> Vec<Vec<(u64, u64)>> {
        rs.iter()
            .flat_map(|r| &r.curves)
            .map(|c| {
                c.points()
                    .iter()
                    .map(|&(t, l)| (t.to_bits(), l.to_bits()))
                    .collect()
            })
            .collect()
    };
    bits(a) == bits(b)
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let threads = load_threads();
    let bench = presets::cifar10_cuda_convnet(SURFACE_SEED);
    let mut setups = Vec::new();
    let methods = methods(bench.space(), None);
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let mut losses = Vec::new();
    let mut first: Option<Vec<MethodResult>> = None;
    let mut traced_wall = None;
    for (u, traced) in ctx.plan(trace, NOMINAL_UNIT_S) {
        if traced {
            let untraced = first
                .as_deref()
                .ok_or("traced unit before its untraced twin")?;
            traced_wall = Some(traced_unit(&mut report, ctx, &bench, threads, untraced));
            continue;
        }
        // Set-up batches are spread over the run, so they sample the box
        // at the same moments the units do.
        setups.extend((0..SETUP_BATCHES_PER_UNIT).map(|_| setup_batch()));
        let cfg = config(ctx, u);
        let t = Instant::now();
        let results = run_experiment_parallel(&bench, &methods, &cfg, threads);
        let wall = t.elapsed().as_secs_f64();
        check_cells(&mut report.outcomes, &results);
        rates.push(jobs(&results) / wall);
        report.notes.push(format!(
            "unit {u}: {} jobs in {wall:.4} s = {:.1} jobs/s",
            jobs(&results),
            jobs(&results) / wall
        ));
        walls.push(wall);
        losses.extend(final_losses(&results));
        if first.is_none() {
            first = Some(results);
        }
    }
    let peak = peak_rss_mb(None).unwrap_or(f64::NAN);
    while setups.len() < MIN_SETUP_BATCHES {
        setups.push(setup_batch());
    }
    let first = first.expect("the plan has an untraced unit");

    // Spot check: one cell of unit 0, chosen by the seed, re-run on the
    // sequential runner.
    let m = (ctx.seed % SAMPLERS.len() as u64) as usize;
    let t = (ctx.seed / SAMPLERS.len() as u64) as usize % TRIALS;
    let mut cfg = config(ctx, 0);
    cfg.base_seed += t as u64;
    cfg.trials = 1;
    let seq = run_experiment(&bench, &methods[m..=m], &cfg);
    let want = &first[m].curves[t];
    let ok = seq[0].curves[0].points() == want.points();
    if !ok {
        eprintln!("perfbench: FAILED spot-check cell {m}/{t} differs from the sequential runner");
    }
    report.outcomes.record(ok);

    report.set("setup_s", median(&setups));
    report.set("jobs_per_s", median(&rates));
    report.set(
        "final_loss",
        losses.iter().sum::<f64>() / losses.len() as f64,
    );
    report.set("peak_rss_mb", peak);
    if let Some(wall) = traced_wall {
        report.overhead(wall, &walls);
    }
    report.set("error_rate", report.outcomes.error_rate());
    Ok(report)
}

/// The simulator's own time, measured by replaying every logged cell of
/// the traced sweep on this thread with [`ReplayScheduler`]: the same
/// decisions and random draws, no model behind them. Each replay must
/// reproduce its cell's incumbent curve bit for bit.
struct Replay {
    /// Replay wall time minus the surrogate and the replayed draws.
    sim_self_s: f64,
    wall_s: f64,
    nested_s: f64,
    cells: usize,
}

fn replay_cells(
    outcomes: &mut Outcomes,
    plain: &dyn BenchmarkModel,
    cfg: &ExperimentConfig,
    logs: &[DecisionLog],
    traced: &[MethodResult],
) -> Replay {
    let bench = TimedBench::new(plain);
    let sim = (cfg.sim_tweak)(SimConfig::new(cfg.workers, cfg.horizon));
    let (mut wall_s, mut sched_s, mut cells) = (0.0, 0.0, 0);
    for log in logs {
        let seed = |t: usize| cfg.base_seed + t as u64;
        // The cell's trial: the one whose fresh RNG makes the log's first draw.
        let trial = (0..cfg.trials).find(|&t| {
            log.first
                .as_ref()
                .is_some_and(|f| f.matches(&mut StdRng::seed_from_u64(seed(t))))
        });
        let Some(t) = trial else {
            outcomes.check::<(), _>("name the cell of a decision log", Err("no trial matches"));
            continue;
        };
        let mut rng = StdRng::seed_from_u64(seed(t));
        let start = Instant::now();
        let mut engine = SimEngine::new(sim.clone(), ReplayScheduler::new(log), &bench);
        while engine.step(&mut rng, &mut NoopRecorder) {}
        wall_s += start.elapsed().as_secs_f64();
        sched_s += engine.scheduler().tally.secs();
        let overrun = engine.scheduler().overrun;
        let curve = engine.into_result().trace.incumbent_curve();
        let same = overrun == 0 && curve.points() == traced[log.method].curves[t].points();
        outcomes.check(
            "replayed cell equals the traced one",
            if same {
                Ok(())
            } else {
                Err(format!("method {} trial {t}", log.method))
            },
        );
        cells += 1;
    }
    let (advance, loss, profile) = bench.cells.read();
    let nested_s = sched_s + advance.secs() + loss.secs() + profile.secs();
    Replay {
        sim_self_s: wall_s - nested_s,
        wall_s,
        nested_s,
        cells,
    }
}

/// The traced unit: unit 0 again, with every scheduler, sampler and the
/// surrogate wrapped. Returns its wall time.
fn traced_unit(
    report: &mut Report,
    ctx: &Ctx,
    plain: &dyn BenchmarkModel,
    threads: usize,
    untraced: &[MethodResult],
) -> f64 {
    let bench = TimedBench::new(plain);
    let epoch = Instant::now();
    let taps = Taps {
        sink: CoreSink::new(epoch),
        logs: Arc::new(Mutex::new(Vec::new())),
    };
    let methods = methods(plain.space(), Some(&taps));
    let cfg = config(ctx, 0);
    let results = run_experiment_parallel(&bench, &methods, &cfg, threads);
    let wall = epoch.elapsed().as_secs_f64();
    drop(methods);
    let same = same_curves(&results, untraced);
    if !same {
        eprintln!("perfbench: FAILED traced sweep differs from the untraced one");
    }
    report.outcomes.record(same);

    let core = taps.sink.take();
    let (advance, loss, profile) = bench.cells.read();
    let logs = std::mem::take(&mut *taps.logs.lock().expect("decision logs"));
    let replay = replay_cells(&mut report.outcomes, plain, &cfg, &logs, &results);
    let used = threads.min(SAMPLERS.len() * TRIALS);
    let base = used as f64 * wall;
    let busy: f64 = core.lifetimes.iter().map(|s| s.end - s.start).sum();
    // Idle: each runner thread's wait before its first cell and after its
    // last one.
    let idle: f64 = (0..used)
        .map(|th| {
            let mine = core.lifetimes.iter().filter(|s| s.thread == th);
            let first = mine.clone().map(|s| s.start).fold(wall, f64::min);
            let last = mine.map(|s| s.end).fold(first, f64::max);
            first + (wall - last).max(0.0)
        })
        .sum();

    let mut ledger = Ledger::new(
        &format!("runner thread-seconds of the traced sweep ({used} threads x wall)"),
        base,
    );
    ledger.add("baselines.propose_s", core.propose.secs());
    ledger.add("baselines.record_s", core.record.secs());
    ledger.add("core.suggest_s", core.suggest_self_s());
    ledger.add("core.observe_s", core.observe_self_s());
    ledger.add("surrogate.advance_s", advance.secs());
    ledger.add("surrogate.loss_s", loss.secs());
    ledger.add("surrogate.profile_s", profile.secs());
    ledger.add("sim.step_self_s", replay.sim_self_s);
    ledger.add("runner.idle_s", idle);
    report.ledger(&ledger);
    report.notes.push(format!(
        "sim.step_self_s = {:.4} s, measured by replaying the {} logged cells on one thread: \
         {:.4} s of replay minus {:.4} s in the surrogate and the replayed draws{}",
        replay.sim_self_s,
        replay.cells,
        replay.wall_s,
        replay.nested_s,
        if replay.sim_self_s < 0.0 {
            " (NEGATIVE: the layers over-attribute)"
        } else {
            ""
        }
    ));
    report.notes.push(format!(
        "baselines.propose_s = {:.4} s = {:.1}% of {base:.4} runner thread-seconds \
         ({} proposals; {:.1}% of the {busy:.4} s the cells were busy)",
        core.propose.secs(),
        100.0 * core.propose.secs() / base,
        core.propose.n,
        100.0 * core.propose.secs() / busy
    ));
    report.set("core.suggest_n", core.suggest.n as f64);
    report.set("core.observe_n", core.observe.n as f64);
    report.set("core.wait_share", core.wait_share());
    report.set("baselines.propose_n", core.propose.n as f64);
    report.set("surrogate.advance_n", advance.n as f64);
    report.set("surrogate.profile_n", profile.n as f64);
    report.set("runner.busy_share", busy / base);
    report.set(
        "sim.trials",
        results.iter().map(|r| r.mean_configs * TRIALS as f64).sum(),
    );
    wall
}

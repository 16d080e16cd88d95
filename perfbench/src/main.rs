//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload durable-500w|model-sweep|service-mix|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload makes its inputs from `--seed`, runs about `--seconds` of
//! work, checks the program's outputs (every mismatch, error or timeout is
//! one failed operation), prints every metric by name with its unit, and
//! ends with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run does an untraced, a traced and another untraced pass over the
//! same inputs and reports the per-layer metrics of the traced pass, the
//! ledger of layer self-times against their time base with its residual,
//! and the tracing overhead (traced minus untraced wall time). A failed
//! check exits 1.

mod durable;
mod layers;
mod service;
mod stats;
mod sweep;
mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use stats::{Ledger, Outcomes};

/// End-to-end metrics, reported by every workload with `--trace 0`
/// (mirrors `end_to_end` in `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("final_loss", "loss"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// a workload does not exercise reads 0 (mirrors `per_layer` in
/// `BENCHMARK.json`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.suggest_n", "count"),
    ("core.suggest_s", "s"),
    ("core.observe_n", "count"),
    ("core.observe_s", "s"),
    ("core.wait_share", "ratio"),
    ("baselines.propose_n", "count"),
    ("baselines.propose_s", "s"),
    ("baselines.record_s", "s"),
    ("surrogate.advance_n", "count"),
    ("surrogate.advance_s", "s"),
    ("surrogate.loss_s", "s"),
    ("surrogate.profile_n", "count"),
    ("surrogate.profile_s", "s"),
    ("sim.step_n", "count"),
    ("sim.step_self_s", "s"),
    ("sim.trials", "count"),
    ("sim.bytes_per_trial", "B"),
    ("sim.run_cpu_s", "s"),
    ("store.wal_append_n", "count"),
    ("store.wal_append_s", "s"),
    ("store.wal_fsync_n", "count"),
    ("store.wal_fsync_s", "s"),
    ("store.checkpoint_n", "count"),
    ("store.checkpoint_s", "s"),
    ("store.snapshot_full_s", "s"),
    ("store.snapshot_delta_s", "s"),
    ("store.checkpoint_other_s", "s"),
    ("store.bytes_written", "B"),
    ("store.resume_s", "s"),
    ("store.read_wal_s", "s"),
    ("store.snapshot_read_s", "s"),
    ("store.delta_apply_s", "s"),
    ("store.replay_s", "s"),
    ("store.commit_requests", "count"),
    ("store.commit_fsyncs", "count"),
    ("store.commit_wait_s", "s"),
    ("store.commit_cpu_s", "s"),
    ("service.requests_n", "count"),
    ("service.request_errors", "count"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.execute_p99_ms", "ms"),
    ("service.reactor_iterations", "count"),
    ("service.fanout_frames", "count"),
    ("service.events_lagged", "count"),
    ("service.codec_decode_s", "s"),
    ("service.reactor_cpu_s", "s"),
    ("service.worker_cpu_s", "s"),
    ("service.tailer_cpu_s", "s"),
    ("service.other_cpu_s", "s"),
    ("runner.busy_share", "ratio"),
    ("runner.idle_s", "s"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.base_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.residual_share", "ratio"),
    ("trace.top_share", "ratio"),
    ("recover_s", "s"),
    ("store_bytes_per_job", "B"),
    ("ctl_p50_ms", "ms"),
    ("ctl_p99_ms", "ms"),
    ("ctl_n", "count"),
    ("error_rate", "ratio"),
];

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &[durable::NAME, sweep::NAME, service::NAME];

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of work to aim for.
    pub seconds: f64,
    /// Scratch space under the working directory (removed when the run ends).
    pub work: PathBuf,
}

impl Ctx {
    /// How many units of `nominal_s` seconds fill `--seconds`: a pure
    /// function of the arguments, so the same seed and seconds always
    /// measure the same inputs, however fast the box is.
    pub fn units(&self, nominal_s: f64) -> usize {
        ((self.seconds / nominal_s).round() as usize).max(1)
    }

    /// The units a run measures, as `(inputs index, traced)`: `--trace 0`
    /// runs units `0..n` untraced; `--trace 1` runs unit 0 untraced, traced
    /// and untraced again, so warm-up order does not bias the overhead.
    pub fn plan(&self, trace: bool, nominal_s: f64) -> Vec<(usize, bool)> {
        if trace {
            vec![(0, false), (0, true), (0, false)]
        } else {
            (0..self.units(nominal_s)).map(|u| (u, false)).collect()
        }
    }

    /// Seed of the `k`-th simulated run made from the workload seed.
    pub fn run_seed(&self, k: u64) -> u64 {
        self.seed.wrapping_mul(1000).wrapping_add(k)
    }
}

/// One workload's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed.
    pub outcomes: Outcomes,
    /// Every metric the workload measured, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result (ledgers, shares).
    pub notes: Vec<String>,
}

impl Report {
    /// Set a metric (must be one of [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Record a ledger: its entries as metrics, its residual and top share
    /// as `trace.*`, and the rendered table as a note.
    pub fn ledger(&mut self, ledger: &Ledger) {
        for (name, secs) in &ledger.entries {
            if let Some((known, _)) = PER_LAYER.iter().find(|(n, _)| n == name) {
                self.metrics.insert(known, *secs);
            }
        }
        self.set("trace.base_s", ledger.base_s);
        self.set("trace.residual_s", ledger.residual());
        self.set("trace.residual_share", ledger.residual_share());
        if let Some((name, share)) = ledger.top() {
            self.set("trace.top_share", share);
            self.notes.push(format!(
                "largest layer: {name} holds {:.1}% of {} ({:.4} s)",
                share * 100.0,
                ledger.base_name,
                ledger.base_s
            ));
        }
        self.notes.push(ledger.render());
        self.notes.push(format!(
            "residual {:.4} s = {:.1}% of the base ({})",
            ledger.residual(),
            ledger.residual_share() * 100.0,
            if ledger.residual_share() <= 0.10 {
                "within 10%"
            } else {
                "OUTSIDE 10%"
            }
        ));
    }
}

impl Report {
    /// Record the tracing overhead: traced wall time minus the mean of the
    /// untraced runs of the same inputs.
    pub fn overhead(&mut self, traced: f64, untraced: &[f64]) {
        let base = untraced.iter().sum::<f64>() / untraced.len() as f64;
        self.set("trace.wall_s", traced);
        self.set("trace.untraced_wall_s", base);
        self.set("trace.overhead_s", traced - base);
        self.notes.push(format!(
            "tracing overhead: traced {traced:.4} s - untraced {base:.4} s (mean of {untraced:.4?}) = {:.4} s",
            traced - base
        ));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Print the report (every metric by name with its unit) and the final
/// JSON line; returns whether the run counts as correct.
fn emit(workload: &str, trace: bool, report: &Report) -> bool {
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut correct = report.outcomes.failed == 0 && report.outcomes.attempted > 0;
    for note in &report.notes {
        println!("{note}");
    }
    let mut json = Vec::new();
    for &(name, unit) in wanted {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            correct = false;
        }
        println!("{workload} {name} = {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    // Reported with every run, not only with the traced one.
    for name in [
        "error_rate",
        "recover_s",
        "store_bytes_per_job",
        "ctl_p50_ms",
        "ctl_p99_ms",
        "ctl_n",
    ] {
        if !trace {
            if let Some(v) = report.metrics.get(name) {
                let unit = PER_LAYER
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or("", |(_, u)| u);
                println!("{workload} {name} = {v} {unit}");
            }
        }
    }
    println!(
        "{workload} operations: attempted {} failed {} (error_rate {})",
        report.outcomes.attempted,
        report.outcomes.failed,
        report.outcomes.error_rate()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.outcomes.attempted.max(1),
        report.outcomes.failed,
        json.join(", ")
    );
    correct
}

/// `--workload all`: run each workload in its own process (so each one's
/// peak RSS is its own), relay its output, and fail if any check failed.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for workload in WORKLOADS {
        let mut args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                args.push(a.clone());
            }
        }
        args.extend(["--workload".to_owned(), (*workload).to_owned()]);
        let out = match std::process::Command::new(&exe).args(&args).output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: running {workload}: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        ok &= out.status.success();
        let result = stdout
            .lines()
            .last()
            .and_then(|l| asha_metrics::JsonValue::parse(l).ok());
        let field = |key| result.as_ref().and_then(|r| r.get(key)?.as_u64());
        attempted += field("attempted").unwrap_or(0);
        // A workload that printed no result counts as one failure.
        failed += field("failed").unwrap_or(1);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        ok && failed == 0,
        attempted.max(1)
    );
    if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(service::CHILD_FLAG) {
        return service::serve_child(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    println!("box: {}", sys::fingerprint());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: PathBuf::from(".bench_work"),
    };
    let result = match args.workload.as_str() {
        durable::NAME => durable::run(&ctx, args.trace),
        sweep::NAME => sweep::run(&ctx, args.trace),
        _ => service::run(&ctx, args.trace),
    };
    match result {
        Ok(report) => {
            if emit(&args.workload, args.trace, &report) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must not drift apart.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = asha_metrics::JsonValue::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let items = match doc.get(key) {
                Some(asha_metrics::JsonValue::Arr(items)) => items,
                _ => panic!("{key} missing"),
            };
            let listed: Vec<(&str, &str)> = items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.as_str()).unwrap(),
                        m.get("unit").and_then(|v| v.as_str()).unwrap(),
                    )
                })
                .collect();
            assert_eq!(listed, list.to_vec(), "{key}");
        }
    }

    #[test]
    fn units_are_a_function_of_the_arguments() {
        let ctx = |seconds| Ctx {
            seed: 1,
            seconds,
            work: PathBuf::new(),
        };
        assert_eq!(ctx(20.0).units(5.0), 4);
        assert_eq!(ctx(1.0).units(5.0), 1);
        assert_eq!(ctx(22.0).units(4.0), 6);
    }
}

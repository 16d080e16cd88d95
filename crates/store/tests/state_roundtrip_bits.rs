//! Bit-exact round trips of the typed states a checkpoint holds.
//!
//! A resumed run diffs its next checkpoint against the *decoded* previous
//! one, so `from_json(to_json(s))` must give back `s` with every `f64`
//! equal by `to_bits` — `-0.0`, ±inf, subnormals and extremes included —
//! through the JSON tree and through both on-disk document codecs. The one
//! exception is the codec's documented one: every NaN is written as
//! `"nan"`, so a NaN payload comes back as the canonical `f64::NAN` (the
//! delta builder compares all NaNs as one value for exactly this reason).
//! Derived `PartialEq` cannot check any of this (`NaN != NaN`,
//! `0.0 == -0.0`), so states are compared float by float.

use asha_core::{
    AshaConfig, AshaState, AsyncHyperbandState, BracketState, HyperbandConfig, Job, RungState,
    ShaConfig, SyncShaState, TrialId,
};
use asha_metrics::{FaultStats, JsonValue, TraceEvent};
use asha_sim::{PendingJob, SimRunState, TrialSlotState};
use asha_space::{Config, ParamValue};
use asha_store::codec;
use asha_store::format::decode_any_document;
use asha_store::StoreFormat;
use asha_surrogate::TrainingState;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A float from the classes a round trip can get wrong.
fn float(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..10) {
        0 => -0.0,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        // NaNs with random sign and payload, quiet or signalling.
        3 => f64::from_bits(
            0x7ff0_0000_0000_0000 | rng.gen_range(1..1u64 << 52) | (rng.gen::<u64>() & 1 << 63),
        ),
        4 => f64::from_bits(rng.gen_range(1..1u64 << 52)), // subnormal
        5 => f64::MAX * if rng.gen() { 1.0 } else { -1.0 },
        6 => rng.gen_range(0..1_000_000u64) as f64,
        // Any finite bit pattern.
        _ => loop {
            let x = f64::from_bits(rng.gen());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn vec_of<T>(rng: &mut StdRng, max: usize, mut f: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
    let n = rng.gen_range(0..=max);
    (0..n).map(|_| f(rng)).collect()
}

fn config(rng: &mut StdRng) -> Config {
    Config::new(vec_of(rng, 3, |rng| match rng.gen_range(0..3) {
        0 => ParamValue::Float(float(rng)),
        1 => ParamValue::Int(rng.gen()),
        _ => ParamValue::Index(rng.gen_range(0..10)),
    }))
}

fn job(rng: &mut StdRng) -> Job {
    Job {
        trial: TrialId(rng.gen()),
        config: config(rng),
        rung: rng.gen_range(0..6),
        resource: float(rng),
        bracket: rng.gen_range(0..4),
        inherit_from: rng.gen::<bool>().then(|| TrialId(rng.gen())),
    }
}

fn pairs(rng: &mut StdRng) -> Vec<(u64, f64)> {
    vec_of(rng, 4, |rng| (rng.gen(), float(rng)))
}

fn trial_configs(rng: &mut StdRng) -> Vec<(u64, Config)> {
    vec_of(rng, 3, |rng| (rng.gen(), config(rng)))
}

fn sim_state(rng: &mut StdRng) -> SimRunState {
    SimRunState {
        now: float(rng),
        seq: rng.gen(),
        free_workers: rng.gen_range(0..500),
        jobs_completed: rng.gen_range(0..100_000),
        distinct_trials: rng.gen_range(0..100_000),
        faults: FaultStats {
            jobs_dropped: rng.gen_range(0..9),
            jobs_retried: rng.gen_range(0..9),
            jobs_timed_out: rng.gen_range(0..9),
            jobs_panicked: rng.gen_range(0..9),
            jobs_poisoned: rng.gen_range(0..9),
        },
        scheduler_finished: rng.gen(),
        incumbent_val: float(rng),
        best_config: rng
            .gen::<bool>()
            .then(|| (config(rng), float(rng), float(rng))),
        slots: vec_of(rng, 4, |rng| TrialSlotState {
            trial: rng.gen(),
            state: TrainingState {
                resource: float(rng),
                loss: float(rng),
                asym_jitter: float(rng),
                rate_jitter: float(rng),
                divergence_draw: float(rng),
                diverged: rng.gen(),
            },
            time_per_unit: float(rng),
            completed: rng.gen(),
        }),
        pending: vec_of(rng, 4, |rng| PendingJob {
            time: float(rng),
            seq: rng.gen(),
            job: job(rng),
            dropped: rng.gen(),
        }),
        retry: vec_of(rng, 3, job),
        searcher: "ASHA".to_owned(),
        trace: vec_of(rng, 4, |rng| TraceEvent {
            time: float(rng),
            trial: rng.gen(),
            bracket: rng.gen_range(0..4),
            rung: rng.gen_range(0..6),
            resource: float(rng),
            val_loss: float(rng),
            test_loss: float(rng),
        }),
    }
}

fn asha_state(rng: &mut StdRng) -> AshaState {
    let mut config = AshaConfig::new(float(rng), float(rng), float(rng));
    config.max_trials = rng.gen::<bool>().then(|| rng.gen_range(0..1000));
    AshaState {
        config,
        rungs: vec_of(rng, 3, |rng| RungState {
            records: pairs(rng),
            promoted: vec_of(rng, 3, |rng| rng.gen()),
        }),
        trials: trial_configs(rng),
        outstanding: vec_of(rng, 3, |rng| (rng.gen(), rng.gen_range(0..6))),
        next_trial: rng.gen(),
        trials_started: rng.gen_range(0..1000),
        name: "ASHA".to_owned(),
    }
}

fn sync_sha_state(rng: &mut StdRng) -> SyncShaState {
    SyncShaState {
        config: ShaConfig::new(rng.gen_range(1..100), float(rng), float(rng), float(rng)),
        brackets: vec_of(rng, 3, |rng| BracketState {
            remaining_to_sample: rng.gen_range(0..100),
            queue: trial_configs(rng),
            outstanding: rng.gen_range(0..100),
            issued: vec_of(rng, 3, |rng| rng.gen()),
            results: pairs(rng),
            rung: rng.gen_range(0..6),
            done: rng.gen(),
        }),
        trial_meta: vec_of(rng, 3, |rng| (rng.gen(), rng.gen_range(0..4), config(rng))),
        next_trial: rng.gen(),
        name: "SyncSHA".to_owned(),
    }
}

fn hyperband_state(rng: &mut StdRng) -> AsyncHyperbandState {
    // The Hyperband config is validated on decode, so it stays in range.
    let min = rng.gen_range(0.5..4.0);
    AsyncHyperbandState {
        config: HyperbandConfig::new(
            min,
            min * rng.gen_range(1.0..100.0),
            rng.gen_range(2.0..5.0),
        ),
        brackets: vec_of(rng, 3, asha_state),
        spent: float(rng),
        current: rng.gen_range(0..4),
        name: "AsyncHyperband".to_owned(),
    }
}

/// `decoded` is bit-for-bit `original`, but for NaN payloads, which decode
/// as the canonical NaN.
fn same_float(original: f64, decoded: f64) -> bool {
    if original.is_nan() {
        decoded.to_bits() == f64::NAN.to_bits()
    } else {
        decoded.to_bits() == original.to_bits()
    }
}

fn config_floats(c: &Config, out: &mut Vec<f64>) {
    for v in c.values() {
        if let ParamValue::Float(x) = v {
            out.push(*x);
        }
    }
}

fn job_floats(j: &Job, out: &mut Vec<f64>) {
    config_floats(&j.config, out);
    out.push(j.resource);
}

fn sim_floats(s: &SimRunState) -> Vec<f64> {
    let mut out = vec![s.now, s.incumbent_val];
    if let Some((c, loss, resource)) = &s.best_config {
        config_floats(c, &mut out);
        out.extend([*loss, *resource]);
    }
    for slot in &s.slots {
        let t = &slot.state;
        out.extend([
            t.resource,
            t.loss,
            t.asym_jitter,
            t.rate_jitter,
            t.divergence_draw,
            slot.time_per_unit,
        ]);
    }
    for p in &s.pending {
        out.push(p.time);
        job_floats(&p.job, &mut out);
    }
    for j in &s.retry {
        job_floats(j, &mut out);
    }
    for e in &s.trace {
        out.extend([e.time, e.resource, e.val_loss, e.test_loss]);
    }
    out
}

fn asha_floats(s: &AshaState, out: &mut Vec<f64>) {
    let c = &s.config;
    out.extend([c.min_resource, c.max_resource, c.reduction_factor]);
    for r in &s.rungs {
        out.extend(r.records.iter().map(|&(_, l)| l));
    }
    for (_, c) in &s.trials {
        config_floats(c, out);
    }
}

fn sync_sha_floats(s: &SyncShaState) -> Vec<f64> {
    let c = &s.config;
    let mut out = vec![c.min_resource, c.max_resource, c.reduction_factor];
    for b in &s.brackets {
        for (_, c) in &b.queue {
            config_floats(c, &mut out);
        }
        out.extend(b.results.iter().map(|&(_, l)| l));
    }
    for (_, _, c) in &s.trial_meta {
        config_floats(c, &mut out);
    }
    out
}

fn hyperband_floats(s: &AsyncHyperbandState) -> Vec<f64> {
    let c = &s.config;
    let mut out = vec![c.min_resource, c.max_resource, c.reduction_factor, s.spent];
    for b in &s.brackets {
        asha_floats(b, &mut out);
    }
    out
}

/// The document as a resume reads it back: the tree itself, and the tree
/// after each on-disk codec's encode and decode.
fn read_backs(doc: &JsonValue) -> Vec<(&'static str, JsonValue)> {
    let mut out = vec![("tree", doc.clone())];
    for format in [StoreFormat::BinaryV2, StoreFormat::JsonlV1] {
        let mut bytes = Vec::new();
        format.snapshot_codec().encode_document(doc, &mut bytes);
        out.push((format.name(), decode_any_document(&bytes).unwrap()));
    }
    out
}

/// Round-trip `original` through every read-back and compare: structure by
/// rendering (NaNs render alike), every float by bits.
fn check<S>(
    original: &S,
    to_json: fn(&S) -> JsonValue,
    from_json: fn(&JsonValue) -> Result<S, asha_store::Error>,
    floats: fn(&S) -> Vec<f64>,
) -> Result<(), String> {
    let doc = to_json(original);
    let want = floats(original);
    for (via, back) in read_backs(&doc) {
        let decoded = from_json(&back).map_err(|e| format!("{via}: {e}"))?;
        prop_assert_eq!(
            to_json(&decoded).render_compact(),
            doc.render_compact(),
            "{} changed the structure",
            via
        );
        let got = floats(&decoded);
        prop_assert_eq!(got.len(), want.len());
        for (i, (&w, &g)) in want.iter().zip(&got).enumerate() {
            prop_assert!(
                same_float(w, g),
                "{via}: float {i} was {:#018x}, decoded {:#018x}",
                w.to_bits(),
                g.to_bits()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sim_run_state_round_trips_bit_exact(seed in any::<u64>()) {
        let s = sim_state(&mut StdRng::seed_from_u64(seed));
        check(&s, codec::sim_run_state_to_json, codec::sim_run_state_from_json, sim_floats)?;
    }

    #[test]
    fn asha_state_round_trips_bit_exact(seed in any::<u64>()) {
        let s = asha_state(&mut StdRng::seed_from_u64(seed));
        let floats = |s: &AshaState| {
            let mut out = Vec::new();
            asha_floats(s, &mut out);
            out
        };
        check(&s, codec::asha_state_to_json, codec::asha_state_from_json, floats)?;
    }

    #[test]
    fn sync_sha_state_round_trips_bit_exact(seed in any::<u64>()) {
        let s = sync_sha_state(&mut StdRng::seed_from_u64(seed));
        check(&s, codec::sync_sha_state_to_json, codec::sync_sha_state_from_json, sync_sha_floats)?;
    }

    #[test]
    fn async_hyperband_state_round_trips_bit_exact(seed in any::<u64>()) {
        let s = hyperband_state(&mut StdRng::seed_from_u64(seed));
        check(&s, codec::hyperband_state_to_json, codec::hyperband_state_from_json, hyperband_floats)?;
    }
}

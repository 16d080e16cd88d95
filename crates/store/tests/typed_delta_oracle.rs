//! Oracle for typed delta checkpoints (`asha_store::patch`).
//!
//! For every scheduler kind `DurableRun` accepts — a 500-worker random-ASHA
//! run, an ASHA+TPE run, D-ASHA, synchronous SHA and asynchronous
//! Hyperband — an in-memory twin steps the same engine on the same seed
//! and exports the typed state at every checkpoint the durable run takes.
//! Between each pair of consecutive states:
//!
//! * `delta::apply(to_json(prev), snapshot_patch(prev, new))` equals
//!   `to_json(new)` bit for bit, as does the generic `delta::diff` twin;
//! * no section's patch is larger than `{"r": section}` (compact JSON);
//! * the patch built from the decoded `prev` — the base a resumed run
//!   holds — renders identically to the one built from the live `prev`.
//!
//! The durable run's own checkpoint chain must decode to the twin's states,
//! and a run dropped mid-chain and resumed must write checkpoint files
//! byte-identical to the uninterrupted run's.

use std::path::{Path, PathBuf};

use asha_baselines::bohb_asha;
use asha_core::telemetry::{EventKind, Recorder};
use asha_core::{Asha, AshaConfig, AsyncHyperband, DAsha, HyperbandConfig, ShaConfig, SyncSha};
use asha_metrics::JsonValue;
use asha_sim::{SimConfig, SimEngine};
use asha_store::binary::json_eq;
use asha_store::delta::{apply, diff};
use asha_store::patch::snapshot_patch;
use asha_store::{
    read_document, read_wal, BenchSpec, DeltaDoc, Durability, DurableRun, ExperimentMeta,
    RunOptions, SchedulerState, SnapMarker, Snapshot, StoreFormat, StoredScheduler, WalRecord,
    WAL_FILE,
};
use asha_surrogate::BenchmarkModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asha-store-oracle-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn meta(
    name: &str,
    preset: &str,
    initial: impl FnOnce(asha_space::SearchSpace) -> SchedulerState,
    sampler: Option<&str>,
    sim: SimConfig,
) -> ExperimentMeta {
    let spec = BenchSpec {
        preset: preset.to_owned(),
        seed: 11,
    };
    let space = spec.build().unwrap().space().clone();
    ExperimentMeta {
        name: name.to_owned(),
        initial: initial(space.clone()),
        space,
        sampler: sampler.map(str::to_owned),
        seed: 5,
        sim,
        bench: spec,
    }
}

/// Counts telemetry events, as the WAL recorder numbers them.
struct Count(u64);

impl Recorder for Count {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, _now: f64, _kind: EventKind) {
        self.0 += 1;
    }
}

/// The typed state at every checkpoint `DurableRun` takes on this cadence:
/// the pristine state, every `snapshot_jobs` completed jobs, and the end.
fn twin_checkpoints(meta: &ExperimentMeta, snapshot_jobs: usize) -> Vec<Snapshot> {
    let bench = meta.bench.build().unwrap();
    let scheduler = StoredScheduler::from_state_with_sampler(
        meta.space.clone(),
        meta.initial.clone(),
        meta.sampler.as_deref().unwrap_or("random"),
    )
    .unwrap();
    let mut engine = SimEngine::new(meta.sim.clone(), scheduler, &bench);
    let mut rng = StdRng::seed_from_u64(meta.seed);
    let mut events = Count(0);
    let take = |engine: &SimEngine<'_, StoredScheduler>, rng: &StdRng, events: u64| Snapshot {
        seq: 0,
        events,
        scheduler: engine.scheduler().export_state(),
        sampler: engine.scheduler().export_sampler_spec(),
        rng: rng.state(),
        sim: Some(engine.export_state()),
    };
    let mut states = vec![take(&engine, &rng, 0)];
    let mut last = 0;
    loop {
        let alive = engine.step(&mut rng, &mut events);
        if !alive {
            states.push(take(&engine, &rng, events.0));
            return states;
        }
        if engine.jobs_completed() - last >= snapshot_jobs {
            last = engine.jobs_completed();
            states.push(take(&engine, &rng, events.0));
        }
    }
}

fn len(v: &JsonValue) -> usize {
    v.render_compact().len()
}

/// Walk `patch` alongside the document it produces, asserting at every
/// node that the patch is no larger than replacing the node. `opaque`
/// names the one section built by the generic fallback, whose inner nodes
/// are `delta::diff`'s and are checked only at the section's root.
fn check_sizes(patch: &JsonValue, new: &JsonValue, path: &str, opaque: Option<&str>) -> usize {
    let replaced = len(new) + 6;
    assert!(
        len(patch) <= replaced,
        "{path}: patch of {} bytes outgrows its {replaced}-byte replacement",
        len(patch)
    );
    if opaque == Some(path) {
        return 1;
    }
    let mut sections = 1;
    if let Some(JsonValue::Arr(entries)) = patch.get("o") {
        for entry in entries {
            let parts = entry.as_array().unwrap();
            if parts[0].as_str() == Some("p") {
                let key = parts[1].as_str().unwrap();
                sections += check_sizes(
                    &parts[2],
                    new.get(key).unwrap(),
                    &format!("{path}.{key}"),
                    opaque,
                );
            }
        }
    } else if let Some(JsonValue::Arr(parts)) = patch.get("a") {
        for entry in parts[1].as_array().unwrap() {
            let pair = entry.as_array().unwrap();
            let i = pair[0].as_u64().unwrap() as usize;
            sections += check_sizes(
                &pair[1],
                &new.as_array().unwrap()[i],
                &format!("{path}[{i}]"),
                opaque,
            );
        }
    }
    sections
}

/// The oracle over consecutive twin states.
fn check_patches(states: &[Snapshot]) {
    let opaque = match states[0].scheduler {
        SchedulerState::SyncSha(_) => Some("doc.scheduler.state"),
        _ => None,
    };
    let mut sections = 0;
    for (k, pair) in states.windows(2).enumerate() {
        let (prev, new) = (&pair[0], &pair[1]);
        let (prev_doc, new_doc) = (prev.to_json(), new.to_json());
        let patch = snapshot_patch(prev, new);
        let rebuilt = apply(&prev_doc, &patch).expect("typed patch applies");
        assert!(json_eq(&rebuilt, &new_doc), "checkpoint {k}: typed patch");
        let reference = apply(&prev_doc, &diff(&prev_doc, &new_doc)).unwrap();
        assert!(
            json_eq(&reference, &new_doc),
            "checkpoint {k}: generic diff"
        );
        sections += check_sizes(&patch, &new_doc, "doc", opaque);
        // A resumed run's base is the decoded checkpoint.
        let decoded = Snapshot::from_json(&prev_doc).unwrap();
        assert_eq!(
            snapshot_patch(&decoded, new).render_compact(),
            patch.render_compact(),
            "checkpoint {k}: patch from the decoded base differs"
        );
    }
    assert!(sections > 3 * states.len(), "the walk visited sections");
}

/// Every checkpoint the durable run in `dir` wrote, rebuilt from its chain,
/// with the marker's base snapshot number.
fn durable_checkpoints(dir: &Path) -> Vec<(u64, JsonValue)> {
    let mut docs = Vec::new();
    let mut doc = JsonValue::Null;
    for record in read_wal(&dir.join(WAL_FILE)).unwrap().records {
        let WalRecord::SnapshotMarker { marker, .. } = record else {
            continue;
        };
        let snap = marker.snap();
        doc = match marker {
            SnapMarker::Full { .. } => read_document(&Snapshot::find(dir, snap).unwrap()).unwrap(),
            SnapMarker::Delta { delta, .. } => {
                apply(&doc, &DeltaDoc::load(dir, snap, delta).unwrap().patch).unwrap()
            }
        };
        docs.push((snap, doc.clone()));
    }
    docs
}

/// Checkpoint files and metadata of a store, by name.
fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name != WAL_FILE)
        .map(|name| {
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

fn telemetry(dir: &Path) -> Vec<String> {
    read_wal(&dir.join(WAL_FILE))
        .unwrap()
        .records
        .iter()
        .filter_map(|r| r.event().map(|e| format!("{e:?}")))
        .collect()
}

fn run_oracle(tag: &str, meta: &ExperimentMeta, opts: RunOptions, crash_after_jobs: usize) {
    let states = twin_checkpoints(meta, opts.snapshot_jobs);
    check_patches(&states);

    let bench = meta.bench.build().unwrap();
    let whole = tmpdir(&format!("{tag}-whole"));
    let expected = DurableRun::create(&whole, meta, &bench, opts)
        .unwrap()
        .run_to_completion()
        .unwrap();
    let docs = durable_checkpoints(&whole);
    assert_eq!(docs.len(), states.len(), "one checkpoint per twin state");
    assert!(
        docs.windows(2).any(|w| w[0].0 == w[1].0),
        "the chain holds deltas"
    );
    for (i, ((snap, doc), state)) in docs.iter().zip(&states).enumerate() {
        let state = Snapshot {
            seq: *snap,
            ..state.clone()
        };
        // Decoded and re-encoded: JSON text turns an integral float into
        // an integer literal, which the codec reads back as the float.
        let durable = Snapshot::from_json(doc).unwrap().to_json();
        assert!(
            json_eq(&durable, &state.to_json()),
            "checkpoint {i} differs from the twin"
        );
    }

    let dropped = tmpdir(&format!("{tag}-dropped"));
    let mut run = DurableRun::create(&dropped, meta, &bench, opts).unwrap();
    assert!(
        run.run_until_jobs(crash_after_jobs).unwrap(),
        "dropped mid-run"
    );
    drop(run);
    let marker = read_wal(&dropped.join(WAL_FILE))
        .unwrap()
        .last_snapshot_marker()
        .unwrap();
    assert!(marker.delta > 0, "{tag}: the drop lands mid-chain");
    let resumed = DurableRun::resume(&dropped, meta, &bench, opts)
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert_eq!(resumed.trace, expected.trace);
    let (a, b) = (store_files(&whole), store_files(&dropped));
    assert_eq!(
        a.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        b.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
    for ((name, x), (_, y)) in a.iter().zip(&b) {
        assert!(x == y, "{tag}: {name} differs after the resume");
    }
    assert_eq!(telemetry(&whole), telemetry(&dropped));
    std::fs::remove_dir_all(&whole).ok();
    std::fs::remove_dir_all(&dropped).ok();
}

fn opts(snapshot_jobs: usize, delta_chain: usize, format: StoreFormat) -> RunOptions {
    RunOptions {
        sync: Durability::EveryN(64),
        snapshot_jobs,
        format,
        delta_chain,
    }
}

fn chaos(workers: usize, max_jobs: usize) -> SimConfig {
    SimConfig::new(workers, 1e6)
        .with_max_jobs(max_jobs)
        .with_stragglers(0.4)
        .with_drops(0.02)
}

#[test]
fn random_asha_at_500_workers() {
    let meta = meta(
        "asha-500",
        "cifar10_cuda_convnet",
        |space| {
            SchedulerState::Asha(Asha::new(space, AshaConfig::new(1.0, 256.0, 4.0)).export_state())
        },
        None,
        chaos(500, 2400),
    );
    run_oracle("asha500", &meta, opts(200, 4, StoreFormat::BinaryV2), 1300);
}

#[test]
fn asha_with_a_tpe_sampler() {
    let meta = meta(
        "asha-tpe",
        "svm_vehicle",
        |space| {
            SchedulerState::Asha(bohb_asha(space, AshaConfig::new(1.0, 27.0, 3.0)).export_state())
        },
        Some("tpe"),
        chaos(8, 240),
    );
    run_oracle("tpe", &meta, opts(20, 3, StoreFormat::JsonlV1), 130);
}

#[test]
fn delayed_asha() {
    let meta = meta(
        "dasha",
        "svm_vehicle",
        |space| {
            SchedulerState::DAsha(DAsha::new(space, AshaConfig::new(1.0, 27.0, 3.0)).export_state())
        },
        None,
        chaos(16, 600),
    );
    run_oracle("dasha", &meta, opts(40, 4, StoreFormat::BinaryV2), 260);
}

#[test]
fn synchronous_sha() {
    let meta = meta(
        "sync-sha",
        "svm_vehicle",
        |space| {
            SchedulerState::SyncSha(
                SyncSha::new(space, ShaConfig::new(27, 1.0, 27.0, 3.0).growing()).export_state(),
            )
        },
        None,
        chaos(16, 600),
    );
    run_oracle("syncsha", &meta, opts(40, 4, StoreFormat::BinaryV2), 260);
}

#[test]
fn asynchronous_hyperband() {
    let meta = meta(
        "hyperband",
        "svm_vehicle",
        |space| {
            SchedulerState::AsyncHyperband(
                AsyncHyperband::new(space, HyperbandConfig::new(1.0, 27.0, 3.0)).export_state(),
            )
        },
        None,
        chaos(16, 600),
    );
    run_oracle("hyperband", &meta, opts(40, 4, StoreFormat::BinaryV2), 260);
}

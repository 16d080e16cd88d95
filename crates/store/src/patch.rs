//! Typed delta checkpoints: the [`crate::delta`] patch between two exported
//! run states, built from the typed states rather than from their JSON
//! documents.
//!
//! [`snapshot_patch`]`(base, new)` walks the two [`Snapshot`]s section by
//! section, compares them with floats by bits (every NaN is one value,
//! as the codec writes them all as `"nan"`), and encodes JSON only for what
//! changed, through the per-element encoders of [`crate::codec`]:
//!
//! * **append-only sections** — `sim.trace`, a scheduler's `trials`, rung
//!   `records` (and rung `promoted`, which is in record order, so a new
//!   promotion may land mid-array): the longest typed-equal prefix is kept
//!   and the rest is the tail, `{"a":[keep,[],[tail…]]}`;
//! * **mutated-in-place sections** — `sim.slots`, a Hyperband scheduler's
//!   brackets, rungs, sampler cursors: only the indexes that changed are
//!   patched, plus the appended tail;
//! * **churning sections** — `sim.pending`, `sim.retry`, `outstanding`:
//!   `{"r":…}` whenever they changed at all (`pending` is sorted by time,
//!   so positional patches would shift and outgrow the array itself);
//! * **everything else** — small objects and scalars are replaced when
//!   their encoding changed; a scheduler kind without a typed rule
//!   (`SyncSha`) falls back to [`delta::diff`] on that section's JSON only.
//!
//! The cost of a checkpoint is then one typed comparison pass over the
//! state (no allocation for unchanged elements) plus encoding what changed,
//! instead of encoding the whole state, diffing two whole trees, and
//! freeing the previous tree.
//!
//! Every node the typed rules build is no larger than `{"r": node}` in
//! compact JSON (a fallback section, as a whole): each builder carries a
//! lower bound on the bytes its patch saves against a replacement (from
//! minimum encoded element sizes) and replaces the node outright when that
//! bound is negative. The patch is a pure function of the two states, so a
//! run resumed from a decoded checkpoint writes the same bytes as one that
//! never stopped. [`delta::diff`] on the two documents is the generic
//! reference this module is tested against.

use asha_core::{AshaState, AsyncHyperbandState, Job, RungState, TrialId};
use asha_metrics::{JsonValue, TraceEvent};
use asha_sim::{PendingJob, SimRunState, TrialSlotState};
use asha_space::{Config, ParamValue};
use asha_surrogate::TrainingState;

use crate::binary::json_eq;
use crate::codec;
use crate::delta;
use crate::snapshot::{SamplerSpec, SchedulerState, Snapshot, SNAPSHOT_SCHEMA};

/// Minimum compact-JSON lengths of one element of each collection, used to
/// bound what keeping base elements saves.
const MIN_TRACE_EVENT: usize = 80;
const MIN_SLOT: usize = 120;
const MIN_RUNG: usize = 28;
const MIN_ASHA_STATE: usize = 100;
const MIN_PAIR: usize = 5;
const MIN_TRIAL_CONFIG: usize = 6;
const MIN_CURSOR: usize = 2;

/// The patch transforming `base`'s document into `new`'s:
/// `delta::apply(&base.to_json(), &snapshot_patch(base, new))` equals
/// `new.to_json()` exactly.
pub fn snapshot_patch(base: &Snapshot, new: &Snapshot) -> JsonValue {
    let mut o = ObjPatch::default();
    o.field("schema", Node::Same, SNAPSHOT_SCHEMA.len() + 2);
    o.field("seq", int(base.seq, new.seq), 1);
    o.field("events", int(base.events, new.events), 1);
    o.field(
        "scheduler",
        scheduler_patch(&base.scheduler, &new.scheduler),
        2,
    );
    match (&base.sampler, &new.sampler) {
        (Some(b), Some(n)) => o.field("sampler", sampler_patch(b, n), 2),
        (None, None) => {}
        // A run keeps its sampler kind for life; anything else is a
        // different run, replaced whole.
        _ => return JsonValue::obj([("r", new.to_json())]),
    }
    o.field(
        "rng",
        scalar(base.rng == new.rng, || codec::rng_state_to_json(new.rng)),
        9,
    );
    let sim = match (&base.sim, &new.sim) {
        (Some(b), Some(n)) => sim_patch(b, n),
        (None, None) => Node::Same,
        (_, n) => Node::replace(
            n.as_ref()
                .map_or(JsonValue::Null, codec::sim_run_state_to_json),
        ),
    };
    o.field("sim", sim, 4);
    match o.finish(|| new.to_json()) {
        Node::Same => delta::unchanged(),
        Node::Diff(patch, _) => patch,
    }
}

fn scheduler_patch(base: &SchedulerState, new: &SchedulerState) -> Node {
    if base.kind() != new.kind() {
        return Node::replace(new.to_json());
    }
    let state = match (base, new) {
        (SchedulerState::Asha(b), SchedulerState::Asha(n))
        | (SchedulerState::DAsha(b), SchedulerState::DAsha(n)) => asha_patch(b, n),
        (SchedulerState::AsyncHyperband(b), SchedulerState::AsyncHyperband(n)) => {
            hyperband_patch(b, n)
        }
        (SchedulerState::SyncSha(b), SchedulerState::SyncSha(n)) => fallback(
            &codec::sync_sha_state_to_json(b),
            codec::sync_sha_state_to_json(n),
        ),
        _ => unreachable!("scheduler kinds checked equal"),
    };
    let mut o = ObjPatch::default();
    o.field("kind", Node::Same, new.kind().len() + 2);
    o.field("state", state, 2);
    o.finish(|| new.to_json())
}

fn asha_patch(b: &AshaState, n: &AshaState) -> Node {
    let mut o = ObjPatch::default();
    o.field(
        "config",
        encoded(
            codec::asha_config_to_json(&b.config),
            codec::asha_config_to_json(&n.config),
        ),
        2,
    );
    o.field(
        "rungs",
        indexed_patch(
            &b.rungs,
            &n.rungs,
            MIN_RUNG,
            rung_patch,
            codec::rung_state_to_json,
        ),
        arr_min(n.rungs.len(), MIN_RUNG),
    );
    o.field(
        "trials",
        prefix_patch(
            &b.trials,
            &n.trials,
            MIN_TRIAL_CONFIG,
            codec::trial_config_to_json,
        ),
        arr_min(n.trials.len(), MIN_TRIAL_CONFIG),
    );
    o.field(
        "outstanding",
        churn(&b.outstanding, &n.outstanding, codec::outstanding_to_json),
        arr_min(n.outstanding.len(), MIN_PAIR),
    );
    o.field("next_trial", int(b.next_trial, n.next_trial), 1);
    let started = int(b.trials_started as u64, n.trials_started as u64);
    o.field("trials_started", started, 1);
    o.field("name", string(&b.name, &n.name), n.name.len() + 2);
    o.finish(|| codec::asha_state_to_json(n))
}

fn rung_patch(b: &RungState, n: &RungState) -> Node {
    let mut o = ObjPatch::default();
    o.field(
        "records",
        prefix_patch(
            &b.records,
            &n.records,
            MIN_PAIR,
            codec::trial_loss_pair_to_json,
        ),
        arr_min(n.records.len(), MIN_PAIR),
    );
    o.field(
        "promoted",
        prefix_patch(&b.promoted, &n.promoted, 1, |&t| JsonValue::Int(t)),
        arr_min(n.promoted.len(), 1),
    );
    o.finish(|| codec::rung_state_to_json(n))
}

fn hyperband_patch(b: &AsyncHyperbandState, n: &AsyncHyperbandState) -> Node {
    let mut o = ObjPatch::default();
    o.field(
        "config",
        encoded(
            codec::hyperband_config_to_json(&b.config),
            codec::hyperband_config_to_json(&n.config),
        ),
        2,
    );
    o.field(
        "brackets",
        indexed_patch(
            &b.brackets,
            &n.brackets,
            MIN_ASHA_STATE,
            asha_patch,
            codec::asha_state_to_json,
        ),
        arr_min(n.brackets.len(), MIN_ASHA_STATE),
    );
    o.field(
        "spent",
        scalar(b.spent.same(&n.spent), || codec::float_to_json(n.spent)),
        1,
    );
    o.field("current", int(b.current as u64, n.current as u64), 1);
    o.field("name", string(&b.name, &n.name), n.name.len() + 2);
    o.finish(|| codec::hyperband_state_to_json(n))
}

fn sampler_patch(b: &SamplerSpec, n: &SamplerSpec) -> Node {
    let cursor = |c: &Option<String>| {
        c.as_ref()
            .map_or(JsonValue::Null, |s| JsonValue::Str(s.clone()))
    };
    let mut o = ObjPatch::default();
    o.field("kind", string(&b.kind, &n.kind), n.kind.len() + 2);
    o.field(
        "cursors",
        indexed_patch(
            &b.cursors,
            &n.cursors,
            MIN_CURSOR,
            |x, y| leaf(x, y, cursor),
            cursor,
        ),
        arr_min(n.cursors.len(), MIN_CURSOR),
    );
    o.finish(|| n.to_json())
}

fn sim_patch(b: &SimRunState, n: &SimRunState) -> Node {
    let mut o = ObjPatch::default();
    o.field("now", float(b.now, n.now), 1);
    o.field("seq", int(b.seq, n.seq), 1);
    for (key, was, is) in [
        ("free_workers", b.free_workers, n.free_workers),
        ("jobs_completed", b.jobs_completed, n.jobs_completed),
        ("distinct_trials", b.distinct_trials, n.distinct_trials),
    ] {
        o.field(key, int(was as u64, is as u64), 1);
    }
    o.field(
        "faults",
        scalar(b.faults == n.faults, || {
            codec::fault_stats_to_json(&n.faults)
        }),
        2,
    );
    o.field(
        "scheduler_finished",
        scalar(b.scheduler_finished == n.scheduler_finished, || {
            JsonValue::Bool(n.scheduler_finished)
        }),
        4,
    );
    o.field("incumbent_val", float(b.incumbent_val, n.incumbent_val), 1);
    o.field(
        "best_config",
        scalar(b.best_config.same(&n.best_config), || {
            codec::best_config_to_json(&n.best_config)
        }),
        4,
    );
    o.field(
        "slots",
        indexed_patch(
            &b.slots,
            &n.slots,
            MIN_SLOT,
            |x, y| leaf(x, y, codec::slot_to_json),
            codec::slot_to_json,
        ),
        arr_min(n.slots.len(), MIN_SLOT),
    );
    o.field(
        "pending",
        churn(&b.pending, &n.pending, codec::pending_job_to_json),
        2,
    );
    o.field("retry", churn(&b.retry, &n.retry, codec::job_to_json), 2);
    o.field(
        "searcher",
        string(&b.searcher, &n.searcher),
        n.searcher.len() + 2,
    );
    o.field(
        "trace",
        prefix_patch(
            &b.trace,
            &n.trace,
            MIN_TRACE_EVENT,
            codec::trace_event_to_json,
        ),
        arr_min(n.trace.len(), MIN_TRACE_EVENT),
    );
    o.finish(|| codec::sim_run_state_to_json(n))
}

// ---------------------------------------------------------------------------
// Patch nodes and their size accounting
// ---------------------------------------------------------------------------

/// One node of a patch under construction.
enum Node {
    /// The value did not change.
    Same,
    /// A patch for the value, with a lower bound on how many bytes (compact
    /// JSON) it is shorter than `{"r": new_value}`.
    Diff(JsonValue, i64),
}

impl Node {
    fn replace(value: JsonValue) -> Node {
        Node::Diff(JsonValue::obj([("r", value)]), 0)
    }
}

/// `Same`, or a replacement by `enc()`.
fn scalar(same: bool, enc: impl FnOnce() -> JsonValue) -> Node {
    if same {
        Node::Same
    } else {
        Node::replace(enc())
    }
}

fn int(b: u64, n: u64) -> Node {
    scalar(b == n, || JsonValue::Int(n))
}

fn float(b: f64, n: f64) -> Node {
    scalar(b.same(&n), || codec::float_to_json(n))
}

fn string(b: &str, n: &str) -> Node {
    scalar(b == n, || JsonValue::Str(n.to_owned()))
}

fn leaf<T: SameAs>(b: &T, n: &T, enc: impl Fn(&T) -> JsonValue) -> Node {
    scalar(b.same(n), || enc(n))
}

/// A small section compared by its encoding.
fn encoded(b: JsonValue, n: JsonValue) -> Node {
    scalar(json_eq(&b, &n), || n)
}

/// A churning section: replaced whole whenever any element changed.
fn churn<T: SameAs>(b: &[T], n: &[T], enc: impl Fn(&T) -> JsonValue) -> Node {
    scalar(b.same(n), || JsonValue::Arr(n.iter().map(enc).collect()))
}

/// A section without a typed rule: [`delta::diff`] on its JSON, unless
/// replacing it is no larger.
fn fallback(b: &JsonValue, n: JsonValue) -> Node {
    let patch = delta::diff(b, &n);
    if delta::is_unchanged(&patch) {
        return Node::Same;
    }
    let replaced = n.render_compact().len() + 6;
    let patched = patch.render_compact().len();
    if patched <= replaced {
        Node::Diff(patch, (replaced - patched) as i64)
    } else {
        Node::replace(n)
    }
}

/// Decimal digits of `n`.
fn digits(n: usize) -> i64 {
    n.checked_ilog10().map_or(1, |d| d as i64 + 1)
}

/// Lower bound on the compact-JSON length of an `n`-element array.
fn arr_min(n: usize, min_elem: usize) -> usize {
    1 + n * (min_elem + 1)
}

/// An object patch `{"o":[entry…]}` under construction, with entries in the
/// new object's key order.
#[derive(Default)]
struct ObjPatch {
    entries: Vec<JsonValue>,
    gain: i64,
    changed: bool,
}

impl ObjPatch {
    /// Add field `key`; `min_len` lower-bounds the length of its encoded
    /// value, which `["=",key]` saves against `"key":value` (less 5 bytes).
    /// A `["p",key,patch]` entry costs 12 bytes more than its child's own
    /// saving.
    fn field(&mut self, key: &str, node: Node, min_len: usize) {
        let key = JsonValue::Str(key.to_owned());
        match node {
            Node::Same => {
                self.gain += min_len as i64 - 5;
                self.entries
                    .push(JsonValue::Arr(vec![JsonValue::Str("=".to_owned()), key]));
            }
            Node::Diff(patch, gain) => {
                self.changed = true;
                self.gain += gain - 12;
                self.entries.push(JsonValue::Arr(vec![
                    JsonValue::Str("p".to_owned()),
                    key,
                    patch,
                ]));
            }
        }
    }

    fn finish(self, new: impl FnOnce() -> JsonValue) -> Node {
        if !self.changed {
            Node::Same
        } else if self.gain < 0 {
            Node::replace(new())
        } else {
            Node::Diff(
                JsonValue::obj([("o", JsonValue::Arr(self.entries))]),
                self.gain,
            )
        }
    }
}

/// Keep the longest typed-equal prefix of `b`, append the rest of `n`.
fn prefix_patch<T: SameAs>(
    b: &[T],
    n: &[T],
    min_elem: usize,
    enc: impl Fn(&T) -> JsonValue,
) -> Node {
    let keep = b.iter().zip(n).take_while(|(x, y)| x.same(y)).count();
    array_patch(b.len(), n, keep, Vec::new(), 0, min_elem, enc)
}

/// Patch the changed indexes of the common length in place (each by
/// `elem`), append the rest of `n`.
fn indexed_patch<T>(
    b: &[T],
    n: &[T],
    min_elem: usize,
    elem: impl Fn(&T, &T) -> Node,
    enc: impl Fn(&T) -> JsonValue,
) -> Node {
    let keep = b.len().min(n.len());
    let mut patches = Vec::new();
    let mut gain = 0;
    for (i, (x, y)) in b.iter().zip(n).enumerate() {
        if let Node::Diff(patch, g) = elem(x, y) {
            // `[i,patch],` costs the patch plus 10 bytes and the digits of i.
            gain += g - 10 - digits(i);
            patches.push(JsonValue::Arr(vec![JsonValue::Int(i as u64), patch]));
        }
    }
    array_patch(b.len(), n, keep, patches, gain, min_elem, enc)
}

/// Finish `{"a":[keep,[patches…],[tail…]]}`: each unchanged kept element
/// saves its length and a comma against `{"r":[…]}`, the array patch's own
/// framing costs 7 bytes and the digits of `keep`.
fn array_patch<T>(
    base_len: usize,
    n: &[T],
    keep: usize,
    patches: Vec<JsonValue>,
    patches_gain: i64,
    min_elem: usize,
    enc: impl Fn(&T) -> JsonValue,
) -> Node {
    if keep == base_len && keep == n.len() && patches.is_empty() {
        return Node::Same;
    }
    let unchanged = (keep - patches.len()) as i64;
    let gain = unchanged * (min_elem as i64 + 1) + patches_gain - 7 - digits(keep);
    if gain < 0 {
        return Node::replace(JsonValue::Arr(n.iter().map(enc).collect()));
    }
    let tail = n[keep..].iter().map(enc).collect();
    Node::Diff(
        JsonValue::obj([(
            "a",
            JsonValue::Arr(vec![
                JsonValue::Int(keep as u64),
                JsonValue::Arr(patches),
                JsonValue::Arr(tail),
            ]),
        )]),
        gain,
    )
}

// ---------------------------------------------------------------------------
// Equality as encoded
// ---------------------------------------------------------------------------

/// Equality as the snapshot codec encodes a value: floats by bits, except
/// that all NaNs are one value (the codec writes every NaN as `"nan"`).
/// Derived `PartialEq` is wrong both ways here: `NaN != NaN`, `0.0 == -0.0`.
trait SameAs {
    fn same(&self, other: &Self) -> bool;
}

impl SameAs for f64 {
    fn same(&self, other: &f64) -> bool {
        self.to_bits() == other.to_bits() || (self.is_nan() && other.is_nan())
    }
}

macro_rules! exact_same {
    ($($t:ty),*) => {$(
        impl SameAs for $t {
            fn same(&self, other: &$t) -> bool {
                self == other
            }
        }
    )*};
}

exact_same!(u64, usize, String, TrialId);

impl<T: SameAs> SameAs for [T] {
    fn same(&self, other: &[T]) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(x, y)| x.same(y))
    }
}

impl<T: SameAs> SameAs for Option<T> {
    fn same(&self, other: &Option<T>) -> bool {
        match (self, other) {
            (Some(x), Some(y)) => x.same(y),
            (None, None) => true,
            _ => false,
        }
    }
}

impl<A: SameAs, B: SameAs> SameAs for (A, B) {
    fn same(&self, other: &(A, B)) -> bool {
        self.0.same(&other.0) && self.1.same(&other.1)
    }
}

impl<A: SameAs, B: SameAs, C: SameAs> SameAs for (A, B, C) {
    fn same(&self, other: &(A, B, C)) -> bool {
        self.0.same(&other.0) && self.1.same(&other.1) && self.2.same(&other.2)
    }
}

impl SameAs for ParamValue {
    fn same(&self, other: &ParamValue) -> bool {
        match (self, other) {
            (ParamValue::Float(x), ParamValue::Float(y)) => x.same(y),
            (ParamValue::Int(x), ParamValue::Int(y)) => x == y,
            (ParamValue::Index(x), ParamValue::Index(y)) => x == y,
            _ => false,
        }
    }
}

impl SameAs for Config {
    fn same(&self, other: &Config) -> bool {
        self.values().same(other.values())
    }
}

// The impls below destructure exhaustively, so a field added to a state
// struct fails to compile here until it is compared.

impl SameAs for TraceEvent {
    fn same(&self, o: &TraceEvent) -> bool {
        let TraceEvent {
            time,
            trial,
            bracket,
            rung,
            resource,
            val_loss,
            test_loss,
        } = self;
        time.same(&o.time)
            && *trial == o.trial
            && *bracket == o.bracket
            && *rung == o.rung
            && resource.same(&o.resource)
            && val_loss.same(&o.val_loss)
            && test_loss.same(&o.test_loss)
    }
}

impl SameAs for TrainingState {
    fn same(&self, o: &TrainingState) -> bool {
        let TrainingState {
            resource,
            loss,
            asym_jitter,
            rate_jitter,
            divergence_draw,
            diverged,
        } = self;
        resource.same(&o.resource)
            && loss.same(&o.loss)
            && asym_jitter.same(&o.asym_jitter)
            && rate_jitter.same(&o.rate_jitter)
            && divergence_draw.same(&o.divergence_draw)
            && *diverged == o.diverged
    }
}

impl SameAs for TrialSlotState {
    fn same(&self, o: &TrialSlotState) -> bool {
        let TrialSlotState {
            trial,
            state,
            time_per_unit,
            completed,
        } = self;
        *trial == o.trial
            && state.same(&o.state)
            && time_per_unit.same(&o.time_per_unit)
            && *completed == o.completed
    }
}

impl SameAs for Job {
    fn same(&self, o: &Job) -> bool {
        let Job {
            trial,
            config,
            rung,
            resource,
            bracket,
            inherit_from,
        } = self;
        *trial == o.trial
            && config.same(&o.config)
            && *rung == o.rung
            && resource.same(&o.resource)
            && *bracket == o.bracket
            && inherit_from.same(&o.inherit_from)
    }
}

impl SameAs for PendingJob {
    fn same(&self, o: &PendingJob) -> bool {
        let PendingJob {
            time,
            seq,
            job,
            dropped,
        } = self;
        time.same(&o.time) && *seq == o.seq && job.same(&o.job) && *dropped == o.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_compare_as_encoded() {
        assert!(f64::NAN.same(&f64::from_bits(f64::NAN.to_bits() | 1)));
        assert!(!0.0f64.same(&-0.0));
        assert!(f64::INFINITY.same(&f64::INFINITY));
        assert!(!f64::INFINITY.same(&f64::NEG_INFINITY));
    }

    #[test]
    fn array_patches_keep_prefixes_and_fall_back_to_replace() {
        let enc = |&t: &u64| JsonValue::Int(t);
        let base: Vec<u64> = (0..100).collect();
        let mut grown = base.clone();
        grown.push(100);
        let Node::Diff(patch, _) = prefix_patch(&base, &grown, 1, enc) else {
            panic!("grown array is a change");
        };
        assert_eq!(patch.render_compact(), r#"{"a":[100,[],[100]]}"#);
        // Nothing to keep: a replacement is smaller than any array patch.
        let Node::Diff(patch, _) = prefix_patch(&base, &[7], 1, enc) else {
            panic!("changed array is a change");
        };
        assert_eq!(patch.render_compact(), r#"{"r":[7]}"#);
        assert!(matches!(prefix_patch(&base, &base, 1, enc), Node::Same));
    }
}

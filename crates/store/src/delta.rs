//! Structural patches over snapshot documents: the grammar delta snapshots
//! are written in.
//!
//! A delta snapshot stores a patch from the previous checkpoint's document
//! to the current one instead of the full document. Recovery rebuilds the
//! full document by [`apply`]ing each delta in chain order on top of the
//! newest full snapshot. The store's writer builds its patches from the
//! two typed states ([`crate::patch::snapshot_patch`]); [`diff`] is the
//! generic twin over two documents, kept as the reference the typed
//! builder is tested against. `diff` walks both whole trees, so its cost
//! is proportional to the total state, not to what changed.
//!
//! The invariant everything rests on: for any two documents,
//! `apply(base, &diff(base, new))` reproduces `new` **exactly** — same key
//! order, same `Int`-vs-`Num` variants, bit-identical floats — so a run
//! recovered through a delta chain re-renders byte-identically to one
//! recovered from a full snapshot. Equality here is [`json_eq`]
//! (bit-exact on floats); derived `PartialEq` would break on NaN losses.
//!
//! ## Patch grammar
//!
//! A patch is itself a [`JsonValue`] (so it rides through either snapshot
//! codec unchanged):
//!
//! * `{"u":1}` — unchanged; keep the base value.
//! * `{"r":V}` — replace the base value with `V`.
//! * `{"o":[entry…]}` — rebuild an object. Entries are listed in the *new*
//!   object's key order (robust to key reordering): `["=",key]` copies the
//!   base's value, `["p",key,patch]` recurses, `["+",key,V]` inserts `V`.
//!   Base keys not listed are dropped.
//! * `{"a":[keep,[[i,patch]…],[tail…]]}` — rebuild an array: take the
//!   first `keep` base elements, patch the listed indexes, then append the
//!   tail. Covers the store's append-mostly arrays (trace, rungs) in
//!   O(appended) bytes.

use asha_metrics::JsonValue;

pub use crate::binary::json_eq;

/// The patch that is literally `{"u":1}` — the "nothing changed" diff.
pub fn unchanged() -> JsonValue {
    JsonValue::obj([("u", JsonValue::Int(1))])
}

/// Is this patch the [`unchanged`] marker?
pub fn is_unchanged(patch: &JsonValue) -> bool {
    matches!(patch.get("u"), Some(JsonValue::Int(1)))
}

/// Compute a patch transforming `base` into `new`.
pub fn diff(base: &JsonValue, new: &JsonValue) -> JsonValue {
    if json_eq(base, new) {
        return unchanged();
    }
    match (base, new) {
        (JsonValue::Obj(base_fields), JsonValue::Obj(new_fields)) => {
            let mut entries = Vec::with_capacity(new_fields.len());
            // `cursor` exploits the common case: the same codec wrote both
            // documents, so keys almost always line up positionally and the
            // lookup is O(1) instead of a scan.
            let mut cursor = 0usize;
            for (key, new_val) in new_fields {
                let found = if base_fields.get(cursor).is_some_and(|(k, _)| k == key) {
                    Some(cursor)
                } else {
                    base_fields.iter().position(|(k, _)| k == key)
                };
                match found {
                    Some(idx) => {
                        cursor = idx + 1;
                        let base_val = &base_fields[idx].1;
                        if json_eq(base_val, new_val) {
                            entries.push(JsonValue::Arr(vec![
                                JsonValue::Str("=".to_owned()),
                                JsonValue::Str(key.clone()),
                            ]));
                        } else {
                            entries.push(JsonValue::Arr(vec![
                                JsonValue::Str("p".to_owned()),
                                JsonValue::Str(key.clone()),
                                diff(base_val, new_val),
                            ]));
                        }
                    }
                    None => entries.push(JsonValue::Arr(vec![
                        JsonValue::Str("+".to_owned()),
                        JsonValue::Str(key.clone()),
                        new_val.clone(),
                    ])),
                }
            }
            JsonValue::obj([("o", JsonValue::Arr(entries))])
        }
        (JsonValue::Arr(base_items), JsonValue::Arr(new_items)) => {
            let keep = base_items.len().min(new_items.len());
            let mut patches = Vec::new();
            for i in 0..keep {
                if !json_eq(&base_items[i], &new_items[i]) {
                    patches.push(JsonValue::Arr(vec![
                        JsonValue::Int(i as u64),
                        diff(&base_items[i], &new_items[i]),
                    ]));
                }
            }
            let tail: Vec<JsonValue> = new_items[keep..].to_vec();
            JsonValue::obj([(
                "a",
                JsonValue::Arr(vec![
                    JsonValue::Int(keep as u64),
                    JsonValue::Arr(patches),
                    JsonValue::Arr(tail),
                ]),
            )])
        }
        _ => JsonValue::obj([("r", new.clone())]),
    }
}

/// Apply a patch produced by [`diff`]: `apply(base, &diff(base, new))`
/// reproduces `new` exactly. Fails on a malformed patch or one computed
/// against a different base shape.
pub fn apply(base: &JsonValue, patch: &JsonValue) -> Result<JsonValue, String> {
    let JsonValue::Obj(fields) = patch else {
        return Err("patch must be an object".to_owned());
    };
    let [(op, arg)] = fields.as_slice() else {
        return Err("patch must hold exactly one operation".to_owned());
    };
    match op.as_str() {
        "u" => Ok(base.clone()),
        "r" => Ok(arg.clone()),
        "o" => {
            let JsonValue::Obj(base_fields) = base else {
                return Err("object patch applied to non-object".to_owned());
            };
            let JsonValue::Arr(entries) = arg else {
                return Err("object patch entries must be an array".to_owned());
            };
            let mut out = Vec::with_capacity(entries.len());
            let mut cursor = 0usize;
            let lookup = |key: &str, cursor: &mut usize| -> Result<&JsonValue, String> {
                let found = if base_fields.get(*cursor).is_some_and(|(k, _)| k == key) {
                    Some(*cursor)
                } else {
                    base_fields.iter().position(|(k, _)| k == key)
                };
                let idx = found.ok_or_else(|| format!("patch references missing key {key:?}"))?;
                *cursor = idx + 1;
                Ok(&base_fields[idx].1)
            };
            for entry in entries {
                let JsonValue::Arr(parts) = entry else {
                    return Err("object patch entry must be an array".to_owned());
                };
                let tag = parts
                    .first()
                    .and_then(|t| t.as_str())
                    .ok_or("object patch entry missing tag")?;
                let key = parts
                    .get(1)
                    .and_then(|k| k.as_str())
                    .ok_or("object patch entry missing key")?;
                let value = match (tag, parts.get(2)) {
                    ("=", None) => lookup(key, &mut cursor)?.clone(),
                    ("p", Some(subpatch)) => apply(lookup(key, &mut cursor)?, subpatch)?,
                    ("+", Some(value)) => value.clone(),
                    _ => return Err(format!("malformed object patch entry tag {tag:?}")),
                };
                out.push((key.to_owned(), value));
            }
            Ok(JsonValue::Obj(out))
        }
        "a" => {
            let JsonValue::Arr(base_items) = base else {
                return Err("array patch applied to non-array".to_owned());
            };
            let JsonValue::Arr(parts) = arg else {
                return Err("array patch must be an array".to_owned());
            };
            let [keep, patches, tail] = parts.as_slice() else {
                return Err("array patch must be [keep, patches, tail]".to_owned());
            };
            let keep = keep.as_u64().ok_or("array patch keep must be an integer")? as usize;
            if keep > base_items.len() {
                return Err(format!(
                    "array patch keeps {keep} of {} elements",
                    base_items.len()
                ));
            }
            let mut out: Vec<JsonValue> = base_items[..keep].to_vec();
            let JsonValue::Arr(patches) = patches else {
                return Err("array patch patches must be an array".to_owned());
            };
            for entry in patches {
                let JsonValue::Arr(pair) = entry else {
                    return Err("array patch entry must be [index, patch]".to_owned());
                };
                let [idx, subpatch] = pair.as_slice() else {
                    return Err("array patch entry must be [index, patch]".to_owned());
                };
                let idx = idx.as_u64().ok_or("array patch index must be an integer")? as usize;
                let slot = out
                    .get(idx)
                    .ok_or_else(|| format!("array patch index {idx} out of range"))?;
                out[idx] = apply(slot, subpatch)?;
            }
            let JsonValue::Arr(tail) = tail else {
                return Err("array patch tail must be an array".to_owned());
            };
            out.extend(tail.iter().cloned());
            Ok(JsonValue::Arr(out))
        }
        other => Err(format!("unknown patch operation {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(base: &JsonValue, new: &JsonValue) -> JsonValue {
        let patch = diff(base, new);
        let rebuilt = apply(base, &patch).expect("patch applies");
        assert!(
            json_eq(&rebuilt, new),
            "apply(diff) mismatch: {} vs {}",
            rebuilt.render_compact(),
            new.render_compact()
        );
        patch
    }

    #[test]
    fn identical_docs_diff_to_unchanged() {
        let doc = JsonValue::obj([
            ("a", JsonValue::Int(1)),
            ("b", JsonValue::Arr(vec![JsonValue::Num(f64::NAN)])),
        ]);
        let patch = roundtrip(&doc, &doc.clone());
        assert!(is_unchanged(&patch));
    }

    #[test]
    fn appended_array_tail_costs_only_the_tail() {
        let base = JsonValue::Arr((0..1000).map(JsonValue::Int).collect());
        let mut grown = (0..1000).map(JsonValue::Int).collect::<Vec<_>>();
        grown.push(JsonValue::Int(1000));
        grown.push(JsonValue::Int(1001));
        let new = JsonValue::Arr(grown);
        let patch = roundtrip(&base, &new);
        // The patch should not embed the 1000 shared elements.
        assert!(
            patch.render_compact().len() < 80,
            "{}",
            patch.render_compact()
        );
    }

    #[test]
    fn array_truncation_and_inplace_edits() {
        let base = JsonValue::Arr(vec![
            JsonValue::Int(0),
            JsonValue::Int(1),
            JsonValue::Int(2),
            JsonValue::Int(3),
        ]);
        let new = JsonValue::Arr(vec![JsonValue::Int(0), JsonValue::Int(9)]);
        roundtrip(&base, &new);
        roundtrip(&new, &base);
        roundtrip(&base, &JsonValue::Arr(vec![]));
    }

    #[test]
    fn object_insert_drop_reorder_and_nested_edit() {
        let base = JsonValue::obj([
            ("schema", JsonValue::Str("v1".to_owned())),
            ("jobs", JsonValue::Arr(vec![JsonValue::Int(1)])),
            ("dropped", JsonValue::Bool(true)),
            ("rng", JsonValue::Int(7)),
        ]);
        let new = JsonValue::obj([
            ("rng", JsonValue::Int(8)),
            ("schema", JsonValue::Str("v1".to_owned())),
            (
                "jobs",
                JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]),
            ),
            ("added", JsonValue::Null),
        ]);
        roundtrip(&base, &new);
    }

    #[test]
    fn type_changes_fall_back_to_replace() {
        let base = JsonValue::obj([("x", JsonValue::Arr(vec![]))]);
        let new = JsonValue::obj([("x", JsonValue::Int(3))]);
        roundtrip(&base, &new);
        roundtrip(&JsonValue::Null, &JsonValue::Str("s".to_owned()));
    }

    #[test]
    fn nan_payloads_survive_the_chain() {
        let base = JsonValue::obj([("loss", JsonValue::Num(0.5))]);
        let new = JsonValue::obj([("loss", JsonValue::Num(f64::NAN))]);
        let rebuilt = apply(&base, &diff(&base, &new)).unwrap();
        assert!(json_eq(&rebuilt, &new));
        // And the rebuilt doc renders identically to the original.
        assert_eq!(rebuilt.render_compact(), new.render_compact());
    }

    #[test]
    fn malformed_patches_are_rejected() {
        let base = JsonValue::obj([("a", JsonValue::Int(1))]);
        assert!(apply(&base, &JsonValue::Int(1)).is_err());
        assert!(apply(&base, &JsonValue::obj([("z", JsonValue::Null)])).is_err());
        // Patch computed against a different base shape.
        let patch = diff(
            &JsonValue::obj([("k", JsonValue::Int(1))]),
            &JsonValue::obj([("k", JsonValue::Int(2))]),
        );
        assert!(apply(&JsonValue::Arr(vec![]), &patch).is_err());
    }
}

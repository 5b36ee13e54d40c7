//! `perf check`: cross-validate `BENCHMARK.json` against the harness.
//! Every workload and metric the JSON lists is one the harness emits and
//! vice versa, with the same unit, direction and bound, and the file
//! stays inside the limits the acceptance driver enforces.

use crate::json::Json;
use crate::metrics::{
    valid_name, valid_unit, MetricDef, END_TO_END, MAX_BOUND, MAX_END_TO_END, MAX_PER_LAYER,
    MAX_WORKLOADS, PER_LAYER,
};
use crate::workloads::WORKLOADS;
use std::collections::BTreeSet;

const TOP_KEYS: [&str; 6] = [
    "command",
    "end_to_end",
    "paths",
    "per_layer",
    "run_seconds",
    "workloads",
];

fn keys_of(v: &Json) -> Vec<&str> {
    v.as_obj()
        .map_or(Vec::new(), |m| m.keys().map(String::as_str).collect())
}

fn check_metrics(
    problems: &mut Vec<String>,
    section: &str,
    listed: Option<&Json>,
    table: &[MetricDef],
    max: usize,
) {
    let Some(listed) = listed.and_then(Json::as_arr) else {
        problems.push(format!("{section}: missing or not a list"));
        return;
    };
    if listed.is_empty() || listed.len() > max {
        problems.push(format!(
            "{section}: {} entries, allowed 1..={max}",
            listed.len()
        ));
    }
    let gated = table.iter().any(|d| d.bound.is_some());
    let want_keys: &[&str] = if gated {
        &["better", "bound", "name", "unit"]
    } else {
        &["better", "name", "unit"]
    };
    let mut seen = BTreeSet::new();
    for entry in listed {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
        if keys_of(entry) != want_keys {
            problems.push(format!(
                "{section}: {name:?} must have exactly the keys {want_keys:?}"
            ));
        }
        if !valid_name(name) {
            problems.push(format!(
                "{section}: name {name:?} does not match [A-Za-z0-9][A-Za-z0-9_.-]*"
            ));
        }
        if !seen.insert(name) {
            problems.push(format!("{section}: {name} is listed twice"));
        }
        let Some(def) = table.iter().find(|d| d.name == name) else {
            problems.push(format!("{section}: {name} is not emitted by the harness"));
            continue;
        };
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
        if !valid_unit(unit) || unit != def.unit {
            problems.push(format!(
                "{section}: {name} has unit {unit:?}, the harness prints {:?}",
                def.unit
            ));
        }
        let better = entry.get("better").and_then(Json::as_str).unwrap_or("");
        if better != def.better.as_str() {
            problems.push(format!(
                "{section}: {name} is better {better:?}, the harness says {:?}",
                def.better.as_str()
            ));
        }
        if let Some(want) = def.bound {
            match entry.get("bound").and_then(Json::as_f64) {
                Some(b) if b > 0.0 && b <= MAX_BOUND && b == want => {}
                other => problems.push(format!(
                    "{section}: {name} has bound {other:?}, the harness gates at {want} (limit {MAX_BOUND})"
                )),
            }
        }
    }
    for def in table {
        if !seen.contains(def.name) {
            problems.push(format!(
                "{section}: the harness emits {}, which is not listed",
                def.name
            ));
        }
    }
}

/// Every disagreement between `BENCHMARK.json` and the harness; empty
/// when the two agree.
pub fn check(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if text.len() > 64 << 10 {
        problems.push(format!("file is {} bytes, limit 65536", text.len()));
    }
    let doc = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    if keys_of(&doc) != TOP_KEYS {
        problems.push(format!(
            "top-level keys are {:?}, expected exactly {TOP_KEYS:?}",
            keys_of(&doc)
        ));
    }

    match doc.get("command").and_then(Json::as_arr) {
        Some(cmd) if (1..=32).contains(&cmd.len()) => {
            for word in cmd {
                match word.as_str() {
                    Some(w)
                        if w.len() <= 200
                            && !w.starts_with('/')
                            && !w.split('/').any(|c| c == "..") => {}
                    _ => problems.push(format!("command: bad word {word:?}")),
                }
            }
        }
        _ => problems.push("command: must be a list of 1..=32 strings".into()),
    }
    let path_ok = |p: &str| {
        !p.is_empty()
            && p.len() <= 200
            && !p.starts_with('/')
            && !p.split('/').any(|c| c == "..")
            && p.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
    };
    match doc.get("paths").and_then(Json::as_arr) {
        Some(paths) if (1..=16).contains(&paths.len()) => {
            for p in paths {
                if !p.as_str().is_some_and(path_ok) {
                    problems.push(format!("paths: bad path {p:?}"));
                }
            }
        }
        _ => problems.push("paths: must be a list of 1..=16 directories".into()),
    }
    match doc.get("run_seconds").and_then(Json::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {}
        other => problems.push(format!(
            "run_seconds: {other:?} is not a whole number in 1..=60"
        )),
    }

    match doc.get("workloads").and_then(Json::as_arr) {
        Some(listed) => {
            if !(2..=MAX_WORKLOADS).contains(&listed.len()) {
                problems.push(format!(
                    "workloads: {} entries, allowed 2..={MAX_WORKLOADS}",
                    listed.len()
                ));
            }
            let mut seen = BTreeSet::new();
            for entry in listed {
                let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
                let why = entry.get("why").and_then(Json::as_str).unwrap_or("");
                if keys_of(entry) != ["name", "why"] {
                    problems.push(format!(
                        "workloads: {name:?} must have exactly the keys name and why"
                    ));
                }
                if !valid_name(name) || !seen.insert(name) {
                    problems.push(format!("workloads: bad or repeated name {name:?}"));
                }
                if why.is_empty() || why.chars().count() > 200 || why.contains('\n') {
                    problems.push(format!(
                        "workloads: {name} needs a one-line why of at most 200 characters"
                    ));
                }
                match WORKLOADS.iter().find(|w| w.name == name) {
                    None => problems.push(format!(
                        "workloads: {name} is not a workload of the harness"
                    )),
                    Some(w) if w.why != why => {
                        problems.push(format!(
                            "workloads: {name}'s why differs from the harness's"
                        ));
                    }
                    Some(_) => {}
                }
            }
            for w in WORKLOADS {
                match (w.gated, seen.contains(w.name)) {
                    (true, false) => problems.push(format!(
                        "workloads: the harness gates {}, which is not listed",
                        w.name
                    )),
                    (false, true) => problems.push(format!(
                        "workloads: {} is listed, but the harness does not gate it",
                        w.name
                    )),
                    _ => {}
                }
            }
        }
        None => problems.push("workloads: missing or not a list".into()),
    }

    check_metrics(
        &mut problems,
        "end_to_end",
        doc.get("end_to_end"),
        &END_TO_END,
        MAX_END_TO_END,
    );
    check_metrics(
        &mut problems,
        "per_layer",
        doc.get("per_layer"),
        &PER_LAYER,
        MAX_PER_LAYER,
    );
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `BENCHMARK.json` rendered from the harness's own tables.
    fn from_tables() -> Json {
        let metric = |d: &MetricDef| {
            let mut pairs = vec![
                ("name", Json::str(d.name)),
                ("unit", Json::str(d.unit)),
                ("better", Json::str(d.better.as_str())),
            ];
            if let Some(b) = d.bound {
                pairs.push(("bound", Json::Num(b)));
            }
            Json::obj(pairs)
        };
        Json::obj([
            (
                "command",
                Json::Arr(vec![Json::str("cargo"), Json::str("run")]),
            ),
            ("paths", Json::Arr(vec![Json::str("perf")])),
            ("run_seconds", Json::Num(30.0)),
            (
                "workloads",
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .filter(|w| w.gated)
                        .map(|w| {
                            Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(END_TO_END.iter().map(metric).collect()),
            ),
            (
                "per_layer",
                Json::Arr(PER_LAYER.iter().map(metric).collect()),
            ),
        ])
    }

    #[test]
    fn tables_rendered_as_json_pass() {
        assert_eq!(check(&from_tables().render()), Vec::<String>::new());
    }

    #[test]
    fn the_committed_file_agrees_with_the_harness() {
        let text = include_str!("../../BENCHMARK.json");
        assert_eq!(check(text), Vec::<String>::new());
    }

    fn edited(edit: impl FnOnce(&mut std::collections::BTreeMap<String, Json>)) -> Vec<String> {
        let Json::Obj(mut doc) = from_tables() else {
            unreachable!()
        };
        edit(&mut doc);
        check(&Json::Obj(doc).render())
    }

    #[test]
    fn drift_in_either_direction_is_reported() {
        let drop_last = |key: &'static str| {
            edited(move |doc| {
                let Some(Json::Arr(list)) = doc.get_mut(key) else {
                    unreachable!()
                };
                list.pop();
            })
        };
        assert!(drop_last("per_layer")
            .iter()
            .any(|p| p.contains("not listed")));
        assert!(drop_last("workloads")
            .iter()
            .any(|p| p.contains("not listed")));

        // A workload the harness runs by hand only may not be listed.
        let by_hand = WORKLOADS.iter().find(|w| !w.gated).unwrap();
        let listed = edited(|doc| {
            let Some(Json::Arr(list)) = doc.get_mut("workloads") else {
                unreachable!()
            };
            list.push(Json::obj([
                ("name", Json::str(by_hand.name)),
                ("why", Json::str(by_hand.why)),
            ]));
        });
        assert!(listed.iter().any(|p| p.contains("does not gate it")));

        let stray = edited(|doc| {
            let Some(Json::Arr(list)) = doc.get_mut("per_layer") else {
                unreachable!()
            };
            list.push(Json::obj([
                ("name", Json::str("made.up")),
                ("unit", Json::str("s")),
                ("better", Json::str("lower")),
            ]));
        });
        assert!(stray.iter().any(|p| p.contains("made.up is not emitted")));
    }

    #[test]
    fn wrong_units_bounds_and_limits_are_reported() {
        let set = |key: &'static str, idx: usize, field: &'static str, v: Json| {
            edited(move |doc| {
                let Some(Json::Arr(list)) = doc.get_mut(key) else {
                    unreachable!()
                };
                let Json::Obj(entry) = &mut list[idx] else {
                    unreachable!()
                };
                entry.insert(field.into(), v);
            })
        };
        assert!(!set("end_to_end", 1, "unit", Json::str("ms")).is_empty());
        assert!(!set("end_to_end", 1, "bound", Json::Num(0.5)).is_empty());
        assert!(!set("end_to_end", 1, "better", Json::str("higher")).is_empty());
        assert!(
            !set("per_layer", 0, "bound", Json::Num(0.1)).is_empty(),
            "layer metrics have no bound"
        );
        assert!(!edited(|doc| drop(doc.insert("run_seconds".into(), Json::Num(61.0)))).is_empty());
        assert!(!edited(|doc| drop(doc.insert("extra".into(), Json::Null))).is_empty());
        assert!(!edited(|doc| drop(
            doc.insert("paths".into(), Json::Arr(vec![Json::str("../x")]))
        ))
        .is_empty());
        assert!(check("{")[0].starts_with("not valid JSON"));
    }
}

//! A malformed model file fails to load instead of loading and then
//! panicking in the serving path.
//!
//! Each test saves one small trained model, edits one member of its
//! JSON, and asserts that `MonitorlessModel::load` returns `Err`. Left
//! unchecked, several of the edits panic: an empty forest or tree, a
//! split child out of range, before its parent or shared by two
//! parents, an unreachable node, and a split feature beyond its tree's
//! or its forest's width while decoding builds the flat table; a
//! feature-pipeline width or index that disagrees with the stage
//! before it (from the raw layout's kinds and utilization indices on)
//! while decoding builds the serving plans, or at the first transform;
//! a forest wider than the pipeline in the first `Orchestrator::step`,
//! too few drift edges in `Orchestrator::new`, an over-long drift
//! profile in the drift detector's first push, and forest parameters
//! with no leaf floor in the first shadow retrain's challenger fit.
//! An under-long profile, a non-finite threshold or a leaf probability
//! outside `[0, 1]` would load and silently serve wrong predictions, and
//! a model without its drift profile would serve with no drift
//! detection at all.
//!
//! A property then makes one to three random structured edits to the
//! same file — a value replaced, an array element removed or
//! duplicated, an array cleared, an object member removed — and
//! asserts that decoding never panics and that every model it accepts
//! serves 40 ticks with probabilities in `[0, 1]`. It runs 64 cases
//! unless `PROPTEST_CASES` sets another count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use monitorless::drift::PROFILE_BINS;
use monitorless::model::{ModelOptions, MonitorlessModel};
use monitorless::orchestrator::Orchestrator;
use monitorless::training::{generate_training_data, TrainingOptions};
use monitorless::Error;
use monitorless_metrics::catalog::Catalog;
use monitorless_metrics::signals::{ContainerSignals, HostSignals};
use monitorless_metrics::{InstanceId, NodeId, Observation};
use monitorless_std::json::Json;
use proptest::collection::vec;
use proptest::prelude::*;

/// The saved JSON of one quick model, trained once for the whole file.
fn saved_json() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let data = generate_training_data(&TrainingOptions {
            run_seconds: 30,
            ramp_seconds: 100,
            seed: 13,
            n_jobs: 1,
        })
        .unwrap();
        let model = MonitorlessModel::train(&data, &ModelOptions::quick()).unwrap();
        let path = std::env::temp_dir().join("monitorless_model_load_saved.json");
        model.save(&path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        json
    })
}

/// The member `key` of a JSON object.
fn member<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(members) = json else {
        panic!("expected an object holding {key}")
    };
    let (_, value) = members
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing member {key}"));
    value
}

/// The elements of a JSON array.
fn elements(json: &mut Json) -> &mut Vec<Json> {
    let Json::Arr(items) = json else {
        panic!("expected an array")
    };
    items
}

/// The nodes of the forest's first tree.
fn first_tree_nodes(json: &mut Json) -> &mut Vec<Json> {
    let trees = elements(member(member(json, "forest"), "trees"));
    elements(member(&mut trees[0], "nodes"))
}

/// The body of the first tree's root split (node 0 of a trained tree).
fn root_split(json: &mut Json) -> &mut Json {
    member(&mut first_tree_nodes(json)[0], "Split")
}

/// The body of the first tree's first leaf, and that leaf's index.
fn first_leaf(json: &mut Json) -> (usize, &mut Json) {
    let nodes = first_tree_nodes(json);
    let i = nodes
        .iter()
        .position(|n| n.get("Leaf").is_some())
        .expect("a tree has leaves");
    (i, member(&mut nodes[i], "Leaf"))
}

/// The feature pipeline's member `key`.
fn pipeline<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
    member(member(json, "pipeline"), key)
}

/// A non-negative JSON integer.
fn index(json: &Json) -> usize {
    match json {
        Json::Int(i) => *i as usize,
        other => panic!("expected an integer, got {other:?}"),
    }
}

/// The pipeline's output width, read from the unedited model.
fn output_width() -> usize {
    let model: MonitorlessModel = monitorless_std::json::from_str(saved_json()).unwrap();
    model.pipeline().output_width()
}

/// Applies `edit` to the saved model's JSON, writes it to a file named
/// after `case`, and loads it back.
fn load_edited(case: &str, edit: impl FnOnce(&mut Json)) -> Result<MonitorlessModel, Error> {
    let mut json = Json::parse(saved_json()).unwrap();
    edit(&mut json);
    let path = std::env::temp_dir().join(format!("monitorless_model_load_{case}.json"));
    std::fs::write(&path, monitorless_std::json::to_string(&json)).unwrap();
    let loaded = MonitorlessModel::load(&path);
    let _ = std::fs::remove_file(&path);
    loaded
}

/// Asserts the edited model fails to load with a message naming `what`.
fn assert_rejected(loaded: Result<MonitorlessModel, Error>, what: &str) {
    match loaded {
        Err(e) => assert!(e.to_string().contains(what), "{what}: got {e}"),
        Ok(_) => panic!("{what}: the malformed model loaded"),
    }
}

#[test]
fn forest_without_trees_fails_to_load() {
    let loaded = load_edited("no_trees", |json| {
        elements(member(member(json, "forest"), "trees")).clear();
    });
    assert_rejected(loaded, "forest has no trees");
}

#[test]
fn forest_wider_than_pipeline_fails_to_load() {
    let width = output_width();
    let loaded = load_edited("wide_forest", |json| {
        *member(member(json, "forest"), "n_features") = Json::Int(width as i64 + 1);
    });
    assert_rejected(loaded, &format!("forest expects {} features", width + 1));
}

#[test]
fn forest_params_without_a_leaf_floor_fail_to_load() {
    // Such a model would serve, and then panic in the first retrain's
    // challenger fit.
    let loaded = load_edited("leaf_floor", |json| {
        let params = member(member(json, "forest"), "params");
        *member(params, "min_samples_leaf") = Json::Int(0);
    });
    assert_rejected(loaded, "min_samples_leaf must be at least 1");
}

#[test]
fn model_without_drift_profile_fails_to_load() {
    let loaded = load_edited("no_profile", |json| {
        let Json::Obj(members) = json else {
            panic!("model JSON must be an object")
        };
        members.retain(|(k, _)| k != "drift");
    });
    assert_rejected(loaded, "field \"drift\"");
}

#[test]
fn drift_feature_with_too_few_edges_fails_to_load() {
    let loaded = load_edited("few_edges", |json| {
        let features = elements(member(member(json, "drift"), "features"));
        elements(member(&mut features[0], "edges")).pop();
    });
    assert_rejected(loaded, &format!("drift feature 0 has {} edges", PROFILE_BINS - 2));
}

#[test]
fn drift_profile_longer_than_pipeline_fails_to_load() {
    let width = output_width();
    let loaded = load_edited("long_profile", |json| {
        let features = elements(member(member(json, "drift"), "features"));
        let last = features.last().cloned().expect("profile has features");
        features.push(last);
    });
    assert_rejected(loaded, &format!("drift profile has {} features", width + 1));
}

#[test]
fn drift_profile_shorter_than_pipeline_fails_to_load() {
    let width = output_width();
    let loaded = load_edited("short_profile", |json| {
        elements(member(member(json, "drift"), "features")).pop();
    });
    assert_rejected(loaded, &format!("drift profile has {} features", width - 1));
}

#[test]
fn split_child_out_of_range_fails_to_load() {
    let mut n = 0;
    let loaded = load_edited("child_out_of_range", |json| {
        n = first_tree_nodes(json).len();
        *member(root_split(json), "left") = Json::Int(n as i64 + 5);
    });
    assert_rejected(loaded, &format!("tree node 0: child {} is out of range for {n} nodes", n + 5));
}

#[test]
fn split_child_before_its_parent_fails_to_load() {
    let loaded = load_edited("child_before_parent", |json| {
        *member(root_split(json), "right") = Json::Int(0);
    });
    assert_rejected(loaded, "tree node 0: child 0 does not follow its parent");
}

#[test]
fn node_with_two_parents_fails_to_load() {
    let mut left = 0;
    let loaded = load_edited("two_parents", |json| {
        let split = root_split(json);
        left = index(member(split, "left"));
        *member(split, "right") = Json::Int(left as i64);
    });
    assert_rejected(loaded, &format!("tree node {left} has two parents"));
}

#[test]
fn node_without_parent_fails_to_load() {
    let mut n = 0;
    let loaded = load_edited("no_parent", |json| {
        let nodes = first_tree_nodes(json);
        n = nodes.len();
        let leaf = nodes
            .iter()
            .find(|node| node.get("Leaf").is_some())
            .cloned()
            .expect("a tree has leaves");
        nodes.push(leaf);
    });
    assert_rejected(loaded, &format!("tree node {n} has no parent"));
}

#[test]
fn split_feature_out_of_range_fails_to_load() {
    let width = output_width();
    let loaded = load_edited("feature_out_of_range", |json| {
        *member(root_split(json), "feature") = Json::Int(width as i64);
    });
    assert_rejected(
        loaded,
        &format!("tree node 0: split feature {width} is out of range for {width} features"),
    );
}

#[test]
fn non_finite_threshold_fails_to_load() {
    let loaded = load_edited("nan_threshold", |json| {
        *member(root_split(json), "threshold") = Json::Str("NaN".into());
    });
    assert_rejected(loaded, "tree node 0: split threshold NaN is not finite");
}

#[test]
fn nan_leaf_probability_fails_to_load() {
    let mut i = 0;
    let loaded = load_edited("nan_proba", |json| {
        let (at, leaf) = first_leaf(json);
        i = at;
        *member(leaf, "proba") = Json::Str("NaN".into());
    });
    assert_rejected(loaded, &format!("tree node {i}: leaf probability NaN is not in [0, 1]"));
}

#[test]
fn leaf_probability_above_one_fails_to_load() {
    let mut i = 0;
    let loaded = load_edited("proba_above_one", |json| {
        let (at, leaf) = first_leaf(json);
        i = at;
        *member(leaf, "proba") = Json::Num(1.5);
    });
    assert_rejected(loaded, &format!("tree node {i}: leaf probability 1.5 is not in [0, 1]"));
}

#[test]
fn tree_without_nodes_fails_to_load() {
    let loaded = load_edited("empty_tree", |json| first_tree_nodes(json).clear());
    assert_rejected(loaded, "forest tree 0 has no nodes");
}

#[test]
fn tree_wider_than_forest_fails_to_load() {
    // The root splits on a column the tree claims but the forest lacks.
    let width = output_width();
    let loaded = load_edited("wide_tree", |json| {
        *member(root_split(json), "feature") = Json::Int(width as i64);
        let trees = elements(member(member(json, "forest"), "trees"));
        *member(&mut trees[0], "n_features") = Json::Int(width as i64 + 1);
    });
    assert_rejected(
        loaded,
        &format!("forest tree 0 has {} features, more than the forest's {width}", width + 1),
    );
}

/// The feature pipeline's raw layout member `key`.
fn raw_layout<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
    member(member(pipeline(json, "expander"), "layout"), key)
}

#[test]
fn raw_layout_kinds_not_one_per_name_fail_to_load() {
    // One kind short used to load, then panic in the first transform.
    let mut n = 0;
    let loaded = load_edited("short_kinds", |json| {
        n = elements(raw_layout(json, "names")).len();
        elements(raw_layout(json, "kinds")).pop();
    });
    assert_rejected(loaded, &format!("raw layout has {} kinds for {n} names", n - 1));
}

#[test]
fn host_utilization_index_beyond_the_raw_width_fails_to_load() {
    let mut n = 0;
    let loaded = load_edited("host_index_out_of_range", |json| {
        n = elements(raw_layout(json, "names")).len();
        *raw_layout(json, "host_cpu_idle") = Json::Int(n as i64);
    });
    assert_rejected(
        loaded,
        &format!("raw layout's host_cpu_idle index {n} is beyond the raw width {n}"),
    );
}

#[test]
fn container_utilization_index_beyond_the_raw_width_fails_to_load() {
    let mut n = 0;
    let loaded = load_edited("ctr_index_out_of_range", |json| {
        n = elements(raw_layout(json, "names")).len();
        *raw_layout(json, "ctr_mem_util") = Json::Int(n as i64);
    });
    assert_rejected(
        loaded,
        &format!("raw layout's ctr_mem_util index {n} is beyond the raw width {n}"),
    );
}

#[test]
fn scaler_statistics_not_the_base_width_fail_to_load() {
    let mut base = 0;
    let loaded = load_edited("short_scaler", |json| {
        let means = elements(member(pipeline(json, "scaler"), "means"));
        base = means.len();
        means.pop();
    });
    assert_rejected(
        loaded,
        &format!("scaler has {} means and {base} stds, the base width is {base}", base - 1),
    );
}

#[test]
fn reduce1_selection_beyond_the_base_width_fails_to_load() {
    let mut base = 0;
    let loaded = load_edited("reduce1_out_of_range", |json| {
        base = elements(member(pipeline(json, "scaler"), "means")).len();
        let selected = elements(member(pipeline(json, "reduce1"), "Select"));
        *selected.last_mut().expect("reduce1 selects columns") = Json::Int(base as i64);
    });
    assert_rejected(
        loaded,
        &format!("reduce1 selects base column {base}, beyond the base width {base}"),
    );
}

#[test]
fn names_c_not_the_reduce1_width_fails_to_load() {
    // One name short used to load, then panic in the first tick.
    let mut rw = 0;
    let loaded = load_edited("short_names_c", |json| {
        let names_c = elements(pipeline(json, "names_c"));
        rw = names_c.len();
        names_c.pop();
    });
    assert_rejected(loaded, &format!("names_c has {} names, reduce1 outputs {rw} columns", rw - 1));
}

#[test]
fn time_expander_not_the_names_c_width_fails_to_load() {
    let mut rw = 0;
    let loaded = load_edited("wide_time", |json| {
        rw = elements(pipeline(json, "names_c")).len();
        *member(pipeline(json, "time"), "width") = Json::Int(rw as i64 + 1);
    });
    assert_rejected(loaded, &format!("time expander is {} wide, names_c has {rw} names", rw + 1));
}

#[test]
fn product_pair_out_of_range_fails_to_load() {
    let (mut rw, mut a) = (0, 0);
    let loaded = load_edited("pair_out_of_range", |json| {
        rw = elements(pipeline(json, "names_c")).len();
        let pair = elements(&mut elements(pipeline(json, "pairs"))[0]);
        a = index(&pair[0]);
        pair[1] = Json::Int(rw as i64);
    });
    assert_rejected(
        loaded,
        &format!("product pair ({a}, {rw}) is out of range for {rw} stage-C columns"),
    );
}

#[test]
fn reduce2_selection_beyond_the_stage_d_width_fails_to_load() {
    // Stage D is the stage-C row, three averages and three lags of it,
    // then one column per product pair.
    let mut d_width = 0;
    let loaded = load_edited("reduce2_out_of_range", |json| {
        let rw = elements(pipeline(json, "names_c")).len();
        d_width = 7 * rw + elements(pipeline(json, "pairs")).len();
        let selected = elements(member(pipeline(json, "reduce2"), "Select"));
        *selected.last_mut().expect("reduce2 selects columns") = Json::Int(d_width as i64);
    });
    assert_rejected(
        loaded,
        &format!("reduce2 selects stage-D column {d_width}, beyond the stage-D width {d_width}"),
    );
}

#[test]
fn keep_index_out_of_range_fails_to_load() {
    // Used to panic while decoding built the serving plan.
    let mut e_width = 0;
    let loaded = load_edited("keep_out_of_range", |json| {
        e_width = elements(member(pipeline(json, "reduce2"), "Select")).len();
        elements(pipeline(json, "keep"))[0] = Json::Int(1_000_000);
    });
    assert_rejected(
        loaded,
        &format!("keep index 1000000 is out of range for {e_width} reduce2 outputs"),
    );
}

#[test]
fn names_not_one_per_keep_index_fail_to_load() {
    let width = output_width();
    let loaded = load_edited("short_names", |json| {
        elements(pipeline(json, "names")).pop();
    });
    assert_rejected(loaded, &format!("names has {} entries, keep has {width}", width - 1));
}

/// Where an edit may land, drawn evenly: each member of the feature
/// pipeline, the forest's parameters, its first tree, the threshold and
/// the drift profile, as a member path from the model's root.
const EDIT_TARGETS: &[&[&str]] = &[
    &["pipeline", "config"],
    &["pipeline", "expander"],
    &["pipeline", "scaler"],
    &["pipeline", "reduce1"],
    &["pipeline", "time"],
    &["pipeline", "pairs"],
    &["pipeline", "names_c"],
    &["pipeline", "reduce2"],
    &["pipeline", "keep"],
    &["pipeline", "names"],
    &["forest", "params"],
    &["forest", "trees", "0"],
    &["threshold"],
    &["drift"],
];

/// The node at `path` below `json`: member names for objects, element
/// indices for arrays.
fn at_path<'a, S: AsRef<str>>(mut json: &'a mut Json, path: &[S]) -> &'a mut Json {
    for step in path {
        let step = step.as_ref();
        json = match json {
            Json::Arr(items) => &mut items[step.parse::<usize>().expect("an element index")],
            other => member(other, step),
        };
    }
    json
}

/// Paths, relative to `json`, of every node below it (itself included)
/// that `keep` accepts, in document order.
fn node_paths(json: &Json, keep: fn(&Json) -> bool) -> Vec<Vec<String>> {
    fn walk(
        json: &Json,
        path: &mut Vec<String>,
        keep: fn(&Json) -> bool,
        out: &mut Vec<Vec<String>>,
    ) {
        if keep(json) {
            out.push(path.clone());
        }
        let children: Vec<(String, &Json)> = match json {
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| (i.to_string(), v))
                .collect(),
            Json::Obj(members) => members.iter().map(|(k, v)| (k.clone(), v)).collect(),
            _ => Vec::new(),
        };
        for (step, child) in children {
            path.push(step);
            walk(child, path, keep, out);
            path.pop();
        }
    }
    let mut out = Vec::new();
    walk(json, &mut Vec::new(), keep, &mut out);
    out
}

/// Applies one structured edit `(target, pick, op, variant, number)` to
/// the model JSON. `target` indexes [`EDIT_TARGETS`]; `pick` chooses
/// the node below it and, for array and object edits, the element or
/// member. `op` 0 replaces a number (`variant` picks `"NaN"`,
/// `"-Infinity"`, -1, 1e300 or `number`); `op` 1 removes, duplicates
/// (`variant` 0, 1) or clears (2–4) an array's elements; `op` 2 removes
/// an object member. An edit finding no node of its kind below the
/// target replaces the target's value instead.
fn apply_edit(json: &mut Json, (target, pick, op, variant, number): (usize, usize, u8, u8, f64)) {
    let root = at_path(json, EDIT_TARGETS[target]);
    let keep: fn(&Json) -> bool = match op {
        1 => |j| matches!(j, Json::Arr(_)),
        2 => |j| matches!(j, Json::Obj(_)),
        _ => |j| matches!(j, Json::Int(_) | Json::Num(_)),
    };
    let paths = node_paths(root, keep);
    let (op, paths) = if paths.is_empty() {
        (0, vec![Vec::new()])
    } else {
        (op, paths)
    };
    let node = at_path(root, &paths[pick % paths.len()]);
    let at = pick / paths.len();
    match (op, node) {
        (1, Json::Arr(items)) if variant >= 2 => items.clear(),
        (1, Json::Arr(items)) if !items.is_empty() => {
            let i = at % items.len();
            if variant == 0 {
                items.remove(i);
            } else {
                items.insert(i, items[i].clone());
            }
        }
        (2, Json::Obj(members)) if !members.is_empty() => {
            members.remove(at % members.len());
        }
        (1 | 2, _) => {} // an empty array or object
        (_, node) => {
            *node = match variant {
                0 => Json::Str("NaN".into()),
                1 => Json::Str("-Infinity".into()),
                2 => Json::Int(-1),
                3 => Json::Num(1e300),
                _ => Json::Num(number),
            }
        }
    }
}

/// One node's observation at second `t`: a single instance whose
/// catalog-width metrics ramp up over the 40 served ticks.
fn observation(t: u64) -> Observation {
    let catalog = Catalog::standard();
    let util = t as f64 / 40.0;
    let host = HostSignals {
        cpu_util: 0.9 * util,
        tcp_estab: 50.0 + 100.0 * util,
        ..HostSignals::default()
    };
    let ctr = ContainerSignals {
        cpu_util: util,
        mem_util: 0.4,
        ..ContainerSignals::default()
    };
    Observation {
        node: NodeId(0),
        time: t,
        host: catalog.expand_host(&host, t, 1),
        containers: vec![(InstanceId(0), catalog.expand_container(&ctr, t, 2))],
    }
}

/// Decodes `text` as a model and, when it is accepted, serves 40 ticks
/// with it. `Err` names the first tick that errors or yields a
/// probability outside `[0, 1]`.
fn decode_and_serve(text: &str) -> Result<(), String> {
    let Ok(model) = monitorless_std::json::from_str::<MonitorlessModel>(text) else {
        return Ok(());
    };
    let mut orchestrator = Orchestrator::new(Arc::new(model));
    for t in 0..40 {
        let predictions = orchestrator
            .step(&[observation(t)])
            .map_err(|e| format!("tick {t}: {e}"))?;
        if let Some(p) = predictions
            .iter()
            .find(|p| !(0.0..=1.0).contains(&p.probability))
        {
            return Err(format!("tick {t}: probability {}", p.probability));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn edited_models_fail_to_load_or_serve_valid_probabilities(
        edits in vec((0usize..EDIT_TARGETS.len(), 0usize..usize::MAX, 0u8..3, 0u8..5, -1e6f64..1e6), 1..4),
    ) {
        let mut json = Json::parse(saved_json()).unwrap();
        for &edit in &edits {
            apply_edit(&mut json, edit);
        }
        let text = monitorless_std::json::to_string(&json);
        let outcome = catch_unwind(AssertUnwindSafe(|| decode_and_serve(&text)))
            .unwrap_or_else(|_| Err("panicked".into()));
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

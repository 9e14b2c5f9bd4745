//! A malformed model file fails to load instead of loading and then
//! panicking in the serving path.
//!
//! Each test saves one small trained model, edits one member of its
//! JSON, and asserts that `MonitorlessModel::load` returns `Err`. Left
//! unchecked, four of the edits panic: an empty forest while decoding
//! builds the flat table, a forest wider than the pipeline in the first
//! `Orchestrator::step`, too few drift edges in `Orchestrator::new`, and
//! an over-long drift profile in the drift detector's first push. An
//! under-long profile would load and silently leave the last feature
//! unmonitored.

use std::sync::OnceLock;

use monitorless::drift::PROFILE_BINS;
use monitorless::model::{ModelOptions, MonitorlessModel};
use monitorless::training::{generate_training_data, TrainingOptions};
use monitorless::Error;
use monitorless_std::json::Json;

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

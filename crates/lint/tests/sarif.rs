//! SARIF output schema-shape validation: the linter's hand-rolled JSON
//! is parsed back with the in-tree serde_json shim and checked against
//! the SARIF 2.1.0 required-property surface GitHub code scanning
//! consumes — real parsing, not substring matching, so a misplaced
//! comma or an unescaped message can never ship. The fixture input is
//! the panic-reachability bad workspace, which guarantees at least one
//! result with a code flow.

use std::path::Path;

use gv_lint::{run, sarif, ALL_RULES};
use serde::Value;

fn fixture_report() -> gv_lint::LintReport {
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/interproc/panic_reach/bad");
    run(&root).expect("fixture lints")
}

/// Object field lookup that panics with the key name on a miss.
fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.field(key)
        .unwrap_or_else(|e| panic!("missing {key:?}: {e}"))
}

fn as_str<'a>(v: &'a Value, key: &str) -> &'a str {
    match get(v, key) {
        Value::Str(s) => s,
        other => panic!("{key:?} is not a string: {other:?}"),
    }
}

fn as_array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match get(v, key) {
        Value::Array(items) => items,
        other => panic!("{key:?} is not an array: {other:?}"),
    }
}

fn as_u64(v: &Value, key: &str) -> u64 {
    match get(v, key) {
        Value::U64(u) => *u,
        other => panic!("{key:?} is not an integer: {other:?}"),
    }
}

#[test]
fn sarif_log_has_the_required_2_1_0_shape() {
    let report = fixture_report();
    assert!(
        !report.violations.is_empty(),
        "fixture must produce results"
    );
    let log: Value = serde_json::from_str(&sarif::render(&report)).expect("SARIF parses as JSON");

    assert_eq!(
        as_str(&log, "$schema"),
        "https://json.schemastore.org/sarif-2.1.0.json"
    );
    assert_eq!(as_str(&log, "version"), "2.1.0");

    let runs = as_array(&log, "runs");
    assert_eq!(runs.len(), 1);
    let driver = get(get(&runs[0], "tool"), "driver");
    assert_eq!(as_str(driver, "name"), "gv-lint");
    assert!(!as_str(driver, "informationUri").is_empty());

    // Every declared rule has an id, a description, and a level.
    // Every rule plus the meta rule `lint-directive`.
    let rules = as_array(driver, "rules");
    assert_eq!(rules.len(), ALL_RULES.len() + 1);
    for rule in rules {
        assert!(!as_str(rule, "id").is_empty());
        assert!(!as_str(get(rule, "shortDescription"), "text").is_empty());
        assert_eq!(as_str(get(rule, "defaultConfiguration"), "level"), "error");
    }

    // Every result is internally consistent with the rules array and
    // mirrors one report violation in order.
    let results = as_array(&runs[0], "results");
    assert_eq!(results.len(), report.violations.len());
    for (result, v) in results.iter().zip(&report.violations) {
        let idx = as_u64(result, "ruleIndex") as usize;
        assert_eq!(as_str(&rules[idx], "id"), as_str(result, "ruleId"));
        assert_eq!(as_str(result, "ruleId"), v.rule.as_str());
        assert_eq!(as_str(result, "level"), "error");
        assert_eq!(as_str(get(result, "message"), "text"), v.message);

        let locations = as_array(result, "locations");
        assert_eq!(locations.len(), 1);
        let phys = get(&locations[0], "physicalLocation");
        assert_eq!(as_str(get(phys, "artifactLocation"), "uri"), v.file);
        let region = get(phys, "region");
        assert_eq!(as_u64(region, "startLine"), u64::from(v.line));
        assert_eq!(as_u64(region, "startColumn"), u64::from(v.col));

        // Interprocedural findings carry their chain as one thread flow.
        let flows = as_array(result, "codeFlows");
        assert_eq!(flows.len(), 1);
        let thread_flows = as_array(&flows[0], "threadFlows");
        assert_eq!(thread_flows.len(), 1);
        let steps = as_array(&thread_flows[0], "locations");
        assert_eq!(steps.len(), v.chain.len());
        for (step, link) in steps.iter().zip(&v.chain) {
            let loc = get(step, "location");
            let phys = get(loc, "physicalLocation");
            assert_eq!(as_str(get(phys, "artifactLocation"), "uri"), link.file);
            assert_eq!(
                as_u64(get(phys, "region"), "startLine"),
                u64::from(link.line)
            );
            assert_eq!(as_str(get(loc, "message"), "text"), link.note);
        }
    }
}

#[test]
fn sarif_rendering_is_byte_stable_across_runs() {
    let a = sarif::render(&fixture_report());
    let b = sarif::render(&fixture_report());
    assert_eq!(a, b);
    assert!(
        a.ends_with('\n'),
        "log is newline-terminated for artifact upload"
    );
}

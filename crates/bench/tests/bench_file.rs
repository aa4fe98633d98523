//! The checked-in `BENCH_thermal.json` is a consistent record: it holds
//! the rows `./ci.sh bench` and `./ci.sh serve` write and no others,
//! every timed smoke field is a median/min/IQR summary of enough
//! samples, and the serve campaign verified every session it completed.

use serde::{Map, Value};

fn bench_file() -> Map {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_thermal.json");
    let text = std::fs::read_to_string(path).expect("BENCH_thermal.json is checked in");
    match serde_json::from_str::<Value>(&text).expect("BENCH_thermal.json parses") {
        Value::Object(m) => m,
        other => panic!("BENCH_thermal.json is a {}, not an object", other.kind()),
    }
}

fn object<'a>(v: &'a Value, what: &str) -> &'a Map {
    v.as_object()
        .unwrap_or_else(|| panic!("{what} is a {}, not an object", v.kind()))
}

fn number(m: &Map, key: &str, what: &str) -> f64 {
    match m.get(key) {
        Some(Value::Number(n)) => n.as_f64(),
        other => panic!("{what}.{key} is not a number: {other:?}"),
    }
}

fn rows<'a>(file: &'a Map, key: &str) -> &'a [Value] {
    match file.get(key) {
        Some(Value::Array(rows)) if !rows.is_empty() => rows,
        other => panic!("{key} is not a non-empty array: {other:?}"),
    }
}

#[test]
fn the_file_holds_only_the_rows_its_lanes_write() {
    let file = bench_file();
    let keys: Vec<&str> = file.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "adaptive",
            "description",
            "preconditioner",
            "scheme",
            "serve",
            "steady_state"
        ]
    );
}

#[test]
fn every_timed_field_is_a_median_min_iqr_summary() {
    let file = bench_file();
    let timed = [
        ("steady_state", &["solver_ms"][..]),
        ("preconditioner", &["setup_ms", "apply_ms"][..]),
    ];
    for (section, fields) in timed {
        for (i, row) in rows(&file, section).iter().enumerate() {
            let row = object(row, section);
            for field in fields {
                let what = format!("{section}[{i}].{field}");
                let t = object(
                    row.get(*field)
                        .unwrap_or_else(|| panic!("{what} is missing")),
                    &what,
                );
                let (median, min, iqr) = (
                    number(t, "median", &what),
                    number(t, "min", &what),
                    number(t, "iqr", &what),
                );
                assert!(
                    number(t, "samples", &what) >= 5.0,
                    "{what}: too few samples"
                );
                assert!(
                    0.0 < min && min <= median && iqr >= 0.0,
                    "{what}: min {min}, median {median}, iqr {iqr}"
                );
            }
        }
    }
}

#[test]
fn serve_campaign_verified_every_completed_session() {
    let file = bench_file();
    let serve = object(file.get("serve").expect("serve row"), "serve");
    assert_eq!(
        number(serve, "verified_bit_identical", "serve"),
        number(serve, "completed", "serve")
    );
}

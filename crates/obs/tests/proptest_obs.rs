//! Property-based tests for the observability layer's invariants: the
//! four design rules of `xylem-obs` (see crate docs / DESIGN.md §14),
//! checked under arbitrary inputs rather than the unit tests' chosen
//! ones.
//!
//! Metrics are a process-global registry shared by every test thread,
//! so counter properties assert monotone lower bounds (`>=`) rather
//! than exact equality.

use proptest::prelude::*;

use xylem_obs::json::{parse, Value};
use xylem_obs::{add, counter, event, gauge, set_gauge, span, span_depth, Counter, Gauge};

/// Fixed palette of awkward string fragments: escapes, quotes, control
/// characters, multi-byte UTF-8. The generator composes these, which is
/// where JSON string encoders actually break.
const FRAGMENTS: [&str; 8] = ["", "a", "\"", "\\", "\n", "\u{1}", "héllo", "κ→🌡"];

fn fragment_string(a: u32, b: u32) -> String {
    format!(
        "{}{}",
        FRAGMENTS[a as usize % FRAGMENTS.len()],
        FRAGMENTS[b as usize % FRAGMENTS.len()]
    )
}

/// Builds an arbitrary `Value` tree from a flat instruction stream; the
/// stream length bounds the tree size, recursion depth is capped by
/// construction (containers only below `depth` 2).
fn value_from(ops: &mut std::slice::Iter<'_, (u32, i64, f64, u32)>, depth: usize) -> Value {
    let Some(&(tag, i, f, s)) = ops.next() else {
        return Value::Null;
    };
    let n_variants = if depth >= 2 { 6 } else { 8 };
    match tag % n_variants {
        0 => Value::Null,
        1 => Value::Bool(i % 2 == 0),
        2 => Value::U64(i.unsigned_abs()),
        3 => Value::I64(i),
        4 => Value::F64(f),
        5 => Value::Str(fragment_string(tag, s)),
        6 => Value::Array((0..(s % 3)).map(|_| value_from(ops, depth + 1)).collect()),
        _ => Value::Object(
            (0..(s % 3))
                .map(|k| {
                    (
                        fragment_string(s.wrapping_add(k), tag),
                        value_from(ops, depth + 1),
                    )
                })
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rule: counters only go up. Any sequence of `add`s leaves each
    /// counter at least the sum of its own increments higher, and no
    /// observation along the way ever decreases.
    #[test]
    fn counters_are_monotonic(
        ops in proptest::collection::vec((0usize..12, 0u64..1000), 1..40),
    ) {
        let c = |i: usize| Counter::ALL[i % Counter::ALL.len()];
        let before: Vec<u64> = Counter::ALL.iter().map(|&x| counter(x)).collect();
        let mut my_adds = vec![0u64; Counter::ALL.len()];
        let mut last_seen = before.clone();
        for &(i, by) in &ops {
            add(c(i), by);
            my_adds[i % Counter::ALL.len()] += by;
            for (k, &x) in Counter::ALL.iter().enumerate() {
                let now = counter(x);
                prop_assert!(now >= last_seen[k], "{} went down: {} -> {now}", x.label(), last_seen[k]);
                last_seen[k] = now;
            }
        }
        for (k, &x) in Counter::ALL.iter().enumerate() {
            prop_assert!(
                counter(x) >= before[k] + my_adds[k],
                "{} = {} < {} + {}",
                x.label(),
                counter(x),
                before[k],
                my_adds[k]
            );
        }
    }

    /// Rule: span timers nest LIFO. For an arbitrary nesting schedule the
    /// thread-local depth rises by exactly one per live span and returns
    /// to its starting value when the stack unwinds.
    #[test]
    fn span_timers_nest_correctly(widths in proptest::collection::vec(0usize..4, 1..6)) {
        fn nest(widths: &[usize]) -> Result<(), String> {
            let d0 = span_depth();
            let Some((&w, rest)) = widths.split_first() else {
                return Ok(());
            };
            for _ in 0..w {
                let s = span("prop_span", None);
                prop_assert!(span_depth() == d0 + 1, "open: {} != {}", span_depth(), d0 + 1);
                prop_assert!(s.depth() == d0, "span records entry depth");
                nest(rest)?;
                prop_assert!(span_depth() == d0 + 1, "inner spans unwound");
                drop(s);
                prop_assert!(span_depth() == d0, "close: {} != {d0}", span_depth());
            }
            Ok(())
        }
        nest(&widths)?;
        prop_assert_eq!(span_depth(), 0);
    }

    /// Rule: every line the sink writes can be parsed back. Arbitrary
    /// value trees survive a serialize/parse round trip bit-exactly, and
    /// whole events (with auto-added `ev`/`t_ms` fields and non-finite
    /// floats mapped to null) always re-parse.
    #[test]
    fn jsonl_round_trips(
        ops in proptest::collection::vec((any::<u32>(), any::<i64>(), -1.0e300f64..1.0e300, any::<u32>()), 1..30),
        specials in 0u32..8,
    ) {
        let v = value_from(&mut ops.iter(), 0);
        let text = v.to_string();
        let back = parse(&text).map_err(|e| format!("{text:?}: {e}"))?;
        prop_assert_eq!(&back, &v, "round trip through {:?}", text);

        // An event line with hostile field contents, including the
        // non-finite floats the builder must neutralize.
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][specials as usize % 4];
        let (tag, i, f, s) = ops[0];
        let ev = event("prop_event")
            .str("s", &fragment_string(tag, s))
            .value("i", Value::I64(i))
            .f64("f", f)
            .f64("special", special)
            .value("tree", v)
            .to_value();
        let line = ev.to_string();
        let back = parse(&line).map_err(|e| format!("{line:?}: {e}"))?;
        if !special.is_finite() {
            prop_assert!(back.get("special") == Some(&Value::Null), "non-finite must become null");
        }
        prop_assert_eq!(back.get("i"), Some(&Value::I64(i)));
    }

    /// Rule: gauges never hold a non-finite value. Whatever stream of
    /// stores arrives — NaN, infinities, negative zero, huge magnitudes —
    /// a read returns either nothing or a finite float, and a non-finite
    /// store never clobbers the last finite one.
    #[test]
    fn gauges_never_go_non_finite(
        stores in proptest::collection::vec((0u32..6, any::<f64>()), 1..50),
    ) {
        let mut last_finite: Option<f64> = None;
        for &(tag, mag) in &stores {
            let value = match tag {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                _ => mag,
            };
            set_gauge(Gauge::SensorFusedC, value);
            if value.is_finite() {
                last_finite = Some(value);
            }
            let read = gauge(Gauge::SensorFusedC);
            prop_assert!(
                read.is_none_or(f64::is_finite),
                "gauge read back non-finite: {read:?}"
            );
            if let Some(want) = last_finite {
                prop_assert!(
                    read.map(f64::to_bits) == Some(want.to_bits()),
                    "finite store lost: read {read:?}, want {want}"
                );
            }
        }
    }
}

//! Structured events: a small builder over [`crate::json::Value`] that
//! serialises to one JSONL line.

use crate::json::Value;
use crate::sink;

/// A structured event under construction. Build with [`crate::event`],
/// add typed fields, then [`Event::emit`].
///
/// Field setters on a disabled sink still record into the builder (the
/// cost has already been paid by constructing it); callers on hot paths
/// should gate on [`crate::enabled`] before constructing.
#[derive(Debug, Clone)]
#[must_use = "an Event does nothing until .emit() is called"]
pub struct Event {
    fields: Vec<(String, Value)>,
}

impl Event {
    /// Starts an event named `name` (the `ev` field), stamped with the
    /// process-relative timestamp `t_ms`.
    pub fn new(name: &str) -> Self {
        Event {
            fields: vec![
                ("ev".to_owned(), Value::Str(name.to_owned())),
                ("t_ms".to_owned(), Value::F64(sink::elapsed_ms())),
            ],
        }
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        self.fields.push((key.to_owned(), Value::U64(v)));
        self
    }

    /// Adds a signed integer field.
    pub fn i64(mut self, key: &str, v: i64) -> Self {
        self.fields.push((key.to_owned(), Value::I64(v)));
        self
    }

    /// Adds a float field. Non-finite values are stored as JSON `null`.
    pub fn f64(mut self, key: &str, v: f64) -> Self {
        let value = if v.is_finite() {
            Value::F64(v)
        } else {
            Value::Null
        };
        self.fields.push((key.to_owned(), value));
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.fields.push((key.to_owned(), Value::Str(v.to_owned())));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.fields.push((key.to_owned(), Value::Bool(v)));
        self
    }

    /// Adds an array of floats (e.g. a residual curve). Non-finite
    /// entries are stored as `null`.
    pub fn f64_array(mut self, key: &str, vs: &[f64]) -> Self {
        let items = vs
            .iter()
            .map(|&v| {
                if v.is_finite() {
                    Value::F64(v)
                } else {
                    Value::Null
                }
            })
            .collect();
        self.fields.push((key.to_owned(), Value::Array(items)));
        self
    }

    /// Adds a pre-built JSON value field.
    pub fn value(mut self, key: &str, v: Value) -> Self {
        self.fields.push((key.to_owned(), v));
        self
    }

    /// The event as a JSON object value.
    pub fn to_value(&self) -> Value {
        Value::Object(self.fields.clone())
    }

    /// Serialises the event and writes it to the installed sink (no-op
    /// when the sink is disabled).
    pub fn emit(self) {
        if !sink::enabled() {
            return;
        }
        sink::write_line(&Value::Object(self.fields).to_string());
    }
}

/// Starts building an event named `name`.
pub fn event(name: &str) -> Event {
    Event::new(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(e: &Event) -> Vec<(String, Value)> {
        match e.to_value() {
            Value::Object(f) => f,
            other => panic!("event is not an object: {other}"),
        }
    }

    #[test]
    fn event_starts_with_its_name_and_timestamp() {
        let f = fields(&event("solve"));
        assert_eq!(f.len(), 2);
        assert_eq!(f[0], ("ev".to_owned(), Value::Str("solve".to_owned())));
        assert_eq!(f[1].0, "t_ms");
        let t = f[1].1.as_f64().expect("t_ms is a number");
        assert!(t.is_finite() && t >= 0.0, "{t}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = event("x")
            .f64("nan", f64::NAN)
            .f64("inf", f64::NEG_INFINITY)
            .f64("ok", 2.5);
        let v = e.to_value();
        assert_eq!(v.get("nan"), Some(&Value::Null));
        assert_eq!(v.get("inf"), Some(&Value::Null));
        assert_eq!(v.get("ok"), Some(&Value::F64(2.5)));
    }

    #[test]
    fn float_arrays_null_only_the_non_finite_entries() {
        let v = event("x")
            .f64_array("curve", &[1.0, f64::INFINITY, 0.5, f64::NAN])
            .to_value();
        assert_eq!(
            v.get("curve"),
            Some(&Value::Array(vec![
                Value::F64(1.0),
                Value::Null,
                Value::F64(0.5),
                Value::Null,
            ]))
        );
    }

    #[test]
    fn typed_fields_keep_order_and_round_trip_through_json() {
        let e = event("step")
            .u64("n", 7)
            .i64("delta", -3)
            .str("prec", "amg \"v\"")
            .bool("ok", true)
            .value("extra", Value::Array(vec![Value::U64(1)]));
        let keys: Vec<String> = fields(&e).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["ev", "t_ms", "n", "delta", "prec", "ok", "extra"]);
        let v = e.to_value();
        let parsed = crate::json::parse(&v.to_string()).expect("valid JSON");
        assert_eq!(parsed, v);
    }
}

//! Pluggable trace sinks.

use crate::sync::lock;
use crate::{FieldValue, Record};
use serde_json::Value;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Receives every emitted record. Implementations must be cheap enough
/// to call from the tuning hot path (the JSON-lines sink buffers; the
/// engine emits at most one span per unique configuration).
pub trait Sink: Send + Sync {
    /// Deliver one record.
    fn emit(&self, record: &Record);
    /// Flush buffered output (called by [`crate::clear_sink`]).
    fn flush(&self) {}
}

/// Buffers records in memory, for tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
}

impl MemorySink {
    /// Drain and return everything captured so far, in emission order.
    pub fn take(&self) -> Vec<Record> {
        std::mem::take(&mut lock(&self.records))
    }

    /// Number of captured records.
    pub fn len(&self) -> usize {
        lock(&self.records).len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        lock(&self.records).is_empty()
    }
}

impl Sink for MemorySink {
    fn emit(&self, record: &Record) {
        lock(&self.records).push(record.clone());
    }
}

fn field_to_json(v: &FieldValue) -> Value {
    match v {
        FieldValue::Str(s) => Value::String(s.clone()),
        FieldValue::I64(i) => Value::Int(*i),
        FieldValue::U64(u) => Value::UInt(*u),
        FieldValue::F64(f) => Value::Float(*f),
        FieldValue::Bool(b) => Value::Bool(*b),
    }
}

/// Render one record as a single-line JSON object:
/// `{"t_us":…,"name":…,("dur_us":…,)?("trace_id":…,)?("span_id":…,)?`
/// `("parent_id":…,)? "fields":{…}}`. The causal-id keys are omitted
/// when absent, so traces written before spans carried causality still
/// parse (and vice versa: [`record_from_json`] treats missing ids as
/// `None`).
pub fn record_to_json(record: &Record) -> String {
    let mut obj = vec![
        ("t_us".to_string(), Value::UInt(record.t_us)),
        ("name".to_string(), Value::String(record.name.clone())),
    ];
    if let Some(d) = record.dur_us {
        obj.push(("dur_us".to_string(), Value::UInt(d)));
    }
    if let Some(t) = record.trace_id {
        obj.push(("trace_id".to_string(), Value::UInt(t)));
    }
    if let Some(s) = record.span_id {
        obj.push(("span_id".to_string(), Value::UInt(s)));
    }
    if let Some(p) = record.parent_id {
        obj.push(("parent_id".to_string(), Value::UInt(p)));
    }
    let fields: Vec<(String, Value)> = record
        .fields
        .iter()
        .map(|(k, v)| (k.clone(), field_to_json(v)))
        .collect();
    obj.push(("fields".to_string(), Value::Object(fields)));
    serde_json::to_string(&Value::Object(obj)).expect("record serializes")
}

/// Parse one JSON line back into a [`Record`] (the inverse of
/// [`record_to_json`]; floats that happen to be integral round-trip as
/// integer field values).
pub fn record_from_json(line: &str) -> Result<Record, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("{e:?}"))?;
    let t_us = v
        .get("t_us")
        .and_then(|t| t.as_u64())
        .ok_or("missing t_us")?;
    let name = v
        .get("name")
        .and_then(|n| n.as_str())
        .ok_or("missing name")?
        .to_string();
    let dur_us = v.get("dur_us").and_then(|d| d.as_u64());
    let trace_id = v.get("trace_id").and_then(|t| t.as_u64());
    let span_id = v.get("span_id").and_then(|s| s.as_u64());
    let parent_id = v.get("parent_id").and_then(|p| p.as_u64());
    let mut fields = Vec::new();
    if let Some(Value::Object(pairs)) = v.get("fields") {
        for (k, fv) in pairs {
            let fv = match fv {
                Value::String(s) => FieldValue::Str(s.clone()),
                Value::Bool(b) => FieldValue::Bool(*b),
                // Canonicalize non-negative integers to U64 so counter
                // and iteration fields round-trip regardless of which
                // integer variant the parser picked.
                Value::Int(i) if *i >= 0 => FieldValue::U64(*i as u64),
                Value::Int(i) => FieldValue::I64(*i),
                Value::UInt(u) => FieldValue::U64(*u),
                Value::Float(f) => FieldValue::F64(*f),
                other => return Err(format!("field {k}: unsupported value {other:?}")),
            };
            fields.push((k.clone(), fv));
        }
    }
    Ok(Record {
        t_us,
        name,
        dur_us,
        trace_id,
        span_id,
        parent_id,
        fields,
    })
}

/// Writes one JSON object per line to a file, buffered.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncate) the trace file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl Sink for JsonlSink {
    fn emit(&self, record: &Record) {
        let line = record_to_json(record);
        let mut w = lock(&self.writer);
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = lock(&self.writer).flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            t_us: 42,
            name: "eval.simulate".into(),
            dur_us: Some(17),
            trace_id: Some(7),
            span_id: Some(9),
            parent_id: Some(8),
            fields: vec![
                ("shard".to_string(), FieldValue::U64(3)),
                ("perf".to_string(), FieldValue::F64(1.5e9)),
                (
                    "label".to_string(),
                    FieldValue::Str("a \"quoted\" name".into()),
                ),
                ("hit".to_string(), FieldValue::Bool(false)),
                ("delta".to_string(), FieldValue::I64(-4)),
            ],
        }
    }

    #[test]
    fn json_line_round_trips() {
        let r = sample();
        let line = record_to_json(&r);
        assert!(!line.contains('\n'));
        let back = record_from_json(&line).unwrap();
        assert_eq!(back.t_us, r.t_us);
        assert_eq!(back.name, r.name);
        assert_eq!(back.dur_us, r.dur_us);
        assert_eq!(back.trace_id, r.trace_id);
        assert_eq!(back.span_id, r.span_id);
        assert_eq!(back.parent_id, r.parent_id);
        assert_eq!(back.fields.len(), r.fields.len());
        assert_eq!(back.fields[0], r.fields[0]);
        assert_eq!(back.fields[3], r.fields[3]);
        assert_eq!(back.fields[4], r.fields[4]);
        match (&back.fields[1].1, &r.fields[1].1) {
            (FieldValue::F64(a), FieldValue::F64(b)) => assert_eq!(a, b),
            // 1.5e9 may parse back as an integral number; both are fine
            // for consumers, which read numbers via as_f64 semantics.
            (FieldValue::U64(a), FieldValue::F64(b)) => assert_eq!(*a as f64, *b),
            other => panic!("unexpected {other:?}"),
        }
        match (&back.fields[2].1, &r.fields[2].1) {
            (FieldValue::Str(a), FieldValue::Str(b)) => assert_eq!(a, b),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lines_without_causal_ids_still_parse() {
        let line = r#"{"t_us":1,"name":"legacy.event","fields":{"k":2}}"#;
        let r = record_from_json(line).unwrap();
        assert_eq!(r.trace_id, None);
        assert_eq!(r.span_id, None);
        assert_eq!(r.parent_id, None);
        assert_eq!(r.name, "legacy.event");
    }

    #[test]
    fn events_have_no_dur_us_key() {
        let mut r = sample();
        r.dur_us = None;
        let line = record_to_json(&r);
        assert!(!line.contains("dur_us"));
        assert_eq!(record_from_json(&line).unwrap().dur_us, None);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let path = std::env::temp_dir().join("tunio_trace_sink_test.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&sample());
        let mut second = sample();
        second.name = "second".into();
        sink.emit(&second);
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(record_from_json(lines[0]).unwrap().name, "eval.simulate");
        assert_eq!(record_from_json(lines[1]).unwrap().name, "second");
    }
}

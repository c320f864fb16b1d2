//! Reading serialized JSONL trace streams back into typed records.
//!
//! The writer side of this crate ([`JsonlSink`]) guarantees one sorted-key
//! JSON object per line; this module is the inverse: it parses a stream
//! back into [`TraceRecord`]s with *diagnosable* failures. Every parse
//! error names the 1-based line, the 0-based event index (records
//! successfully decoded before the failure) and — wherever the schema can
//! pin it down — the offending field, so `trace-check` and `trace-scope`
//! can point at the exact byte range a producer corrupted.
//!
//! Decoding is deliberately strict: the expected payload fields of every
//! event come from the schema generated by the `trace_events!`
//! declaration (unknown extra fields are rejected, since the writer never
//! emits them), numeric ranges are enforced (a `core` of 300 is
//! corruption, not data), and integer tokens are parsed from their raw
//! text so 64-bit values never round-trip through `f64`.
//!
//! [`JsonlSink`]: crate::sink::JsonlSink

use crate::event::{decode_payload, payload_schema, TraceRecord};
use crate::field::{self, Fail};
use crate::json;
use std::fmt;

/// A typed failure parsing one line of a JSONL trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFailure {
    /// 1-based line number of the unparseable line.
    pub line: usize,
    /// 0-based event index: how many records decoded before this line.
    pub event_index: u64,
    /// The offending field, when the failure can be pinned to one.
    pub field: Option<String>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {} (event {})", self.line, self.event_index)?;
        if let Some(field) = &self.field {
            write!(f, ", field '{field}'")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for ParseFailure {}

/// Parses a whole JSONL stream into records.
///
/// Empty lines are rejected: the writer never emits them, so one in the
/// input means truncation or concatenation damage.
///
/// # Errors
///
/// Returns the first [`ParseFailure`] encountered.
pub fn read_jsonl(input: &str) -> Result<Vec<TraceRecord>, ParseFailure> {
    let mut records = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let fail = |(field, message): Fail| ParseFailure {
            line: idx + 1,
            event_index: records.len() as u64,
            field,
            message,
        };
        if line.trim().is_empty() {
            return Err(fail((None, "empty line in stream".to_owned())));
        }
        match parse_line(line) {
            Ok(record) => records.push(record),
            Err(failure) => return Err(fail(failure)),
        }
    }
    Ok(records)
}

/// Parses one line, reporting `(offending field, message)` on failure.
///
/// Checks run in a fixed order so each corruption has one diagnosis: the
/// `seq`/`t_model_s` envelope, the `event` tag, the payload fields in
/// declaration order, then any field the event does not declare.
fn parse_line(line: &str) -> Result<TraceRecord, Fail> {
    let value = json::parse(line).map_err(|e| (None, format!("not valid JSON: {e}")))?;
    let Some(map) = value.as_object() else {
        return Err((None, "line is not a JSON object".to_owned()));
    };
    let missing = |name: &str| (Some(name.to_owned()), "missing".to_owned());
    let seq = field::take(map, "seq")?.ok_or_else(|| missing("seq"))?;
    let t_model_s = field::take(map, "t_model_s")?.ok_or_else(|| missing("t_model_s"))?;
    let Some(event) = map.get("event") else {
        return Err(missing("event"));
    };
    let Some(event_name) = event.as_str() else {
        return Err((
            Some("event".to_owned()),
            format!("expected a string event tag, got {}", json::render(event)),
        ));
    };
    let Some(schema) = payload_schema(event_name) else {
        return Err(field::unknown_event(event_name));
    };
    let event = decode_payload(event_name, map)?;
    for key in map.keys() {
        let known = key == "seq"
            || key == "t_model_s"
            || key == "event"
            || schema.iter().any(|(name, _)| name == key);
        if !known {
            return Err((
                Some(key.clone()),
                format!("unexpected field for {event_name}"),
            ));
        }
    }
    Ok(TraceRecord {
        seq,
        t_model_s,
        event,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, EVENT_NAMES};
    use crate::observer::StreamFinalizer;

    /// One sample per variant — keep in sync with [`TraceEvent`]; the
    /// schema-coverage test below fails when a variant is missing here.
    pub(crate) fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::CampaignStarted {
                chip: "TTT#0".into(),
                rail: "pmd".into(),
                benchmarks: 2,
                cores: 2,
                steps: 7,
                iterations: 2,
                shards: 4,
                seed: 7,
            },
            TraceEvent::ShardScheduled {
                shard: 0,
                items: 14,
            },
            TraceEvent::SweepStarted {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                shard: 0,
            },
            TraceEvent::GoldenCaptured {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                digest: "00ff".into(),
                runtime_s: 0.5,
            },
            TraceEvent::VoltageStepped {
                rail: "pmd".into(),
                mv: 905,
                step: 2,
            },
            TraceEvent::RailSet {
                rail: "pmd".into(),
                mv: 905,
            },
            TraceEvent::WatchdogPowerCycle { recovery: 1 },
            TraceEvent::CacheErrorReported {
                level: "L2".into(),
                instance: 1,
                corrected: true,
            },
            TraceEvent::RunCompleted {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                mv: 900,
                iteration: 1,
                effects: "SDC+CE".into(),
                severity: 5.0,
                runtime_s: 1e-3,
                energy_j: 2.5e-2,
                corrected_errors: u64::MAX,
                uncorrected_errors: 0,
            },
            TraceEvent::SearchStep {
                program: "bwaves".into(),
                core: 0,
                strategy: "bisection".into(),
                phase: "vmin".into(),
                step: 3,
                mv: 900,
            },
            TraceEvent::CacheLookup {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                probe: "step".into(),
                mv: 900,
                hit: false,
            },
            TraceEvent::SearchConcluded {
                program: "bwaves".into(),
                core: 0,
                strategy: "bisection".into(),
                probed_steps: 4,
                grid_steps: 7,
                cache_hits: 0,
            },
            TraceEvent::EarlyStop {
                program: "bwaves".into(),
                core: 0,
                mv: 885,
                consecutive_all_sc: 2,
            },
            TraceEvent::SweepFinished {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                runs: 8,
            },
            TraceEvent::CampaignFinished {
                runs: 8,
                power_cycles: 1,
            },
            TraceEvent::VoltageDecision {
                voltage_mv: 890,
                guardband_steps: 1,
                relative_power: 0.85,
                relative_performance: 1.0,
                energy_savings: 0.15,
            },
            TraceEvent::ProfileSample {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                phase: "probe".into(),
                ops: u64::MAX,
                fault_samples: 12,
                sram_events: 3,
                cache_probes: 0,
                recoveries: 1,
            },
            TraceEvent::ProfilePhase {
                phase: "probe".into(),
                sweeps: 2,
                ops: u64::MAX,
                fault_samples: 24,
                sram_events: 6,
                cache_probes: 0,
                recoveries: 2,
            },
        ]
    }

    fn render(events: Vec<TraceEvent>) -> String {
        let mut fin = StreamFinalizer::new();
        let mut out = String::new();
        for e in events {
            out.push_str(&fin.seal(e).to_json_line().expect("serializable"));
            out.push('\n');
        }
        out
    }

    #[test]
    fn schema_matches_every_serialized_variant() {
        let samples = sample_events();
        assert_eq!(samples.len(), EVENT_NAMES.len());
        for name in EVENT_NAMES {
            let event = samples
                .iter()
                .find(|e| e.name() == *name)
                .unwrap_or_else(|| panic!("add a {name} to sample_events()"));
            let schema = payload_schema(name).unwrap_or_else(|| panic!("no schema for {name}"));
            let record = TraceRecord {
                seq: 0,
                t_model_s: 0.0,
                event: event.clone(),
            };
            let value = record.to_value().expect("serializable");
            let object = value.as_object().expect("flat object");
            // The serialized payload keys (minus tag and envelope) are
            // exactly the schema's fields, and they decode back.
            let mut payload: Vec<&str> = object
                .keys()
                .map(String::as_str)
                .filter(|k| !matches!(*k, "event" | "seq" | "t_model_s"))
                .collect();
            let mut fields: Vec<&str> = schema.iter().map(|(field, _)| *field).collect();
            payload.sort_unstable();
            fields.sort_unstable();
            assert_eq!(payload, fields, "{name} fields");
            assert_eq!(decode_payload(name, object).as_ref(), Ok(event));
        }
        assert!(payload_schema("NoSuchEvent").is_none());
    }

    #[test]
    fn sample_stream_bytes_are_pinned() {
        let text = render(sample_events());
        let fnv1a = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(fnv1a, 0xc8b3_5468_faa9_338b, "trace bytes moved:\n{text}");
    }

    #[test]
    fn roundtrips_a_full_stream() {
        let mut fin = StreamFinalizer::new();
        let sealed: Vec<TraceRecord> = sample_events().into_iter().map(|e| fin.seal(e)).collect();
        let mut text = String::new();
        for record in &sealed {
            text.push_str(&record.to_json_line().expect("serializable"));
            text.push('\n');
        }
        let records = read_jsonl(&text).expect("writer output parses");
        assert_eq!(records, sealed);
        // The 64-bit counter survived verbatim — no f64 round trip.
        assert!(matches!(
            records[8].event,
            TraceEvent::RunCompleted {
                corrected_errors: u64::MAX,
                ..
            }
        ));
    }

    #[test]
    fn garbage_json_is_reported_without_a_field() {
        let err = read_jsonl("this is not json\n").expect_err("must fail");
        assert_eq!((err.line, err.event_index), (1, 0));
        assert_eq!(err.field, None);
        assert!(err.message.contains("not valid JSON"), "{err}");
    }

    #[test]
    fn empty_line_is_reported() {
        let mut text = render(sample_events());
        text.push('\n'); // a trailing blank line after the final newline
        let err = read_jsonl(&text).expect_err("must fail");
        assert_eq!(err.line, 19);
        assert_eq!(err.event_index, 18);
        assert!(err.message.contains("empty line"), "{err}");
    }

    #[test]
    fn missing_field_is_named() {
        let line = r#"{"event":"WatchdogPowerCycle","seq":0,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("recovery missing");
        assert_eq!(err.field.as_deref(), Some("recovery"));
        assert!(err.message.contains("missing"), "{err}");
        assert!(err.to_string().contains("field 'recovery'"), "{err}");
    }

    #[test]
    fn wrong_type_is_named() {
        let line = r#"{"event":"WatchdogPowerCycle","recovery":"often","seq":0,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("recovery mistyped");
        assert_eq!(err.field.as_deref(), Some("recovery"));
        assert!(err.message.contains("expected"), "{err}");
        assert!(err.message.contains("\"often\""), "{err}");
    }

    #[test]
    fn out_of_range_integer_is_named() {
        let line = r#"{"core":300,"dataset":"ref","event":"SweepStarted","program":"namd","seq":0,"shard":0,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("core out of u8 range");
        assert_eq!(err.field.as_deref(), Some("core"));
        assert!(err.message.contains("≤ 255"), "{err}");
    }

    #[test]
    fn unknown_event_and_unexpected_field_are_named() {
        let line = r#"{"event":"Mystery","seq":0,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("unknown event");
        assert_eq!(err.field.as_deref(), Some("event"));
        assert!(err.message.contains("unknown event 'Mystery'"), "{err}");

        let line = r#"{"event":"WatchdogPowerCycle","recovery":1,"seq":0,"surprise":true,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("extra field");
        assert_eq!(err.field.as_deref(), Some("surprise"));
        assert!(err.message.contains("unexpected field"), "{err}");
    }

    #[test]
    fn broken_envelope_is_named() {
        let line = r#"{"event":"WatchdogPowerCycle","recovery":1,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("seq missing");
        assert_eq!(err.field.as_deref(), Some("seq"));

        let line = r#"{"event":"WatchdogPowerCycle","recovery":1,"seq":-3,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("negative seq");
        assert_eq!(err.field.as_deref(), Some("seq"));
    }

    #[test]
    fn event_index_counts_successfully_parsed_records() {
        let mut text = render(sample_events());
        text.push_str("{\"broken\":true}\n");
        let err = read_jsonl(&text).expect_err("trailing corruption");
        assert_eq!(err.line, 19);
        assert_eq!(err.event_index, 18);
    }

    #[test]
    fn non_object_lines_and_nonfinite_floats_are_rejected() {
        let err = read_jsonl("[1,2,3]\n").expect_err("array line");
        assert!(err.message.contains("not a JSON object"), "{err}");

        // A syntactically valid number token that overflows to infinity.
        let line = r#"{"event":"WatchdogPowerCycle","recovery":1,"seq":0,"t_model_s":1e999}"#;
        let err = read_jsonl(line).expect_err("non-finite clock");
        assert_eq!(err.field.as_deref(), Some("t_model_s"));
    }
}

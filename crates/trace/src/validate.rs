//! Structural validation of a serialized trace stream.
//!
//! Used by the `trace-check` binary (and CI) to assert the three invariants
//! every emitted JSONL stream obeys:
//!
//! 1. every line parses as exactly one [`TraceRecord`] object,
//! 2. sequence numbers are dense from 0 and modelled time never decreases,
//! 3. span nesting is balanced: campaign → sweep → leaf events, with every
//!    opened span closed.
//!
//! Parsing is delegated to [`crate::reader`] (so parse errors name the
//! offending field) and nesting to [`crate::span`] (so the reconstruction
//! is shared with the analytics layer).

use crate::event::{TraceEvent, TraceRecord};
use crate::reader::{read_jsonl, ParseFailure};
use crate::span;
use std::fmt;

/// Summary statistics of a valid stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Total records.
    pub records: u64,
    /// Campaign spans.
    pub campaigns: u64,
    /// Sweep spans.
    pub sweeps: u64,
    /// Classified runs.
    pub runs: u64,
    /// Watchdog power cycles.
    pub power_cycles: u64,
    /// Per-sweep profile samples.
    pub profile_samples: u64,
    /// Campaign-level profile phase rollups.
    pub profile_phases: u64,
}

/// A structural violation, with the 1-based line it occurred on.
#[derive(Debug)]
pub enum StreamError {
    /// A line failed to parse as a `TraceRecord`.
    Parse(ParseFailure),
    /// A record's `seq` broke the dense 0-based ordering.
    Sequence {
        /// 1-based line number.
        line: usize,
        /// Expected sequence number.
        expected: u64,
        /// Found sequence number.
        found: u64,
    },
    /// Modelled time decreased.
    TimeRegression {
        /// 1-based line number.
        line: usize,
    },
    /// Span nesting was violated.
    Nesting {
        /// 1-based line number (0 = end of stream).
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl From<ParseFailure> for StreamError {
    fn from(failure: ParseFailure) -> Self {
        StreamError::Parse(failure)
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Parse(failure) => fmt::Display::fmt(failure, f),
            StreamError::Sequence {
                line,
                expected,
                found,
            } => write!(f, "line {line}: seq {found}, expected {expected}"),
            StreamError::TimeRegression { line } => {
                write!(f, "line {line}: modelled time decreased")
            }
            StreamError::Nesting { line, message } => {
                if *line == 0 {
                    write!(f, "end of stream: {message}")
                } else {
                    write!(f, "line {line}: {message}")
                }
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Validates a JSONL trace stream (empty lines are rejected: the writer
/// never emits them).
///
/// # Errors
///
/// Returns the first [`StreamError`] found.
pub fn validate_jsonl(input: &str) -> Result<StreamStats, StreamError> {
    let records = read_jsonl(input)?;
    validate_records(&records)
}

/// Validates already-parsed records (invariants 2 and 3).
///
/// # Errors
///
/// Returns the first [`StreamError`] found.
pub fn validate_records(records: &[TraceRecord]) -> Result<StreamStats, StreamError> {
    let mut stats = StreamStats::default();
    let mut last_t = 0.0f64;
    for record in records {
        let lineno = stats.records as usize + 1;
        if record.seq != stats.records {
            return Err(StreamError::Sequence {
                line: lineno,
                expected: stats.records,
                found: record.seq,
            });
        }
        if record.t_model_s < last_t {
            return Err(StreamError::TimeRegression { line: lineno });
        }
        last_t = record.t_model_s;
        stats.records += 1;
        match &record.event {
            TraceEvent::RunCompleted { .. } => stats.runs += 1,
            TraceEvent::WatchdogPowerCycle { .. } => stats.power_cycles += 1,
            TraceEvent::ProfileSample { .. } => stats.profile_samples += 1,
            TraceEvent::ProfilePhase { .. } => stats.profile_phases += 1,
            _ => {}
        }
    }
    let tree = span::reconstruct(records).map_err(|e| StreamError::Nesting {
        // One record per line: record index i sits on line i + 1, and a
        // missing index means the stream ended with a span still open.
        line: e.index.map_or(0, |i| i + 1),
        message: e.message,
    })?;
    stats.campaigns = tree.campaigns.len() as u64;
    stats.sweeps = tree.campaigns.iter().map(|c| c.sweeps.len() as u64).sum();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::StreamFinalizer;

    fn render(events: Vec<TraceEvent>) -> String {
        let mut fin = StreamFinalizer::new();
        let mut out = String::new();
        for e in events {
            let rec = fin.seal(e);
            out.push_str(&rec.to_json_line().expect("serializable"));
            out.push('\n');
        }
        out
    }

    fn campaign_started() -> TraceEvent {
        TraceEvent::CampaignStarted {
            chip: "TTT#0".into(),
            rail: "pmd".into(),
            benchmarks: 1,
            cores: 1,
            steps: 1,
            iterations: 1,
            shards: 1,
            seed: 1,
        }
    }

    fn sweep_started() -> TraceEvent {
        TraceEvent::SweepStarted {
            program: "namd".into(),
            dataset: "ref".into(),
            core: 4,
            shard: 0,
        }
    }

    fn sweep_finished() -> TraceEvent {
        TraceEvent::SweepFinished {
            program: "namd".into(),
            dataset: "ref".into(),
            core: 4,
            runs: 1,
        }
    }

    fn run() -> TraceEvent {
        TraceEvent::RunCompleted {
            program: "namd".into(),
            dataset: "ref".into(),
            core: 4,
            mv: 890,
            iteration: 0,
            effects: "NO".into(),
            severity: 0.0,
            runtime_s: 0.125,
            energy_j: 1e-2,
            corrected_errors: 0,
            uncorrected_errors: 0,
        }
    }

    #[test]
    fn well_formed_stream_validates() {
        let text = render(vec![
            campaign_started(),
            sweep_started(),
            run(),
            sweep_finished(),
            TraceEvent::CampaignFinished {
                runs: 1,
                power_cycles: 0,
            },
        ]);
        let stats = validate_jsonl(&text).expect("valid");
        assert_eq!(stats.records, 5);
        assert_eq!(stats.campaigns, 1);
        assert_eq!(stats.sweeps, 1);
        assert_eq!(stats.runs, 1);
    }

    #[test]
    fn profiled_stream_validates_and_counts_profile_records() {
        let text = render(vec![
            campaign_started(),
            sweep_started(),
            run(),
            TraceEvent::ProfileSample {
                program: "namd".into(),
                dataset: "ref".into(),
                core: 4,
                phase: "probe".into(),
                ops: 1234,
                fault_samples: 56,
                sram_events: 0,
                cache_probes: 0,
                recoveries: 0,
            },
            sweep_finished(),
            TraceEvent::ProfilePhase {
                phase: "probe".into(),
                sweeps: 1,
                ops: 1234,
                fault_samples: 56,
                sram_events: 0,
                cache_probes: 0,
                recoveries: 0,
            },
            TraceEvent::CampaignFinished {
                runs: 1,
                power_cycles: 0,
            },
        ]);
        let stats = validate_jsonl(&text).expect("valid profiled stream");
        assert_eq!(stats.records, 7);
        assert_eq!(stats.profile_samples, 1);
        assert_eq!(stats.profile_phases, 1);
    }

    #[test]
    fn profile_phase_outside_the_campaign_epilogue_is_rejected() {
        let rollup = TraceEvent::ProfilePhase {
            phase: "probe".into(),
            sweeps: 1,
            ops: 1,
            fault_samples: 0,
            sram_events: 0,
            cache_probes: 0,
            recoveries: 0,
        };
        let text = render(vec![
            campaign_started(),
            sweep_started(),
            rollup,
            sweep_finished(),
            TraceEvent::CampaignFinished {
                runs: 0,
                power_cycles: 0,
            },
        ]);
        let err = validate_jsonl(&text).expect_err("rollup inside a sweep");
        assert!(err.to_string().contains("epilogue"), "{err}");
    }

    #[test]
    fn unbalanced_spans_are_rejected() {
        let text = render(vec![campaign_started(), sweep_started(), run()]);
        let err = validate_jsonl(&text).expect_err("open spans");
        assert!(err.to_string().contains("open sweep"), "{err}");
        assert!(matches!(err, StreamError::Nesting { line: 0, .. }));

        let text = render(vec![campaign_started(), run()]);
        let err = validate_jsonl(&text).expect_err("run outside sweep");
        assert!(err.to_string().contains("outside a sweep"), "{err}");
        assert!(matches!(err, StreamError::Nesting { line: 2, .. }));
    }

    #[test]
    fn sequence_gaps_are_rejected() {
        let good = render(vec![
            campaign_started(),
            TraceEvent::CampaignFinished {
                runs: 0,
                power_cycles: 0,
            },
        ]);
        // Drop the first line: seq then starts at 1.
        let tail = good.lines().nth(1).expect("two lines").to_owned();
        assert!(matches!(
            validate_jsonl(&tail),
            Err(StreamError::Sequence {
                line: 1,
                expected: 0,
                found: 1,
            })
        ));
    }

    #[test]
    fn garbage_line_reports_position_without_a_field() {
        let err = validate_jsonl("not json\n").expect_err("garbage");
        match &err {
            StreamError::Parse(ParseFailure {
                line: 1,
                event_index: 0,
                field: None,
                ..
            }) => {}
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().starts_with("line 1 (event 0): "), "{err}");
    }

    #[test]
    fn missing_field_is_reported_with_line_event_and_field() {
        let mut good = render(vec![
            campaign_started(),
            TraceEvent::CampaignFinished {
                runs: 0,
                power_cycles: 0,
            },
        ]);
        // Break line 2 by dropping its `runs` field.
        good = good.replace("\"runs\":0,", "");
        let err = validate_jsonl(&good).expect_err("missing field");
        match &err {
            StreamError::Parse(ParseFailure {
                line: 2,
                event_index: 1,
                field: Some(field),
                ..
            }) => assert_eq!(field, "runs"),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("field 'runs'"), "{err}");
    }

    #[test]
    fn wrong_field_type_is_reported_with_the_field() {
        let good = render(vec![
            campaign_started(),
            TraceEvent::CampaignFinished {
                runs: 0,
                power_cycles: 0,
            },
        ]);
        let bad = good.replace("\"power_cycles\":0", "\"power_cycles\":\"zero\"");
        let err = validate_jsonl(&bad).expect_err("wrong type");
        match err {
            StreamError::Parse(ParseFailure {
                line: 2,
                event_index: 1,
                field: Some(field),
                ..
            }) => assert_eq!(field, "power_cycles"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_event_is_reported_on_the_event_tag() {
        let good = render(vec![campaign_started()]);
        let bad = good.replace("CampaignStarted", "CampaignImagined");
        let err = validate_jsonl(&bad).expect_err("unknown event");
        match err {
            StreamError::Parse(ParseFailure {
                line: 1,
                event_index: 0,
                field: Some(field),
                message,
            }) => {
                assert_eq!(field, "event");
                assert!(message.contains("CampaignImagined"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn time_regression_is_rejected() {
        let text = render(vec![
            campaign_started(),
            sweep_started(),
            run(),
            sweep_finished(),
            TraceEvent::CampaignFinished {
                runs: 1,
                power_cycles: 0,
            },
        ]);
        // The run advances modelled time; zeroing the final stamp regresses it.
        let broken = text.replace(
            "\"seq\":4,\"t_model_s\":0.125",
            "\"seq\":4,\"t_model_s\":0.0",
        );
        assert_ne!(broken, text, "replacement must hit the final record");
        match validate_jsonl(&broken) {
            Err(StreamError::TimeRegression { line }) => assert_eq!(line, 5),
            other => panic!("expected time regression, got {other:?}"),
        }
    }

    #[test]
    fn standalone_governor_decision_is_valid() {
        let text = render(vec![TraceEvent::VoltageDecision {
            voltage_mv: 890,
            guardband_steps: 1,
            relative_power: 0.85,
            relative_performance: 1.0,
            energy_savings: 0.15,
        }]);
        let stats = validate_jsonl(&text).expect("valid");
        assert_eq!(stats.records, 1);
        assert_eq!(stats.campaigns, 0);
    }
}

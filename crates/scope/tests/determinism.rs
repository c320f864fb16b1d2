//! End-to-end determinism guarantees of the analytics surface.
//!
//! Campaigns are generated in-process with `margins-core`; the summaries,
//! reports and diffs must be byte-identical across reruns and across
//! serial vs sharded execution, and the `trace-scope` binary must exit
//! with the documented class codes.

use margins_core::config::CampaignConfig;
use margins_core::exec::{ExecContext, ThreadPoolExecutor};
use margins_core::runner::Campaign;
use margins_scope::{csv, diff, json, markdown, summarize_records, DivergenceClass};
use margins_sim::{ChipSpec, CoreId, Corner, Millivolts};
use margins_trace::{JsonlSink, MemorySink, Sink, TraceRecord};
use std::path::PathBuf;
use std::process::Command;

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig::builder()
        .benchmarks(["bwaves", "namd"])
        .cores([CoreId::new(0), CoreId::new(4)])
        .iterations(2)
        .start_voltage(Millivolts::new(915))
        .floor_voltage(Millivolts::new(885))
        .seed(seed)
        .build()
        .expect("valid test configuration")
}

/// Runs the campaign over `threads` workers, returning the records and
/// the serialized JSONL text.
fn run_traced(seed: u64, threads: usize) -> (Vec<TraceRecord>, String) {
    let campaign = Campaign::new(ChipSpec::new(Corner::Ttt, 0), config(seed));
    let mut memory = MemorySink::new();
    let mut jsonl = JsonlSink::new(Vec::new());
    {
        let mut sinks: [&mut dyn Sink; 2] = [&mut memory, &mut jsonl];
        campaign
            .run(
                &ThreadPoolExecutor::clamped(threads),
                ExecContext {
                    sinks: &mut sinks,
                    ..ExecContext::new()
                },
            )
            .expect("built-in executors uphold the delivery contract");
    }
    let bytes = jsonl.into_inner().expect("in-memory writer");
    (memory.records, String::from_utf8(bytes).expect("utf8"))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("margins-scope-{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean scratch");
    }
    std::fs::create_dir_all(&dir).expect("create scratch");
    dir
}

#[test]
fn reports_are_byte_identical_across_reruns_and_sharding() {
    let (serial, serial_text) = run_traced(7, 1);
    let (serial_again, _) = run_traced(7, 1);
    let (sharded, sharded_text) = run_traced(7, 4);

    // The stream itself is deterministic; everything downstream inherits it.
    assert_eq!(serial, serial_again);
    assert_eq!(serial_text, sharded_text);

    let a = summarize_records(&serial).expect("valid stream");
    let b = summarize_records(&sharded).expect("valid stream");
    assert_eq!(markdown(&a), markdown(&b));
    assert_eq!(json(&a), json(&b));
    assert_eq!(csv(&a), csv(&b));

    // Rerunning the renderers on the same summary changes nothing.
    assert_eq!(markdown(&a), markdown(&a));
    assert_eq!(json(&a), json(&a));
    assert_eq!(csv(&a), csv(&a));

    // The summary reflects the campaign grid.
    assert_eq!(a.campaigns.len(), 1);
    let c = &a.campaigns[0];
    assert_eq!(c.sweeps.len(), 4);
    assert_eq!(c.runs, c.declared_runs);
    assert_eq!(c.power_cycles, c.declared_power_cycles);
}

#[test]
fn same_experiment_diffs_identical_and_different_seeds_diverge() {
    let (serial, _) = run_traced(7, 1);
    let (sharded, _) = run_traced(7, 4);
    let report = diff(&serial, &sharded);
    assert_eq!(report.class, DivergenceClass::Identical, "{report:?}");

    let (other, _) = run_traced(8, 1);
    let report = diff(&serial, &other);
    assert_eq!(
        report.class,
        DivergenceClass::OutcomeDivergence,
        "{report:?}"
    );
    let d = report.first_divergence.expect("pinpointed");
    assert!(
        d.span_path.starts_with("campaign TTT#0/pmd"),
        "{}",
        d.span_path
    );
}

#[test]
fn trace_scope_binary_summarizes_diffs_and_exposes_metrics() {
    let dir = scratch_dir("cli");
    let (_, text_a) = run_traced(7, 1);
    let (_, text_b) = run_traced(7, 4);
    let (_, text_c) = run_traced(8, 1);
    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");
    let c = dir.join("c.jsonl");
    std::fs::write(&a, &text_a).expect("write a");
    std::fs::write(&b, &text_b).expect("write b");
    std::fs::write(&c, &text_c).expect("write c");
    let bin = env!("CARGO_BIN_EXE_trace-scope");

    // summary: deterministic across invocations, in every format.
    for format in ["md", "json", "csv"] {
        let run = || {
            let out = Command::new(bin)
                .args([
                    "summary",
                    a.to_str().expect("utf8 path"),
                    "--format",
                    format,
                ])
                .output()
                .expect("spawn trace-scope");
            assert!(out.status.success(), "summary --format {format} failed");
            out.stdout
        };
        assert_eq!(run(), run(), "--format {format} not reproducible");
    }

    // diff of byte-identical streams exits 0.
    let same = Command::new(bin)
        .args(["diff"])
        .args([&a, &b])
        .output()
        .expect("spawn trace-scope");
    assert_eq!(same.status.code(), Some(0), "{same:?}");

    // diff of different-seed campaigns exits with the outcome-divergence
    // code and names the first diverging span.
    let diverged = Command::new(bin)
        .args(["diff"])
        .args([&a, &c])
        .output()
        .expect("spawn trace-scope");
    assert_eq!(diverged.status.code(), Some(6), "{diverged:?}");
    let stdout = String::from_utf8(diverged.stdout).expect("utf8");
    assert!(stdout.contains("outcome-divergence"), "{stdout}");
    assert!(stdout.contains("campaign TTT#0/pmd"), "{stdout}");

    // metrics: OpenMetrics exposition, reproducible.
    let metrics = || {
        let out = Command::new(bin)
            .args(["metrics", a.to_str().expect("utf8 path")])
            .output()
            .expect("spawn trace-scope");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).expect("utf8")
    };
    let exposition = metrics();
    assert_eq!(exposition, metrics());
    assert!(
        exposition.contains("voltmargin_campaigns_total 1"),
        "{exposition}"
    );
    assert!(exposition.ends_with("# EOF\n"), "{exposition}");

    // A directory argument recurses like trace-check does.
    let status = Command::new(bin)
        .args(["summary", dir.to_str().expect("utf8 path")])
        .output()
        .expect("spawn trace-scope");
    assert!(status.status.success(), "{status:?}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn usage_and_read_errors_use_reserved_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_trace-scope");
    let usage = Command::new(bin).output().expect("spawn trace-scope");
    assert_eq!(usage.status.code(), Some(2));
    let unknown = Command::new(bin)
        .args(["frobnicate"])
        .output()
        .expect("spawn trace-scope");
    assert_eq!(unknown.status.code(), Some(2));
    let missing = Command::new(bin)
        .args(["diff", "/nonexistent/a.jsonl", "/nonexistent/b.jsonl"])
        .output()
        .expect("spawn trace-scope");
    assert_eq!(missing.status.code(), Some(1), "{missing:?}");
}

//! Fixed-seed campaigns must be bit-for-bit reproducible.
//!
//! The margins-lint rules (no unseeded RNG, no hash-ordered iteration, no
//! wall-clock reads in the deterministic path) exist to keep this property
//! true; this test is the end-to-end check: two executions of the same
//! campaign render **byte-identical** CSV reports, whether the work runs
//! serially or sharded over worker threads.

use margins_core::config::CampaignConfig;
use margins_core::exec::{ExecContext, SerialExecutor, ThreadPoolExecutor};
use margins_core::runner::{Campaign, CampaignOutcome};
use margins_core::severity::SeverityWeights;
use margins_core::{regions, report};
use margins_sim::{ChipSpec, CoreId, Corner, Millivolts};
use margins_trace::{JsonlSink, MetricsRegistry, Sink};
use std::collections::BTreeMap;

fn campaign() -> Campaign {
    let cfg = CampaignConfig::builder()
        .benchmarks(["bwaves", "namd"])
        .cores([CoreId::new(0), CoreId::new(4)])
        .iterations(2)
        .start_voltage(Millivolts::new(915))
        .floor_voltage(Millivolts::new(885))
        .seed(0xC0FFEE)
        .build()
        .expect("static campaign config is valid");
    Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg)
}

#[test]
fn repeated_runs_render_byte_identical_csv() {
    let first = campaign()
        .run(&SerialExecutor, ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    let second = campaign()
        .run(&SerialExecutor, ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    assert_eq!(
        report::runs_csv(&first),
        report::runs_csv(&second),
        "two executions of the same seed must render identical run CSVs"
    );
    let weights = SeverityWeights::paper();
    let a = regions::analyze(&first, &weights);
    let b = regions::analyze(&second, &weights);
    assert_eq!(report::regions_csv(&a), report::regions_csv(&b));
}

#[test]
fn sharded_execution_renders_the_serial_csv() {
    // Every work item runs on a pristine board, so even history-sensitive
    // quantities (thermal state, and with it the energy_j column) are
    // schedule-independent: the full CSV — outcomes, effects, voltages,
    // runtime AND energy — must match byte for byte.
    let serial = campaign()
        .run(&SerialExecutor, ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    let sharded = campaign()
        .run(&ThreadPoolExecutor::clamped(4), ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    assert_eq!(
        report::runs_csv(&serial),
        report::runs_csv(&sharded),
        "sharding must not change any report column, energy_j included"
    );
    // And sharding is itself reproducible: same shard count, same bytes.
    assert_eq!(
        report::runs_csv(&sharded),
        report::runs_csv(
            &campaign()
                .run(&ThreadPoolExecutor::clamped(4), ExecContext::new())
                .expect("built-in executors uphold the delivery contract")
        )
    );
}

fn traced_jsonl(threads: usize) -> (String, CampaignOutcome) {
    let mut sink = JsonlSink::new(Vec::new());
    let outcome = {
        let mut sinks: [&mut dyn Sink; 1] = [&mut sink];
        campaign()
            .run(
                &ThreadPoolExecutor::clamped(threads),
                ExecContext {
                    sinks: &mut sinks,
                    ..ExecContext::new()
                },
            )
            .expect("built-in executors uphold the delivery contract")
    };
    let bytes = sink.into_inner().expect("Vec writer cannot fail");
    (String::from_utf8(bytes).expect("JSONL is UTF-8"), outcome)
}

#[test]
fn traced_serial_and_sharded_streams_are_byte_identical() {
    // The telemetry stream is part of the campaign's deterministic output:
    // the same seed must produce the same bytes no matter how the work was
    // sharded, and tracing must not perturb the campaign itself.
    let (serial, serial_out) = traced_jsonl(1);
    let (sharded, sharded_out) = traced_jsonl(4);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, sharded,
        "serial and 4-way-sharded campaigns must write byte-identical JSONL"
    );

    // Tracing leaves the classified outcome untouched (energy aside, which
    // depends on per-board thermal history exactly as in the CSV test).
    let untraced = campaign()
        .run(&SerialExecutor, ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    assert_eq!(report::runs_csv(&serial_out), report::runs_csv(&untraced));
    assert_eq!(serial_out.goldens, sharded_out.goldens);
    assert_eq!(
        serial_out.watchdog_power_cycles,
        sharded_out.watchdog_power_cycles
    );

    // And the stream is structurally valid: dense sequence numbers, a
    // monotone modelled clock, properly nested campaign/sweep spans.
    let stats = margins_trace::validate_jsonl(&serial).expect("stream validates");
    assert_eq!(stats.campaigns, 1);
    assert_eq!(stats.sweeps, 4, "2 benchmarks x 2 cores");
    assert_eq!(stats.runs as usize, serial_out.runs.len());
    assert_eq!(stats.records as usize, serial.lines().count());
}

#[test]
fn metrics_registry_reconciles_with_the_outcome() {
    let mut metrics = MetricsRegistry::new();
    let outcome = {
        let mut sinks: [&mut dyn Sink; 1] = [&mut metrics];
        campaign()
            .run(
                &ThreadPoolExecutor::clamped(4),
                ExecContext {
                    sinks: &mut sinks,
                    ..ExecContext::new()
                },
            )
            .expect("built-in executors uphold the delivery contract")
    };

    assert_eq!(metrics.counter("campaigns"), 1);
    assert_eq!(metrics.counter("sweeps"), 4);
    assert_eq!(metrics.counter("goldens_captured"), 4);
    assert_eq!(metrics.counter("runs_total"), outcome.runs.len() as u64);
    assert_eq!(
        metrics.counter("watchdog_power_cycles"),
        u64::from(outcome.watchdog_power_cycles)
    );

    // Effect-class totals must reconcile exactly with the classified runs.
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    for run in &outcome.runs {
        for effect in run.effects.to_string().split('+') {
            *expected.entry(format!("runs_effect_{effect}")).or_insert(0) += 1;
        }
    }
    let counted: BTreeMap<String, u64> = metrics
        .counters()
        .iter()
        .filter(|(name, _)| name.starts_with("runs_effect_"))
        .map(|(name, value)| (name.clone(), *value))
        .collect();
    assert_eq!(expected, counted);
}

#[test]
fn reference_campaign_artifacts_are_pinned() {
    // The 4-thread traced stream, the metrics exposition riding the same
    // run, and the run CSV are the campaign's byte-level contract; any
    // change to the execution path that moves one of them moves a digest.
    use margins_core::exec::{ExecContext, ThreadPoolExecutor};

    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    let mut jsonl = JsonlSink::new(Vec::new());
    let mut metrics = MetricsRegistry::new();
    let outcome = {
        let mut sinks: [&mut dyn Sink; 2] = [&mut jsonl, &mut metrics];
        campaign()
            .run(
                &ThreadPoolExecutor::new(4).expect("4 workers is a valid pool"),
                ExecContext {
                    sinks: &mut sinks,
                    ..ExecContext::new()
                },
            )
            .expect("built-in executors uphold the delivery contract")
    };
    let trace = String::from_utf8(jsonl.into_inner().expect("Vec writer cannot fail"))
        .expect("JSONL is UTF-8");
    let exposition = metrics.to_openmetrics();
    let csv = report::runs_csv(&outcome);
    assert_eq!(fnv1a(&trace), 0x0768_89b8_16c2_8c06, "traced JSONL moved");
    assert_eq!(
        fnv1a(&exposition),
        0x893a_1050_e406_40ab,
        "OpenMetrics exposition moved:\n{exposition}"
    );
    assert_eq!(fnv1a(&csv), 0x5d47_1173_3620_16ff, "runs CSV moved:\n{csv}");
}

#[test]
fn run_rows_expose_on_grid_millivolts() {
    // The sim → core boundary carries typed Millivolts; every reported
    // voltage sits on the 5 mV regulator grid within the swept band.
    let out = campaign()
        .run(&SerialExecutor, ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    for r in &out.runs {
        assert_eq!(r.pmd_mv.get() % 5, 0, "{} is off-grid", r.pmd_mv);
        assert!(r.pmd_mv <= Millivolts::new(915));
        assert_eq!(r.soc_mv, Millivolts::new(950));
    }
}

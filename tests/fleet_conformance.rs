//! Fleet conformance: the daemon's scheduling must be *invisible* in its
//! outputs.
//!
//! Three contracts, each proven end to end against the in-process
//! [`FleetService`] (the `voltmargin serve` TCP front-end is a thin frame
//! pump over exactly this API):
//!
//! 1. **Byte-identity** — a fleet run of N chips produces the same trace
//!    JSONL, OpenMetrics exposition, tallies and cache bytes as N
//!    sequential `characterize` runs merged in canonical chip order.
//! 2. **Client isolation** — concurrent clients each receive exactly
//!    their own merged stream; another client's records never interleave.
//! 3. **Warm replay** — a second fleet pass over the same chips answers
//!    every probe from the shared campaign cache and executes zero
//!    machine ops.

use voltmargin::characterize::cache::SharedCampaignCache;
use voltmargin::characterize::exec::{ExecContext, ExecError, SerialExecutor};
use voltmargin::characterize::profile::PhaseTallies;
use voltmargin::characterize::runner::Campaign;
use voltmargin::characterize::search::SearchStrategy;
use voltmargin::fleet::{FleetService, FleetSpec, JobOutcome, SpecError};
use voltmargin::sim::Corner;
use voltmargin::trace::{merge_streams, validate_records, MemorySink, MetricsRegistry, Sink};

fn spec(corner: Corner, first_serial: u64, chips: u32) -> FleetSpec {
    FleetSpec {
        corner,
        first_serial,
        chips,
        benchmarks: vec!["namd".into()],
        cores: vec![0],
        iterations: 1,
        start_mv: 890,
        floor_mv: 880,
        seed: 0x00DD_BA11,
        search: SearchStrategy::Exhaustive,
    }
}

/// What a fleet job must reproduce, computed the reference way: one
/// sequential `Campaign::run` per chip in canonical order, merged through
/// the canonical re-seal.
struct Baseline {
    trace: String,
    metrics: String,
    runs: u64,
    power_cycles: u64,
    executed_ops: u64,
}

fn serial_baseline(fleet: &FleetSpec, cache: &SharedCampaignCache) -> Baseline {
    let config = fleet
        .campaign_config()
        .expect("conformance specs are valid");
    let mut streams = Vec::new();
    let mut tallies = PhaseTallies::new();
    let mut runs = 0u64;
    let mut power_cycles = 0u64;
    for chip in fleet.chip_specs() {
        let mut buffer = MemorySink::new();
        let mut chip_tallies = PhaseTallies::new();
        let outcome = {
            let mut sinks: Vec<&mut dyn Sink> = vec![&mut buffer];
            Campaign::new(chip, config.clone())
                .run(
                    &SerialExecutor,
                    ExecContext {
                        sinks: &mut sinks,
                        cache: Some(cache),
                        priors: None,
                        profile_out: Some(&mut chip_tallies),
                    },
                )
                .expect("serial baseline campaigns run")
        };
        runs += outcome.runs.len() as u64;
        power_cycles += u64::from(outcome.watchdog_power_cycles);
        tallies.merge(&chip_tallies);
        streams.push(buffer.records);
    }
    let records = merge_streams(streams.iter().map(Vec::as_slice));
    let mut trace = String::new();
    for record in &records {
        trace.push_str(&record.to_json_line().expect("campaign records encode"));
        trace.push('\n');
    }
    let mut registry = MetricsRegistry::new();
    for record in &records {
        registry.emit(record);
    }
    registry.finish();
    Baseline {
        trace,
        metrics: registry.to_openmetrics(),
        runs,
        power_cycles,
        executed_ops: tallies.executed_ops(),
    }
}

fn results_of(outcome: Option<JobOutcome>) -> voltmargin::fleet::FleetResults {
    match outcome {
        Some(JobOutcome::Done(r)) => r,
        other => panic!("expected a completed job, got {other:?}"),
    }
}

#[test]
fn fleet_run_is_byte_identical_to_the_serial_merge() {
    let fleet = spec(Corner::Ttt, 100, 6);

    let svc = FleetService::new(4, SharedCampaignCache::new()).expect("valid worker count");
    let results = svc.run(|| {
        let (job, chips) = svc.submit("lab", &fleet).expect("valid spec");
        assert_eq!(chips, 6);
        results_of(svc.wait("lab", job))
    });

    let baseline_cache = SharedCampaignCache::new();
    let baseline = serial_baseline(&fleet, &baseline_cache);

    assert!(
        baseline.executed_ops > 0,
        "a cold pass must probe simulated boards"
    );
    assert_eq!(
        results.trace, baseline.trace,
        "trace JSONL must be byte-identical"
    );
    assert_eq!(
        results.metrics, baseline.metrics,
        "OpenMetrics exposition must be byte-identical"
    );
    assert_eq!(results.runs, baseline.runs);
    assert_eq!(results.power_cycles, baseline.power_cycles);
    assert_eq!(results.executed_ops, baseline.executed_ops);

    // The merged stream is a valid stream in its own right: dense seqs
    // from 0, monotonic modelled clock, balanced spans.
    let records = voltmargin::trace::read_jsonl(&results.trace).expect("trace parses");
    validate_records(&records).expect("merged stream upholds the stream invariants");

    // The shared cache serializes to the same canonical bytes no matter
    // which side — fleet workers or the serial loop — appended first.
    assert_eq!(
        svc.cache().to_jsonl(),
        baseline_cache.to_jsonl(),
        "cache bytes must be append-order-free"
    );
}

#[test]
fn concurrent_clients_receive_only_their_own_streams() {
    // Disjoint chip sets (different corners *and* serial ranges) so the
    // shared cache stays all-miss for both jobs in the cold pass.
    let fleet_a = spec(Corner::Ttt, 0, 4);
    let fleet_b = FleetSpec {
        benchmarks: vec!["mcf".into()],
        ..spec(Corner::Tss, 500, 3)
    };

    let svc = FleetService::new(3, SharedCampaignCache::new()).expect("valid worker count");
    let (results_a, results_b) = svc.run(|| {
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let (job, _) = svc.submit("client-a", &fleet_a).expect("valid spec");
                results_of(svc.wait("client-a", job))
            });
            let b = scope.spawn(|| {
                let (job, _) = svc.submit("client-b", &fleet_b).expect("valid spec");
                results_of(svc.wait("client-b", job))
            });
            (
                a.join().expect("client a thread"),
                b.join().expect("client b thread"),
            )
        })
    });

    let baseline_a = serial_baseline(&fleet_a, &SharedCampaignCache::new());
    let baseline_b = serial_baseline(&fleet_b, &SharedCampaignCache::new());

    assert_eq!(
        results_a.trace, baseline_a.trace,
        "client a's stream must be exactly its own serial merge"
    );
    assert_eq!(
        results_b.trace, baseline_b.trace,
        "client b's stream must be exactly its own serial merge"
    );
    assert_eq!(results_a.metrics, baseline_a.metrics);
    assert_eq!(results_b.metrics, baseline_b.metrics);
    assert_ne!(
        results_a.trace, results_b.trace,
        "sanity: the two clients ran different fleets"
    );

    // Isolation also means completeness: every chip of each fleet is in
    // its owner's stream and nowhere else.
    assert!(results_a.trace.contains("TTT#3"));
    assert!(!results_a.trace.contains("TSS#"));
    assert!(results_b.trace.contains("TSS#502"));
    assert!(!results_b.trace.contains("TTT#"));
}

#[test]
fn warm_fleet_rerun_executes_zero_machine_ops() {
    let fleet = spec(Corner::Tff, 40, 3);
    let svc = FleetService::new(2, SharedCampaignCache::new()).expect("valid worker count");

    let (cold, warm) = svc.run(|| {
        let (job, _) = svc.submit("lab", &fleet).expect("valid spec");
        let cold = results_of(svc.wait("lab", job));
        // Same client, same spec, same service — every probe is now in
        // the shared cache.
        let (rerun, _) = svc.submit("lab", &fleet).expect("valid spec");
        (cold, results_of(svc.wait("lab", rerun)))
    });

    assert!(cold.executed_ops > 0, "cold pass probes simulated boards");
    assert_eq!(
        warm.executed_ops, 0,
        "a fully warm fleet rerun must execute zero machine ops"
    );
    // The replay is not a degraded mode: it reproduces every classified
    // run and recovery count of the cold pass.
    assert_eq!(warm.runs, cold.runs);
    assert_eq!(warm.power_cycles, cold.power_cycles);

    // The warm stream shows the replay honestly: every cache lookup is a
    // hit, and no voltage is ever actually stepped on a board.
    assert!(warm.trace.contains("\"hit\":true"));
    assert!(!warm.trace.contains("\"hit\":false"));
    assert!(!warm.trace.contains("VoltageStepped"));
    assert!(!warm.trace.contains("RailSet"));

    // And the semantic payload — the classified runs themselves — is
    // event-identical between the passes.
    let semantic = |trace: &str| -> Vec<voltmargin::trace::TraceEvent> {
        voltmargin::trace::read_jsonl(trace)
            .expect("trace parses")
            .into_iter()
            .map(|r| r.event)
            .filter(|e| {
                matches!(
                    e,
                    voltmargin::trace::TraceEvent::RunCompleted { .. }
                        | voltmargin::trace::TraceEvent::GoldenCaptured { .. }
                )
            })
            .collect()
    };
    assert_eq!(semantic(&warm.trace), semantic(&cold.trace));
}

#[test]
fn invalid_workers_and_specs_are_typed_rejections() {
    assert_eq!(
        FleetService::new(0, SharedCampaignCache::new()).err(),
        Some(ExecError::ZeroThreads)
    );
    assert!(matches!(
        FleetService::new(usize::MAX, SharedCampaignCache::new()).err(),
        Some(ExecError::TooManyThreads { .. })
    ));

    let svc = FleetService::new(1, SharedCampaignCache::new()).expect("valid worker count");
    assert_eq!(
        svc.submit("lab", &spec(Corner::Ttt, 0, 0)).err(),
        Some(SpecError::NoChips)
    );
    let bad_core = FleetSpec {
        cores: vec![99],
        ..spec(Corner::Ttt, 0, 1)
    };
    assert_eq!(
        svc.submit("lab", &bad_core).err(),
        Some(SpecError::BadCore { core: 99 })
    );
}

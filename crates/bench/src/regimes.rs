//! §3.2 (the divided clock regime) and §3.4 (the component self-tests).

use crate::scale::Scale;
use margins_core::config::CampaignConfig;
use margins_core::exec::{ExecContext, ThreadPoolExecutor};
use margins_core::regions::{analyze, CharacterizationResult};
use margins_core::runner::Campaign;
use margins_core::severity::SeverityWeights;
use margins_sim::{ChipSpec, CoreId, Megahertz, Millivolts};
use std::fmt::Write as _;

/// Characterizes a benchmark set at 1.2 GHz (the divided regime) on the
/// given chip — §3.2's experiment.
#[must_use]
pub fn divided_regime(spec: ChipSpec, scale: &Scale) -> CharacterizationResult {
    let config = CampaignConfig::builder()
        .benchmarks(scale.fig4_benchmarks.iter().copied())
        .cores(scale.fig4_cores.iter().copied())
        .iterations(scale.iterations)
        .target_frequency(Megahertz::new(1200))
        .start_voltage(Millivolts::new(790))
        .floor_voltage(Millivolts::new(740))
        .crash_stop_steps(2)
        .seed(0x3_2_2)
        .build()
        .expect("divided-regime configuration is valid");
    let outcome = Campaign::new(spec, config)
        .run(
            &ThreadPoolExecutor::clamped(scale.threads),
            ExecContext::new(),
        )
        .expect("built-in executors uphold the delivery contract");
    analyze(&outcome, &SeverityWeights::paper())
}

/// The §3.2 report: per (benchmark, core) the 1.2 GHz Vmin and whether any
/// non-crash abnormality was ever seen below it.
#[must_use]
pub fn sec32_report(result: &CharacterizationResult, scale: &Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§3.2 — 1.2 GHz (divided clock regime) on {}: Vmin per (benchmark, core)",
        result.spec
    );
    let mut vmins = Vec::new();
    let mut non_crash_abnormal = 0usize;
    for s in &result.summaries {
        if let Some(v) = s.safe_vmin {
            vmins.push(v.get());
        }
        for st in &s.steps {
            if st.region == margins_core::regions::RegionKind::Unsafe {
                non_crash_abnormal += 1;
            }
        }
    }
    vmins.sort_unstable();
    vmins.dedup();
    let _ = writeln!(
        out,
        "  distinct Vmin values across {} sweeps: {:?} (paper: uniform 760 mV)",
        result.summaries.len(),
        vmins
    );
    let _ = writeln!(
        out,
        "  unsafe (non-crash abnormal) steps below Vmin: {non_crash_abnormal} (paper: 0 — crash-only)"
    );
    let _ = writeln!(
        out,
        "  benchmarks×cores characterized: {}×{}",
        scale.fig4_benchmarks.len(),
        scale.fig4_cores.len()
    );
    out
}

/// Characterizes the §3.4 self-tests (cache march vs ALU vs FPU) on one
/// core of the given chip at 2.4 GHz.
#[must_use]
pub fn selftest_characterization(
    spec: ChipSpec,
    core: CoreId,
    iterations: u32,
    threads: usize,
) -> CharacterizationResult {
    let config = CampaignConfig::builder()
        .benchmarks([
            "selftest-fpu",
            "selftest-alu",
            "selftest-l1d",
            "selftest-l2",
        ])
        .cores([core])
        .iterations(iterations)
        .start_voltage(Millivolts::new(945))
        .floor_voltage(Millivolts::new(830))
        .crash_stop_steps(2)
        .seed(0x3_4_4)
        .build()
        .expect("self-test configuration is valid");
    let outcome = Campaign::new(spec, config)
        .run(&ThreadPoolExecutor::clamped(threads), ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    analyze(&outcome, &SeverityWeights::paper())
}

/// The §3.4 report: first-abnormal voltage per self-test, demonstrating the
/// timing-path-dominated behaviour (FPU/ALU fail high, cache tests keep
/// running far lower).
#[must_use]
pub fn sec34_report(result: &CharacterizationResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§3.4 — component self-tests on {} core4 at 2.4 GHz",
        result.spec
    );
    let _ = writeln!(
        out,
        "{:<14}{:>12}{:>14}",
        "self-test", "safe Vmin", "highest crash"
    );
    for s in &result.summaries {
        let _ = writeln!(
            out,
            "{:<14}{:>12}{:>14}",
            s.program,
            s.safe_vmin
                .map_or_else(|| "-".into(), |v| v.get().to_string()),
            s.highest_crash
                .map_or_else(|| "-".into(), |v| v.get().to_string()),
        );
    }
    let _ = writeln!(
        out,
        "(paper: SDCs appear when the pipeline is stressed; cache tests crash much lower)"
    );
    out
}

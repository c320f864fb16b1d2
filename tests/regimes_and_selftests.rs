//! Integration checks of §3.2 (divided clock regime) and §3.4 (self-tests).

use voltmargin::characterize::config::CampaignConfig;
use voltmargin::characterize::exec::{ExecContext, SerialExecutor, ThreadPoolExecutor};
use voltmargin::characterize::regions::{analyze, RegionKind};
use voltmargin::characterize::runner::Campaign;
use voltmargin::characterize::severity::SeverityWeights;
use voltmargin::sim::{ChipSpec, CoreId, Corner, Megahertz, Millivolts};

#[test]
fn divided_regime_is_uniform_760_and_crash_only() {
    let config = CampaignConfig::builder()
        .benchmarks(["bwaves", "mcf"])
        .cores([CoreId::new(0), CoreId::new(4)])
        .iterations(5)
        .target_frequency(Megahertz::new(1200))
        .start_voltage(Millivolts::new(780))
        .floor_voltage(Millivolts::new(745))
        .seed(0x0D10)
        .build()
        .unwrap();
    let outcome = Campaign::new(ChipSpec::new(Corner::Ttt, 0), config)
        .run(&ThreadPoolExecutor::clamped(4), ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    let result = analyze(&outcome, &SeverityWeights::paper());
    assert_eq!(result.summaries.len(), 4);
    for s in &result.summaries {
        // §3.2: uniform Vmin at 760 mV for every benchmark and core…
        assert_eq!(
            s.safe_vmin,
            Some(Millivolts::new(760)),
            "{} core{}",
            s.program,
            s.core.index()
        );
        // …and nothing but system crashes below it.
        for st in &s.steps {
            assert_ne!(
                st.region,
                RegionKind::Unsafe,
                "{} core{} at {}mV: divided regime must be crash-only",
                s.program,
                s.core.index(),
                st.mv
            );
        }
        assert!(s.highest_crash.is_some(), "sweep reaches the crash region");
    }
}

#[test]
fn intermediate_frequencies_behave_like_their_regime() {
    // §3.2: >1.2 GHz behaves like 2.4 GHz. At 1.8 GHz a benchmark keeps its
    // full-speed Vmin (far above 760 mV).
    let config = CampaignConfig::builder()
        .benchmarks(["milc"])
        .cores([CoreId::new(4)])
        .iterations(4)
        .target_frequency(Megahertz::new(1800))
        .start_voltage(Millivolts::new(920))
        .floor_voltage(Millivolts::new(855))
        .seed(0x0180)
        .build()
        .unwrap();
    let outcome = Campaign::new(ChipSpec::new(Corner::Ttt, 0), config)
        .run(&SerialExecutor, ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    let result = analyze(&outcome, &SeverityWeights::paper());
    let vmin = result.summaries[0].safe_vmin.expect("vmin measurable");
    assert!(
        vmin.get() >= 860,
        "1.8 GHz must show full-speed margins, got {vmin}"
    );
}

#[test]
fn fpu_selftest_fails_well_above_the_cache_selftest() {
    // §3.4 ranks the components by how early they fail; judged over
    // eight consecutive campaign seeds rather than one realization.
    let mut seen = Vec::new();
    for seed in 0x5E1F..0x5E1F + 8 {
        let config = CampaignConfig::builder()
            .benchmarks(["selftest-fpu", "selftest-l2"])
            .cores([CoreId::new(4)])
            .iterations(6)
            .start_voltage(Millivolts::new(935))
            .floor_voltage(Millivolts::new(840))
            .seed(seed)
            .build()
            .unwrap();
        let outcome = Campaign::new(ChipSpec::new(Corner::Ttt, 0), config)
            .run(&ThreadPoolExecutor::clamped(2), ExecContext::new())
            .expect("built-in executors uphold the delivery contract");
        let result = analyze(&outcome, &SeverityWeights::paper());
        let vmin = |test: &str| {
            result
                .summary(test, "ref", CoreId::new(4))
                .and_then(|s| s.safe_vmin)
        };
        seen.push((seed, vmin("selftest-fpu"), vmin("selftest-l2")));
    }
    let holds = seen
        .iter()
        .filter(|(_, fpu, cache)| matches!((fpu, cache), (Some(f), Some(c)) if f > c))
        .count();
    assert!(
        holds >= 5,
        "§3.4: the FPU test must lose margin above the cache test on at least 5 of 8 seeds \
         (seed, fpu, cache): {seen:?}"
    );
}

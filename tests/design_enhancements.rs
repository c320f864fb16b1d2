//! Integration checks of the §6 design enhancements and the PCP/SoC-rail
//! extension study.

use voltmargin::characterize::config::{CampaignConfig, SweptRail};
use voltmargin::characterize::effect::Effect;
use voltmargin::characterize::exec::{ExecContext, ThreadPoolExecutor};
use voltmargin::characterize::regions::{analyze, RegionKind};
use voltmargin::characterize::runner::Campaign;
use voltmargin::characterize::severity::{Mitigation, SeverityWeights};
use voltmargin::sim::{ChipSpec, CoreId, Corner, Enhancements, Millivolts};

#[test]
fn detectors_create_a_ce_first_band_like_section_6_predicts() {
    // §6: with hardware detectors, "SDC behavior with or without errors
    // will have significant probability to be transformed to corrected
    // errors behavior similarly to [9, 10]". A probabilistic claim, so it
    // is judged over eight consecutive campaign seeds, not one.
    let characterize = |enhancements: Enhancements, seed: u64| {
        let cfg = CampaignConfig::builder()
            .benchmarks(["bwaves"])
            .cores([CoreId::new(0)])
            .iterations(6)
            .start_voltage(Millivolts::new(925))
            .floor_voltage(Millivolts::new(865))
            .enhancements(enhancements)
            .seed(seed)
            .build()
            .unwrap();
        let outcome = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg)
            .run(&ThreadPoolExecutor::clamped(4), ExecContext::new())
            .expect("built-in executors uphold the delivery contract");
        analyze(&outcome, &SeverityWeights::paper())
    };
    let first_effects = |r: &voltmargin::characterize::CharacterizationResult| {
        r.summaries[0]
            .abnormal_steps()
            .next()
            .map(|st| st.observed())
            .expect("sweep reaches the unsafe region")
    };
    let sdc_steps = |r: &voltmargin::characterize::CharacterizationResult| {
        r.summaries[0]
            .steps
            .iter()
            .filter(|st| st.observed().contains(Effect::Sdc))
            .count()
    };

    let (mut ce_first, mut stock_sdc_steps, mut enhanced_sdc_steps) = (0, 0, 0);
    let mut seen = Vec::new();
    for seed in 0x66..0x66 + 8 {
        let stock = characterize(Enhancements::stock(), seed);
        let enhanced = characterize(
            Enhancements {
                residue_checks: true,
                ..Enhancements::stock()
            },
            seed,
        );
        let stock_first = first_effects(&stock);
        let enhanced_first = first_effects(&enhanced);
        assert!(
            stock_first.contains(Effect::Sdc),
            "seed {seed:#x}: stock chip fails SDC-first: {stock_first}"
        );
        if enhanced_first.contains(Effect::Ce) && !enhanced_first.contains(Effect::Sdc) {
            ce_first += 1;
        }
        seen.push(format!("{seed:#x}: {enhanced_first}"));
        stock_sdc_steps += sdc_steps(&stock);
        enhanced_sdc_steps += sdc_steps(&enhanced);
    }
    assert!(
        ce_first >= 5,
        "detectors must turn the first abnormal step into CE on at least 5 of 8 seeds: {seen:?}"
    );
    // And the detectors shrink the SDC-bearing portion of the sweep.
    assert!(
        enhanced_sdc_steps < stock_sdc_steps,
        "SDC steps over 8 seeds: enhanced {enhanced_sdc_steps} vs stock {stock_sdc_steps}"
    );
}

#[test]
fn soc_rail_has_a_wide_ecc_proxy_band() {
    // Extension: sweeping the PCP/SoC rail with an L3-resident workload
    // shows the Itanium-style behaviour the paper contrasts against —
    // a wide corrected-errors-only band before the crash region.
    let cfg = CampaignConfig::builder()
        .benchmarks(["mcf"])
        .cores([CoreId::new(4)])
        .iterations(4)
        .rail(SweptRail::PcpSoc)
        .start_voltage(Millivolts::new(880))
        .floor_voltage(Millivolts::new(715))
        .seed(0x50C)
        .build()
        .unwrap();
    let outcome = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg)
        .run(&ThreadPoolExecutor::clamped(2), ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    let result = analyze(&outcome, &SeverityWeights::paper());
    let s = &result.summaries[0];

    let ce_only_steps: Vec<_> = s
        .steps
        .iter()
        .filter(|st| {
            st.region == RegionKind::Unsafe && {
                let o = st.observed();
                o.contains(Effect::Ce)
                    && !o.contains(Effect::Sdc)
                    && !o.contains(Effect::Ac)
                    && !o.contains(Effect::Ue)
            }
        })
        .collect();
    assert!(
        ce_only_steps.len() >= 10,
        "expected a wide CE-only band, got {} steps",
        ce_only_steps.len()
    );
    // Those steps sit in the §4.4 ECC-proxy regime.
    for st in &ce_only_steps {
        assert_eq!(st.severity.mitigation(st.observed()), Mitigation::EccProxy);
        assert!(st.severity.value() <= 1.5, "{} at {}mV", st.severity, st.mv);
    }
    // And the rail eventually crashes (SoC logic collapse).
    assert!(s.highest_crash.is_some());
    assert!(s.highest_crash.unwrap().get() < 745);
}

#[test]
fn extended_ecc_reduces_uncorrected_errors_on_the_cache_selftest() {
    // §6a: interleaved SECDED on every array upgrades parity losses and
    // double-bit patterns. The L1 march test at deep voltages shows it.
    let characterize = |enhancements: Enhancements| {
        let cfg = CampaignConfig::builder()
            .benchmarks(["selftest-l1d"])
            .cores([CoreId::new(4)])
            .iterations(4)
            .start_voltage(Millivolts::new(880))
            .floor_voltage(Millivolts::new(845))
            .crash_stop_steps(0)
            .enhancements(enhancements)
            .seed(0xECC)
            .build()
            .unwrap();
        let outcome = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg)
            .run(&ThreadPoolExecutor::clamped(2), ExecContext::new())
            .expect("built-in executors uphold the delivery contract");
        analyze(&outcome, &SeverityWeights::paper())
    };
    let stock = characterize(Enhancements::stock());
    let enhanced = characterize(Enhancements {
        extended_ecc: true,
        ..Enhancements::stock()
    });
    let ue_runs = |r: &voltmargin::characterize::CharacterizationResult| {
        r.summaries[0]
            .steps
            .iter()
            .map(|st| st.count(Effect::Ue))
            .sum::<usize>()
    };
    let (stock_ue, enhanced_ue) = (ue_runs(&stock), ue_runs(&enhanced));
    assert!(
        enhanced_ue <= stock_ue,
        "stronger ECC must not increase UEs: stock {stock_ue}, enhanced {enhanced_ue}"
    );
    let ce_runs = |r: &voltmargin::characterize::CharacterizationResult| {
        r.summaries[0]
            .steps
            .iter()
            .map(|st| st.count(Effect::Ce))
            .sum::<usize>()
    };
    assert!(
        ce_runs(&enhanced) >= ce_runs(&stock),
        "upgraded arrays correct what parity only detected"
    );
}

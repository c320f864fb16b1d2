//! Cross-crate integration: the full characterization pipeline on a small
//! but real campaign, checking the paper's qualitative findings.

use voltmargin::characterize::config::CampaignConfig;
use voltmargin::characterize::effect::Effect;
use voltmargin::characterize::exec::{ExecContext, SerialExecutor, ThreadPoolExecutor};
use voltmargin::characterize::regions::{analyze, RegionKind};
use voltmargin::characterize::report;
use voltmargin::characterize::runner::Campaign;
use voltmargin::characterize::severity::SeverityWeights;
use voltmargin::sim::{ChipSpec, CoreId, Corner, Millivolts};

fn characterize(
    benches: &[&str],
    cores: &[u8],
    hi: u32,
    lo: u32,
    iters: u32,
) -> voltmargin::characterize::CharacterizationResult {
    let config = CampaignConfig::builder()
        .benchmarks(benches.iter().copied())
        .cores(cores.iter().map(|c| CoreId::new(*c)))
        .iterations(iters)
        .start_voltage(Millivolts::new(hi))
        .floor_voltage(Millivolts::new(lo))
        .seed(0xE2E)
        .build()
        .expect("valid config");
    let outcome = Campaign::new(ChipSpec::new(Corner::Ttt, 0), config)
        .run(&ThreadPoolExecutor::clamped(4), ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    analyze(&outcome, &SeverityWeights::paper())
}

#[test]
fn regions_are_ordered_safe_unsafe_crash() {
    let result = characterize(&["bwaves"], &[0], 925, 855, 5);
    let s = result.summary("bwaves", "ref", CoreId::new(0)).unwrap();
    // The sweep must exhibit all three regions.
    let kinds: Vec<RegionKind> = s.steps.iter().map(|st| st.region).collect();
    assert!(kinds.contains(&RegionKind::Safe));
    assert!(kinds.contains(&RegionKind::Unsafe));
    assert!(kinds.contains(&RegionKind::Crash));
    // Safe steps form a prefix (descending voltage).
    let first_abnormal = kinds.iter().position(|k| *k != RegionKind::Safe).unwrap();
    assert!(kinds[..first_abnormal]
        .iter()
        .all(|k| *k == RegionKind::Safe));
    // Vmin above highest crash.
    let vmin = s.safe_vmin.unwrap();
    let crash = s.highest_crash.unwrap();
    assert!(vmin > crash, "vmin {vmin} vs crash {crash}");
}

#[test]
fn workload_ordering_bwaves_above_mcf() {
    // The FP-dense bwaves needs more voltage than the pointer-chasing mcf
    // on the same core (Figure 3's workload-to-workload variation).
    let result = characterize(&["bwaves", "mcf"], &[4], 925, 845, 5);
    let bwaves = result
        .summary("bwaves", "ref", CoreId::new(4))
        .and_then(|s| s.safe_vmin)
        .expect("bwaves vmin");
    let mcf = result
        .summary("mcf", "ref", CoreId::new(4))
        .and_then(|s| s.safe_vmin)
        .expect("mcf vmin");
    assert!(bwaves > mcf, "bwaves {bwaves} vs mcf {mcf}");
}

#[test]
fn core_to_core_variation_pmd2_beats_pmd0() {
    // §3.3: PMD 2 (cores 4/5) is the most robust, PMD 0 the most sensitive.
    let result = characterize(&["milc"], &[0, 4], 930, 845, 6);
    let sensitive = result
        .summary("milc", "ref", CoreId::new(0))
        .and_then(|s| s.safe_vmin)
        .expect("core0 vmin");
    let robust = result
        .summary("milc", "ref", CoreId::new(4))
        .and_then(|s| s.safe_vmin)
        .expect("core4 vmin");
    assert!(
        robust < sensitive,
        "core4 {robust} must undervolt deeper than core0 {sensitive}"
    );
}

#[test]
fn sdc_appears_at_higher_voltage_than_ce_alone() {
    // §3.4's headline: on this chip SDCs appear before (above) corrected
    // errors; no CE-only band exists at the top of the unsafe region.
    let result = characterize(&["bwaves", "leslie3d"], &[0], 925, 850, 6);
    for s in &result.summaries {
        let mut first_abnormal_effects = None;
        for st in &s.steps {
            if st.region != RegionKind::Safe {
                first_abnormal_effects = Some(st.observed());
                break;
            }
        }
        let effects = first_abnormal_effects.expect("sweep reaches unsafe region");
        let ce_only = effects.contains(Effect::Ce)
            && !effects.contains(Effect::Sdc)
            && !effects.contains(Effect::Ac)
            && !effects.contains(Effect::Sc)
            && !effects.contains(Effect::Ue);
        assert!(
            !ce_only,
            "{}: first abnormal step must not be CE-only (got {})",
            s.program, effects
        );
    }
}

#[test]
fn severity_grows_towards_the_crash_region() {
    let result = characterize(&["bwaves"], &[0], 920, 850, 6);
    let s = result.summary("bwaves", "ref", CoreId::new(0)).unwrap();
    let abnormal: Vec<f64> = s.abnormal_steps().map(|st| st.severity.value()).collect();
    assert!(abnormal.len() >= 3, "need a few unsafe steps");
    let first = abnormal.first().copied().unwrap();
    let last = abnormal.last().copied().unwrap();
    assert!(last > first, "severity must grow with depth: {abnormal:?}");
    // The deepest step is SC-dominated (severity near 16), the first is
    // SDC-dominated (severity around a few units).
    assert!(last >= 10.0, "deepest severity {last}");
    assert!(first <= 8.0, "onset severity {first}");
}

#[test]
fn csv_reports_round_trip_the_run_count() {
    let config = CampaignConfig::builder()
        .benchmarks(["namd"])
        .cores([CoreId::new(4)])
        .iterations(3)
        .start_voltage(Millivolts::new(890))
        .floor_voltage(Millivolts::new(875))
        .seed(1)
        .build()
        .unwrap();
    let outcome = Campaign::new(ChipSpec::new(Corner::Ttt, 0), config)
        .run(&SerialExecutor, ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    let csv = report::runs_csv(&outcome);
    assert_eq!(csv.lines().count() - 1, outcome.runs.len());
    let result = analyze(&outcome, &SeverityWeights::paper());
    let severity_csv = report::severity_csv(&result);
    assert!(severity_csv.lines().count() > 1);
}

#[test]
fn campaign_replays_bit_identically() {
    let a = characterize(&["gromacs"], &[2], 900, 870, 4);
    let b = characterize(&["gromacs"], &[2], 900, 870, 4);
    assert_eq!(a.summaries, b.summaries, "same seed ⇒ same campaign");
}

//! CSV and text rendering — the "Final CSV Results" box of Figure 2.
//!
//! "At the end of the parsing step, all the collected results concerning
//! the characterization (according to Table 3) and the severity function of
//! each run are reported in CSV files."

use crate::effect::Effect;
use crate::regions::{CharacterizationResult, RegionKind};
use crate::runner::CampaignOutcome;
use std::fmt::Write as _;

/// Renders every classified run as CSV (one row per run).
#[must_use]
pub fn runs_csv(outcome: &CampaignOutcome) -> String {
    let mut out = String::new();
    out.push_str(
        "chip,program,dataset,core,pmd_mv,soc_mv,freq_mhz,iteration,effects,corrected,uncorrected,runtime_s,energy_j\n",
    );
    for r in &outcome.runs {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{:.6e},{:.6e}",
            outcome.spec,
            r.program,
            r.dataset,
            r.core.index(),
            r.pmd_mv.get(),
            r.soc_mv.get(),
            r.freq.get(),
            r.iteration,
            r.effects,
            r.corrected_errors,
            r.uncorrected_errors,
            r.runtime_s,
            r.energy_j,
        );
    }
    out
}

/// Renders the per-sweep region summary as CSV (Figure 4's data).
#[must_use]
pub fn regions_csv(result: &CharacterizationResult) -> String {
    let mut out = String::new();
    out.push_str(
        "chip,program,dataset,core,safe_vmin_mv,highest_crash_mv,average_vmin_mv,average_crash_mv,guardband_mv\n",
    );
    for s in &result.summaries {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            result.spec,
            s.program,
            s.dataset,
            s.core.index(),
            opt(s.safe_vmin.map(|v| v.get())),
            opt(s.highest_crash.map(|v| v.get())),
            optf(s.average_vmin),
            optf(s.average_crash),
            opt(s.guardband_mv().map(|g| g.get())),
        );
    }
    out
}

/// Renders the per-step severity table as CSV (Figure 5's data).
#[must_use]
pub fn severity_csv(result: &CharacterizationResult) -> String {
    let mut out = String::new();
    out.push_str("chip,program,dataset,core,mv,region,severity,no,sdc,ce,ue,ac,sc\n");
    for s in &result.summaries {
        for st in &s.steps {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{:.2},{},{},{},{},{},{}",
                result.spec,
                s.program,
                s.dataset,
                s.core.index(),
                st.mv,
                region_label(st.region),
                st.severity.value(),
                st.count(Effect::No),
                st.count(Effect::Sdc),
                st.count(Effect::Ce),
                st.count(Effect::Ue),
                st.count(Effect::Ac),
                st.count(Effect::Sc),
            );
        }
    }
    out
}

/// A Figure 4-style text panel for one benchmark: per core, the region band
/// as characters (`.` safe, `#` unsafe, `X` crash), highest voltage on the
/// left.
#[must_use]
pub fn region_band_text(result: &CharacterizationResult, program: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} — {program}", result.spec);
    for s in result.by_program(program) {
        let band: String = s
            .steps
            .iter()
            .map(|st| match st.region {
                RegionKind::Safe => '.',
                RegionKind::Unsafe => '#',
                RegionKind::Crash => 'X',
            })
            .collect();
        let top = s.steps.first().map_or(0, |st| st.mv);
        let bottom = s.steps.last().map_or(0, |st| st.mv);
        let _ = writeln!(
            out,
            "  core{} [{top}..{bottom}mV] {band}  vmin={} crash={}",
            s.core.index(),
            opt(s.safe_vmin.map(|v| v.get())),
            opt(s.highest_crash.map(|v| v.get())),
        );
    }
    out
}

fn region_label(r: RegionKind) -> &'static str {
    match r {
        RegionKind::Safe => "safe",
        RegionKind::Unsafe => "unsafe",
        RegionKind::Crash => "crash",
    }
}

fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "-".to_owned(), |x| x.to_string())
}

fn optf(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_owned(), |x| format!("{x:.1}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use crate::exec::{ExecContext, SerialExecutor};
    use crate::runner::Campaign;
    use crate::severity::SeverityWeights;
    use margins_sim::{ChipSpec, CoreId, Corner, Millivolts};

    fn outcome() -> CampaignOutcome {
        let cfg = CampaignConfig::builder()
            .benchmarks(["bwaves"])
            .cores([CoreId::new(0)])
            .iterations(2)
            .start_voltage(Millivolts::new(915))
            .floor_voltage(Millivolts::new(885))
            .seed(4)
            .build()
            .unwrap();
        Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg)
            .run(&SerialExecutor, ExecContext::new())
            .expect("built-in executors uphold the delivery contract")
    }

    #[test]
    fn runs_csv_has_header_and_one_row_per_run() {
        let out = outcome();
        let csv = runs_csv(&out);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), out.runs.len() + 1);
        assert!(lines[0].starts_with("chip,program"));
        assert!(lines[1].contains("bwaves"));
        assert!(lines[1].contains("TTT#0"));
    }

    #[test]
    fn regions_and_severity_csvs_are_consistent() {
        let out = outcome();
        let result = crate::regions::analyze(&out, &SeverityWeights::paper());
        let regions = regions_csv(&result);
        assert_eq!(regions.lines().count(), result.summaries.len() + 1);
        let severity = severity_csv(&result);
        let step_rows: usize = result.summaries.iter().map(|s| s.steps.len()).sum();
        assert_eq!(severity.lines().count(), step_rows + 1);
        // Every severity row ends with per-effect counts that sum ≤ N * 6.
        for line in severity.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 13);
        }
    }

    /// Pins one small campaign's realization: any change to the fault
    /// stream, the run-seed derivation or the severity model moves this
    /// digest. Re-pin deliberately, and regenerate the recorded results
    /// with it.
    #[test]
    fn severity_csv_realization_is_pinned() {
        let result = crate::regions::analyze(&outcome(), &SeverityWeights::paper());
        let csv = severity_csv(&result);
        let fnv1a = csv.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(fnv1a, 0x2757_3615_918f_5b03, "severity CSV moved:\n{csv}");
    }

    #[test]
    fn region_band_text_renders_per_core_rows() {
        let out = outcome();
        let result = crate::regions::analyze(&out, &SeverityWeights::paper());
        let text = region_band_text(&result, "bwaves");
        assert!(text.contains("core0"));
        assert!(text.contains("915"));
    }
}

//! Extension experiments beyond the paper's evaluation:
//!
//! * [`sec6_ablation`] — the §6 design-enhancement recommendations,
//!   actually built and measured: stronger (interleaved) ECC, hardware
//!   timing-fault detectors, adaptive clocking.
//! * [`soc_rail_characterization`] — scaling the *other* rail (§2.1's
//!   independently regulated PCP/SoC domain): the L3's ECC becomes the
//!   first line of defence, recovering the Itanium-style
//!   corrected-errors-first profile the paper contrasts against (§3.4,
//!   §4.4's "ECC proxy" band).

use crate::scale::Scale;
use margins_core::config::{CampaignConfig, SweptRail};
use margins_core::effect::Effect;
use margins_core::exec::{ExecContext, ThreadPoolExecutor};
use margins_core::regions::{analyze, CharacterizationResult, RegionKind};
use margins_core::runner::Campaign;
use margins_core::severity::SeverityWeights;
use margins_sim::{ChipSpec, CoreId, Enhancements, Millivolts};
use std::fmt::Write as _;

/// One chip-revision variant of the §6 ablation.
#[derive(Debug, Clone)]
pub struct Sec6Variant {
    /// Variant label.
    pub label: &'static str,
    /// The enhancements active.
    pub enhancements: Enhancements,
    /// The analyzed sweep.
    pub result: CharacterizationResult,
}

/// Characterizes `benchmark` on TTT core 0 under each §6 chip revision.
#[must_use]
pub fn sec6_ablation(spec: ChipSpec, benchmark: &str, scale: &Scale) -> Vec<Sec6Variant> {
    let variants: [(&'static str, Enhancements); 4] = [
        ("stock", Enhancements::stock()),
        (
            "detectors (§6b)",
            Enhancements {
                residue_checks: true,
                ..Enhancements::stock()
            },
        ),
        (
            "stronger ECC (§6a)",
            Enhancements {
                extended_ecc: true,
                ..Enhancements::stock()
            },
        ),
        ("all + adaptive clk", Enhancements::all()),
    ];
    variants
        .into_iter()
        .map(|(label, enhancements)| {
            let config = CampaignConfig::builder()
                .benchmarks([benchmark])
                .cores([CoreId::new(0)])
                .iterations(scale.iterations)
                .start_voltage(Millivolts::new(945))
                .floor_voltage(Millivolts::new(840))
                .crash_stop_steps(2)
                .enhancements(enhancements)
                .seed(0x6_6_6)
                .build()
                .expect("sec6 configuration is valid");
            let outcome = Campaign::new(spec, config)
                .run(
                    &ThreadPoolExecutor::clamped(scale.threads),
                    ExecContext::new(),
                )
                .expect("built-in executors uphold the delivery contract");
            Sec6Variant {
                label,
                enhancements,
                result: analyze(&outcome, &SeverityWeights::paper()),
            }
        })
        .collect()
}

/// Renders the §6 ablation: per variant, the first abnormal effect, the
/// sizes of the SDC-free and SDC-bearing bands, and the crash voltage.
#[must_use]
pub fn sec6_report(variants: &[Sec6Variant], benchmark: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§6 design-enhancement ablation — {benchmark} on TTT core 0 at 2.4 GHz"
    );
    let _ = writeln!(
        out,
        "{:<20}{:>8}{:>8}{:>16}{:>12}{:>12}",
        "variant", "vmin", "crash", "first effect", "CE-only", "SDC steps"
    );
    for v in variants {
        let Some(s) = v.result.summaries.first() else {
            continue;
        };
        let first_effect = s
            .abnormal_steps()
            .next()
            .map(|st| st.observed().to_string())
            .unwrap_or_else(|| "-".into());
        let ce_only_steps = s
            .steps
            .iter()
            .filter(|st| {
                st.region == RegionKind::Unsafe && {
                    let o = st.observed();
                    o.contains(Effect::Ce)
                        && !o.contains(Effect::Sdc)
                        && !o.contains(Effect::Ue)
                        && !o.contains(Effect::Ac)
                }
            })
            .count();
        let sdc_steps = s
            .steps
            .iter()
            .filter(|st| st.observed().contains(Effect::Sdc))
            .count();
        let _ = writeln!(
            out,
            "{:<20}{:>8}{:>8}{:>16}{:>12}{:>12}",
            v.label,
            s.safe_vmin
                .map_or_else(|| "-".into(), |x| x.get().to_string()),
            s.highest_crash
                .map_or_else(|| "-".into(), |x| x.get().to_string()),
            first_effect,
            ce_only_steps,
            sdc_steps,
        );
    }
    let _ = writeln!(
        out,
        "(§6's claim: with stronger protection/detectors, 'SDC behavior … will have\n\
         significant probability to be transformed to corrected errors behavior')"
    );
    out
}

/// Characterizes memory-bound benchmarks against the PCP/SoC rail.
#[must_use]
pub fn soc_rail_characterization(spec: ChipSpec, scale: &Scale) -> CharacterizationResult {
    let config = CampaignConfig::builder()
        .benchmarks(["mcf", "lbm"])
        .cores([CoreId::new(4)])
        .iterations(scale.iterations)
        .rail(SweptRail::PcpSoc)
        .start_voltage(Millivolts::new(900))
        .floor_voltage(Millivolts::new(710))
        .crash_stop_steps(2)
        .seed(0x50C)
        .build()
        .expect("SoC-rail configuration is valid");
    let outcome = Campaign::new(spec, config)
        .run(
            &ThreadPoolExecutor::clamped(scale.threads),
            ExecContext::new(),
        )
        .expect("built-in executors uphold the delivery contract");
    analyze(&outcome, &SeverityWeights::paper())
}

/// Renders the SoC-rail study: the per-step region/effect/mitigation table.
#[must_use]
pub fn soc_rail_report(result: &CharacterizationResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "PCP/SoC-rail characterization on {} (PMD rail at nominal, SoC nominal 950 mV)",
        result.spec
    );
    for s in &result.summaries {
        let _ = writeln!(
            out,
            "\n {} on core{}: vmin={} crash={}",
            s.program,
            s.core.index(),
            s.safe_vmin.map_or_else(|| "-".into(), |v| v.to_string()),
            s.highest_crash
                .map_or_else(|| "-".into(), |v| v.to_string()),
        );
        for st in s.abnormal_steps() {
            let _ = writeln!(
                out,
                "   {:>4} mV  severity {:>5.1}  effects {:<10}  → {}",
                st.mv,
                st.severity.value(),
                st.observed().to_string(),
                st.severity.mitigation(st.observed()),
            );
        }
    }
    let _ = writeln!(
        out,
        "\n(the wide corrected-errors-only band is the Itanium-style behaviour of\n\
         [9, 10] — on this design it lives on the SoC rail, not the core rail,\n\
         enabling §4.4's 'ECC serves as a proxy' speculation for the L3/memory domain)"
    );
    out
}

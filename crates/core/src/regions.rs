//! Regions-of-operation analysis (§3.1–§3.3, Figures 3–4).
//!
//! From a campaign's classified runs this module derives, per
//! (benchmark, dataset, core):
//!
//! * the **safe Vmin** — the lowest voltage above which every iteration of
//!   every step ran normally (the paper plots the conservative Vmin over
//!   the ten campaign iterations),
//! * the **highest crash voltage** — the highest step at which at least one
//!   iteration took the system down,
//! * the per-step [`RegionKind`] (Safe blue / Unsafe grey / Crash black),
//! * the per-step severity values of §3.4.1 (Figure 5's heat-map), and
//! * the *average* Vmin / crash voltage across iterations (the green/red
//!   lines of Figure 4).

use crate::classify::ClassifiedRun;
use crate::effect::{Effect, EffectSet};
use crate::runner::CampaignOutcome;
use crate::severity::{Severity, SeverityWeights};
use margins_sim::{ChipSpec, CoreId, Millivolts};
use std::collections::BTreeMap;

/// The three regions of operation (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Normal operation only — the blue region.
    Safe,
    /// Abnormal behaviour (SDC/CE/UE/AC) but no system crash — grey.
    Unsafe,
    /// At least one run crashed the system — black.
    Crash,
}

impl RegionKind {
    /// Classifies a voltage step by the effects its runs manifested.
    #[must_use]
    pub fn of_runs<'a, I: IntoIterator<Item = &'a EffectSet>>(runs: I) -> RegionKind {
        let mut any_abnormal = false;
        for e in runs {
            if e.is_system_crash() {
                return RegionKind::Crash;
            }
            any_abnormal |= !e.is_normal();
        }
        if any_abnormal {
            RegionKind::Unsafe
        } else {
            RegionKind::Safe
        }
    }
}

/// Statistics of one voltage step of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct StepStats {
    /// The step voltage (mV).
    pub mv: u32,
    /// Effect sets of the N iterations at this step.
    pub effect_sets: Vec<EffectSet>,
    /// Severity S_v of this step.
    pub severity: Severity,
    /// Region classification of this step.
    pub region: RegionKind,
}

impl StepStats {
    /// Runs at this step manifesting `effect`.
    #[must_use]
    pub fn count(&self, effect: Effect) -> usize {
        self.effect_sets
            .iter()
            .filter(|s| s.contains(effect))
            .count()
    }

    /// The union of all effects observed at this step.
    #[must_use]
    pub fn observed(&self) -> EffectSet {
        self.effect_sets
            .iter()
            .fold(EffectSet::new(), |acc, e| acc.union(*e))
    }
}

/// The analysis of one (benchmark, dataset, core) sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Benchmark name.
    pub program: String,
    /// Dataset label.
    pub dataset: String,
    /// Core under characterization.
    pub core: CoreId,
    /// Per-step statistics, descending voltage.
    pub steps: Vec<StepStats>,
    /// The conservative safe Vmin over all iterations (Figure 4's bar top),
    /// `None` when even the highest swept step misbehaved.
    pub safe_vmin: Option<Millivolts>,
    /// Highest voltage at which any iteration crashed the system.
    pub highest_crash: Option<Millivolts>,
    /// Mean per-iteration Vmin (Figure 4's green line), when computable.
    pub average_vmin: Option<f64>,
    /// Mean per-iteration highest crash voltage (Figure 4's red line).
    pub average_crash: Option<f64>,
}

impl SweepSummary {
    /// Step stats at an exact voltage.
    #[must_use]
    pub fn step(&self, mv: Millivolts) -> Option<&StepStats> {
        self.steps.iter().find(|s| s.mv == mv.get())
    }

    /// The guardband from nominal down to the safe Vmin.
    #[must_use]
    pub fn guardband_mv(&self) -> Option<Millivolts> {
        self.safe_vmin
            .map(|v| Millivolts::new(margins_sim::volt::PMD_NOMINAL.get() - v.get()))
    }

    /// Steps inside the unsafe or crash region (severity > 0) — the sample
    /// pool of the §4.3.2 severity prediction.
    pub fn abnormal_steps(&self) -> impl Iterator<Item = &StepStats> {
        self.steps.iter().filter(|s| s.region != RegionKind::Safe)
    }
}

/// The full analysis of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationResult {
    /// The characterized chip.
    pub spec: ChipSpec,
    /// Severity weights used.
    pub weights: SeverityWeights,
    /// One summary per (benchmark, dataset, core).
    pub summaries: Vec<SweepSummary>,
}

impl CharacterizationResult {
    /// The summary for an exact (benchmark, dataset, core) key.
    #[must_use]
    pub fn summary(&self, program: &str, dataset: &str, core: CoreId) -> Option<&SweepSummary> {
        self.summaries
            .iter()
            .find(|s| s.program == program && s.dataset == dataset && s.core == core)
    }

    /// All summaries of one benchmark (across cores).
    pub fn by_program<'a>(
        &'a self,
        program: &'a str,
    ) -> impl Iterator<Item = &'a SweepSummary> + 'a {
        self.summaries.iter().filter(move |s| s.program == program)
    }

    /// The most robust core for `program` (lowest safe Vmin) — the per-chip
    /// series of Figure 3.
    #[must_use]
    pub fn most_robust_core(&self, program: &str) -> Option<(CoreId, Millivolts)> {
        self.by_program(program)
            .filter_map(|s| s.safe_vmin.map(|v| (s.core, v)))
            .min_by_key(|(_, v)| *v)
    }

    /// The most sensitive core for `program` (highest safe Vmin).
    #[must_use]
    pub fn most_sensitive_core(&self, program: &str) -> Option<(CoreId, Millivolts)> {
        self.by_program(program)
            .filter_map(|s| s.safe_vmin.map(|v| (s.core, v)))
            .max_by_key(|(_, v)| *v)
    }
}

/// Runs the parsing/analysis phase over a campaign outcome.
#[must_use]
pub fn analyze(outcome: &CampaignOutcome, weights: &SeverityWeights) -> CharacterizationResult {
    // Group runs by (program, dataset, core) then by voltage (descending).
    type Key = (String, String, CoreId);
    let rail = outcome.config.rail;
    let mut grouped: BTreeMap<Key, BTreeMap<std::cmp::Reverse<Millivolts>, Vec<&ClassifiedRun>>> =
        BTreeMap::new();
    for run in &outcome.runs {
        grouped
            .entry((run.program.clone(), run.dataset.clone(), run.core))
            .or_default()
            .entry(std::cmp::Reverse(run.swept_mv(rail)))
            .or_default()
            .push(run);
    }

    let mut summaries = Vec::with_capacity(grouped.len());
    for ((program, dataset, core), by_voltage) in grouped {
        let iterations = outcome.config.iterations;
        let mut steps = Vec::with_capacity(by_voltage.len());
        for (std::cmp::Reverse(mv), runs) in &by_voltage {
            let mut sets: Vec<EffectSet> = vec![EffectSet::new(); iterations as usize];
            for r in runs {
                if (r.iteration as usize) < sets.len() {
                    sets[r.iteration as usize] = r.effects;
                }
            }
            let severity = weights.severity(sets.iter());
            let region = RegionKind::of_runs(sets.iter());
            steps.push(StepStats {
                mv: mv.get(),
                effect_sets: sets,
                severity,
                region,
            });
        }

        // Conservative Vmin: descending scan until the first abnormal step.
        let mut safe_vmin = None;
        for step in &steps {
            if step.region == RegionKind::Safe {
                safe_vmin = Some(Millivolts::new(step.mv));
            } else {
                break;
            }
        }
        let highest_crash = steps
            .iter()
            .filter(|s| s.region == RegionKind::Crash)
            .map(|s| Millivolts::new(s.mv))
            .max();

        // Per-iteration Vmin / crash for the Figure 4 average lines.
        let mut iter_vmins = Vec::new();
        let mut iter_crashes = Vec::new();
        for it in 0..iterations as usize {
            let mut vmin = None;
            for step in &steps {
                if step.effect_sets[it].is_normal() {
                    vmin = Some(step.mv);
                } else {
                    break;
                }
            }
            if let Some(v) = vmin {
                iter_vmins.push(f64::from(v));
            }
            if let Some(c) = steps
                .iter()
                .filter(|s| s.effect_sets[it].is_system_crash())
                .map(|s| s.mv)
                .max()
            {
                iter_crashes.push(f64::from(c));
            }
        }
        let average_vmin = mean(&iter_vmins);
        let average_crash = mean(&iter_crashes);

        summaries.push(SweepSummary {
            program,
            dataset,
            core,
            steps,
            safe_vmin,
            highest_crash,
            average_vmin,
            average_crash,
        });
    }

    CharacterizationResult {
        spec: outcome.spec,
        weights: *weights,
        summaries,
    }
}

fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use crate::exec::{ExecContext, SerialExecutor};
    use crate::runner::Campaign;
    use margins_sim::Corner;

    fn analyzed(bench: &str, core: u8, hi: u32, lo: u32) -> CharacterizationResult {
        let cfg = CampaignConfig::builder()
            .benchmarks([bench])
            .cores([CoreId::new(core)])
            .iterations(4)
            .start_voltage(Millivolts::new(hi))
            .floor_voltage(Millivolts::new(lo))
            .seed(3)
            .build()
            .unwrap();
        let out = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg)
            .run(&SerialExecutor, ExecContext::new())
            .expect("built-in executors uphold the delivery contract");
        analyze(&out, &SeverityWeights::paper())
    }

    #[test]
    fn region_kind_classification() {
        let safe = [EffectSet::new(), EffectSet::new()];
        assert_eq!(RegionKind::of_runs(safe.iter()), RegionKind::Safe);
        let unsafe_ = [EffectSet::of(Effect::Sdc), EffectSet::new()];
        assert_eq!(RegionKind::of_runs(unsafe_.iter()), RegionKind::Unsafe);
        let crash = [EffectSet::of(Effect::Sdc), EffectSet::of(Effect::Sc)];
        assert_eq!(RegionKind::of_runs(crash.iter()), RegionKind::Crash);
    }

    #[test]
    fn fully_safe_sweep_reports_floor_as_vmin() {
        let r = analyzed("namd", 4, 890, 880);
        let s = &r.summaries[0];
        assert_eq!(s.safe_vmin, Some(Millivolts::new(880)));
        assert_eq!(s.highest_crash, None);
        assert!(s.steps.iter().all(|st| st.region == RegionKind::Safe));
        assert_eq!(s.average_vmin, Some(880.0));
        assert_eq!(s.average_crash, None);
        assert_eq!(s.guardband_mv(), Some(Millivolts::new(100)));
    }

    #[test]
    fn sweep_through_vmin_produces_ordered_regions() {
        // bwaves on core 0 (sensitive): Vmin ≈ 905, crash ≈ 875.
        let r = analyzed("bwaves", 0, 920, 845);
        let s = &r.summaries[0];
        let vmin = s.safe_vmin.expect("920 must be safe").get();
        assert!(
            (890..=915).contains(&vmin),
            "core-0 bwaves Vmin out of band: {vmin}"
        );
        let crash = s.highest_crash.expect("845 reaches the crash region").get();
        assert!(crash < vmin, "crash {crash} must sit below Vmin {vmin}");
        // Severity grows (weakly) as voltage decreases through the unsafe
        // region: compare the first abnormal step against the deepest one.
        let abnormal: Vec<&StepStats> = s.abnormal_steps().collect();
        assert!(abnormal.len() >= 2);
        assert!(
            abnormal.last().unwrap().severity.value() >= abnormal.first().unwrap().severity.value(),
            "severity must not shrink with depth"
        );
        // The conservative Vmin is the max over per-iteration Vmins, so
        // the Figure 4 green line (the average) sits at or below it.
        assert!(s.average_vmin.unwrap() <= f64::from(vmin));
    }

    #[test]
    fn severity_zero_exactly_in_safe_steps() {
        let r = analyzed("bwaves", 0, 920, 860);
        let s = &r.summaries[0];
        for st in &s.steps {
            if st.region == RegionKind::Safe {
                assert_eq!(st.severity, Severity::ZERO, "{}mV", st.mv);
            } else {
                assert!(st.severity.value() > 0.0, "{}mV", st.mv);
            }
        }
    }

    #[test]
    fn robust_vs_sensitive_core_lookup() {
        let cfg = CampaignConfig::builder()
            .benchmarks(["milc"])
            .cores([CoreId::new(0), CoreId::new(4)])
            .iterations(3)
            .start_voltage(Millivolts::new(920))
            .floor_voltage(Millivolts::new(855))
            .seed(5)
            .build()
            .unwrap();
        let out = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg)
            .run(&SerialExecutor, ExecContext::new())
            .expect("built-in executors uphold the delivery contract");
        let r = analyze(&out, &SeverityWeights::paper());
        let (robust, robust_v) = r.most_robust_core("milc").unwrap();
        let (sensitive, sensitive_v) = r.most_sensitive_core("milc").unwrap();
        assert_eq!(robust, CoreId::new(4), "PMD2 cores are the robust ones");
        assert_eq!(sensitive, CoreId::new(0));
        assert!(robust_v < sensitive_v, "{robust_v} vs {sensitive_v}");
    }

    #[test]
    fn step_lookup_and_observed_union() {
        let r = analyzed("bwaves", 0, 920, 880);
        let s = &r.summaries[0];
        assert!(s.step(Millivolts::new(920)).is_some());
        assert!(s.step(Millivolts::new(921)).is_none());
        let top = s.step(Millivolts::new(920)).unwrap();
        assert!(top.observed().is_normal());
        assert_eq!(top.count(Effect::Sc), 0);
    }
}

//! Assembly of prediction datasets (Figure 6, phases 2–3).
//!
//! The §4 models consume samples whose features are the 101 PMU counters
//! of a *nominal-conditions* profiling run of the benchmark (plus, for the
//! severity model, the voltage of the characterization step) and whose
//! target is the safe Vmin or the severity value observed during offline
//! characterization.

use crate::regions::CharacterizationResult;
use crate::runner::WorkloadProfile;
use margins_sim::counters::PmuEvent;
use margins_sim::CoreId;

/// One regression sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionSample {
    /// Benchmark name (provenance, not a feature).
    pub program: String,
    /// Dataset label (provenance).
    pub dataset: String,
    /// Feature vector.
    pub features: Vec<f64>,
    /// Regression target (Vmin in mV, or severity units).
    pub target: f64,
}

/// Feature names of the severity dataset: the 101 counters plus the step
/// voltage.
#[must_use]
pub fn severity_feature_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = PmuEvent::ALL.iter().map(|e| e.label()).collect();
    names.push("STEP_VOLTAGE_MV");
    names
}

/// Feature names of the Vmin dataset: the 101 counters.
#[must_use]
pub fn vmin_feature_names() -> Vec<&'static str> {
    PmuEvent::ALL.iter().map(|e| e.label()).collect()
}

fn profile_for<'a>(
    profiles: &'a [WorkloadProfile],
    program: &str,
    dataset: &str,
) -> Option<&'a WorkloadProfile> {
    profiles
        .iter()
        .find(|p| p.name == program && p.dataset == dataset)
}

/// Builds the §4.3.1 Vmin dataset for `core`: one sample per profiled
/// benchmark whose sweep on that core produced a measurable Vmin.
///
/// Features: the 101 nominal counters. Target: the safe Vmin in mV.
#[must_use]
pub fn vmin_samples(
    result: &CharacterizationResult,
    profiles: &[WorkloadProfile],
    core: CoreId,
) -> Vec<PredictionSample> {
    let mut samples = Vec::new();
    for s in result.summaries.iter().filter(|s| s.core == core) {
        let (Some(vmin), Some(profile)) =
            (s.safe_vmin, profile_for(profiles, &s.program, &s.dataset))
        else {
            continue;
        };
        samples.push(PredictionSample {
            program: s.program.clone(),
            dataset: s.dataset.clone(),
            features: profile.counters.to_feature_vector(),
            target: f64::from(vmin.get()),
        });
    }
    samples
}

/// Builds the §4.3.2/§4.3.3 severity dataset for `core`: one sample per
/// abnormal (unsafe or crash region) voltage step of every profiled
/// benchmark's sweep on that core.
///
/// Features: the 101 nominal counters plus the step voltage. Target: the
/// severity value S_v of the step.
#[must_use]
pub fn severity_samples(
    result: &CharacterizationResult,
    profiles: &[WorkloadProfile],
    core: CoreId,
) -> Vec<PredictionSample> {
    let mut samples = Vec::new();
    for s in result.summaries.iter().filter(|s| s.core == core) {
        let Some(profile) = profile_for(profiles, &s.program, &s.dataset) else {
            continue;
        };
        let base = profile.counters.to_feature_vector();
        for step in s.abnormal_steps() {
            let mut features = base.clone();
            features.push(f64::from(step.mv));
            samples.push(PredictionSample {
                program: s.program.clone(),
                dataset: s.dataset.clone(),
                features,
                target: step.severity.value(),
            });
        }
    }
    samples
}

/// Splits samples into a dense feature matrix and target vector (the shape
/// `margins-predict` consumes).
#[must_use]
pub fn to_matrix(samples: &[PredictionSample]) -> (Vec<Vec<f64>>, Vec<f64>) {
    (
        samples.iter().map(|s| s.features.clone()).collect(),
        samples.iter().map(|s| s.target).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;
    use crate::exec::{ExecContext, SerialExecutor};
    use crate::runner::{profile, Campaign};
    use crate::severity::SeverityWeights;
    use margins_sim::counters::NUM_EVENTS;
    use margins_sim::{ChipSpec, Corner, Millivolts};

    fn small_setup() -> (CharacterizationResult, Vec<WorkloadProfile>) {
        let cfg = CampaignConfig::builder()
            .benchmarks(["bwaves", "namd"])
            .cores([CoreId::new(0)])
            .iterations(3)
            .start_voltage(Millivolts::new(915))
            .floor_voltage(Millivolts::new(865))
            .seed(9)
            .build()
            .unwrap();
        let spec = ChipSpec::new(Corner::Ttt, 0);
        let out = Campaign::new(spec, cfg.clone())
            .run(&SerialExecutor, ExecContext::new())
            .expect("built-in executors uphold the delivery contract");
        let result = crate::regions::analyze(&out, &SeverityWeights::paper());
        let profiles = profile(spec, &cfg.benchmarks, CoreId::new(0)).expect("validated names");
        (result, profiles)
    }

    #[test]
    fn feature_name_shapes() {
        assert_eq!(vmin_feature_names().len(), NUM_EVENTS);
        assert_eq!(severity_feature_names().len(), NUM_EVENTS + 1);
        assert_eq!(severity_feature_names().last(), Some(&"STEP_VOLTAGE_MV"));
    }

    #[test]
    fn vmin_samples_have_counter_features_and_mv_targets() {
        let (result, profiles) = small_setup();
        let samples = vmin_samples(&result, &profiles, CoreId::new(0));
        assert_eq!(samples.len(), 2);
        for s in &samples {
            assert_eq!(s.features.len(), NUM_EVENTS);
            assert!(
                (850.0..=920.0).contains(&s.target),
                "{}: {}",
                s.program,
                s.target
            );
        }
        // bwaves (higher stress) has the higher Vmin target.
        let get = |n: &str| samples.iter().find(|s| s.program == n).unwrap().target;
        assert!(get("bwaves") > get("namd"));
    }

    #[test]
    fn severity_samples_cover_the_abnormal_steps_only() {
        let (result, profiles) = small_setup();
        let samples = severity_samples(&result, &profiles, CoreId::new(0));
        assert!(
            !samples.is_empty(),
            "the sweep crosses bwaves' unsafe region"
        );
        for s in &samples {
            assert_eq!(s.features.len(), NUM_EVENTS + 1);
            assert!(s.target > 0.0, "abnormal steps have positive severity");
            let mv = *s.features.last().unwrap();
            assert!((860.0..=915.0).contains(&mv));
        }
    }

    #[test]
    fn matrix_conversion_shapes() {
        let (result, profiles) = small_setup();
        let samples = severity_samples(&result, &profiles, CoreId::new(0));
        let (x, y) = to_matrix(&samples);
        assert_eq!(x.len(), y.len());
        assert!(x.iter().all(|row| row.len() == NUM_EVENTS + 1));
    }

    #[test]
    fn missing_profile_skips_sample() {
        let (result, _) = small_setup();
        let samples = vmin_samples(&result, &[], CoreId::new(0));
        assert!(samples.is_empty());
    }
}

//! Integration of characterization → dataset assembly → OLS/RFE prediction
//! (the Figure 6 flow), on a reduced but real pipeline.

use voltmargin::characterize::config::{BenchmarkRef, CampaignConfig};
use voltmargin::characterize::dataset::{severity_samples, to_matrix, vmin_samples};
use voltmargin::characterize::exec::{ExecContext, ThreadPoolExecutor};
use voltmargin::characterize::regions::analyze;
use voltmargin::characterize::runner::{profile, Campaign};
use voltmargin::characterize::severity::SeverityWeights;
use voltmargin::energy::predictor::{OnlinePredictor, BUDGET_CONSERVATIVE, BUDGET_SDC_TOLERANT};
use voltmargin::predict::{
    r2_score, rmse, train_test_split, NaiveMean, RecursiveFeatureElimination,
};
use voltmargin::sim::{ChipSpec, CoreId, Corner, Millivolts};
use voltmargin::workloads::Dataset;

fn benchmarks() -> Vec<BenchmarkRef> {
    [
        "bwaves",
        "leslie3d",
        "cactusADM",
        "zeusmp",
        "milc",
        "gromacs",
        "dealII",
        "namd",
        "soplex",
        "mcf",
    ]
    .into_iter()
    .map(|name| BenchmarkRef {
        name: name.to_owned(),
        dataset: Dataset::Ref,
    })
    .collect()
}

type Features = Vec<Vec<f64>>;
type Targets = Vec<f64>;

fn pipeline(core: CoreId) -> (Features, Targets, Features, Targets) {
    let chip = ChipSpec::new(Corner::Ttt, 0);
    let benches = benchmarks();
    let config = CampaignConfig::builder()
        .benchmark_refs(benches.iter().cloned())
        .cores([core])
        .iterations(6)
        .start_voltage(Millivolts::new(935))
        .floor_voltage(Millivolts::new(845))
        .seed(0x1407)
        .build()
        .unwrap();
    let outcome = Campaign::new(chip, config)
        .run(&ThreadPoolExecutor::clamped(4), ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    let result = analyze(&outcome, &SeverityWeights::paper());
    let profiles = profile(chip, &benches, core).expect("suite benchmark names");
    let sev = severity_samples(&result, &profiles, core);
    let vmin = vmin_samples(&result, &profiles, core);
    let (sx, sy) = to_matrix(&sev);
    let (vx, vy) = to_matrix(&vmin);
    (sx, sy, vx, vy)
}

#[test]
fn severity_model_beats_the_naive_baseline() {
    let (x, y, _, _) = pipeline(CoreId::new(0));
    assert!(
        y.len() >= 25,
        "expected a meaningful sample pool, got {}",
        y.len()
    );

    let split = train_test_split(y.len(), 0.8, 99);
    let rfe = RecursiveFeatureElimination::fit(&split.train_of(&x), &split.train_of(&y), 5, 5)
        .expect("dataset is well-formed");
    let y_test = split.test_of(&y);
    let pred = rfe.predict_many(&split.test_of(&x));
    let naive = NaiveMean::fit(&split.train_of(&y));
    let model_rmse = rmse(&y_test, &pred);
    let naive_rmse = rmse(&y_test, &naive.predict_many(y_test.len()));

    assert!(
        model_rmse < naive_rmse,
        "linear model ({model_rmse:.2}) must beat naive ({naive_rmse:.2})"
    );
    let r2 = r2_score(&y_test, &pred);
    assert!(r2 > 0.3, "severity R² too low: {r2:.2}");
    assert_eq!(rfe.selected_features().len(), 5);
}

#[test]
fn severity_model_works_on_the_robust_core_too() {
    // §4.4: "the linear regression model for severity values can be
    // effective regardless the core-to-core variation."
    let (x, y, _, _) = pipeline(CoreId::new(4));
    assert!(y.len() >= 20);
    let split = train_test_split(y.len(), 0.8, 7);
    let rfe =
        RecursiveFeatureElimination::fit(&split.train_of(&x), &split.train_of(&y), 5, 5).unwrap();
    let y_test = split.test_of(&y);
    let pred = rfe.predict_many(&split.test_of(&x));
    let naive = NaiveMean::fit(&split.train_of(&y));
    assert!(
        rmse(&y_test, &pred) < rmse(&y_test, &naive.predict_many(y_test.len())),
        "model must beat naive on the robust core"
    );
}

#[test]
fn online_predictor_tracks_measured_vmin_ordering() {
    // The full §4.4/§5 online flow: train the severity model on the
    // characterization, then let the OnlinePredictor pick per-workload
    // voltages from nominal-conditions counters alone.
    let chip = ChipSpec::new(Corner::Ttt, 0);
    let core = CoreId::new(0);
    let benches = benchmarks();
    let config = CampaignConfig::builder()
        .benchmark_refs(benches.iter().cloned())
        .cores([core])
        .iterations(6)
        .start_voltage(Millivolts::new(935))
        .floor_voltage(Millivolts::new(845))
        .seed(0x1407)
        .build()
        .unwrap();
    let outcome = Campaign::new(chip, config)
        .run(&ThreadPoolExecutor::clamped(4), ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    let result = analyze(&outcome, &SeverityWeights::paper());
    let profiles = profile(chip, &benches, core).expect("suite benchmark names");
    let samples = severity_samples(&result, &profiles, core);
    let (x, y) = to_matrix(&samples);
    let model = RecursiveFeatureElimination::fit(&x, &y, 5, 5).unwrap();
    let predictor = OnlinePredictor::new(model);

    let floor = Millivolts::new(845);
    let mut checked = 0;
    let mut deviations = Vec::new();
    for p in &profiles {
        let counters = p.counters.to_feature_vector();
        let conservative = predictor
            .safe_voltage(&counters, BUDGET_CONSERVATIVE, floor)
            .expect("nominal is always predicted safe");
        let tolerant = predictor
            .safe_voltage(&counters, BUDGET_SDC_TOLERANT, floor)
            .expect("nominal is always predicted safe");
        assert!(tolerant <= conservative, "{}", p.name);
        // Compare against the measured Vmin where available.
        if let Some(vmin) = result
            .summary(&p.name, &p.dataset, core)
            .and_then(|s| s.safe_vmin)
        {
            deviations.push(f64::from(conservative.get()) - f64::from(vmin.get()));
            checked += 1;
        }
    }
    assert!(checked >= 8, "most benchmarks have a measured Vmin");
    // The conservative prediction tracks the measured Vmin to ~2 steps in
    // the mean (individual workloads may deviate more — that is exactly the
    // paper's argument for predicting severity rather than a Vmin point).
    let mean_abs = deviations.iter().map(|d| d.abs()).sum::<f64>() / deviations.len() as f64;
    assert!(
        mean_abs <= 20.0,
        "mean |prediction − Vmin| = {mean_abs:.1} mV (deviations {deviations:?})"
    );
}

#[test]
fn vmin_targets_span_the_guardband_and_are_learnable_shapes() {
    let (_, _, vx, vy) = pipeline(CoreId::new(0));
    assert_eq!(vy.len(), 10, "one Vmin sample per benchmark");
    assert_eq!(vx[0].len(), 101, "counter features only");
    // Targets live in the sensitive core's Vmin band.
    for v in &vy {
        assert!((870.0..=935.0).contains(v), "vmin sample {v}");
    }
    // The workload spread is present in the targets.
    let min = vy.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = vy.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(max - min >= 15.0, "vmin spread {min}..{max}");
}

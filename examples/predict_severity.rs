//! Severity prediction (Figures 7–8 of the paper): characterize a core,
//! profile the benchmarks' performance counters at nominal conditions,
//! train a linear regression with recursive feature elimination and
//! compare it against the naïve mean baseline.
//!
//! ```text
//! cargo run --release --example predict_severity
//! ```

use voltmargin::characterize::config::{BenchmarkRef, CampaignConfig};
use voltmargin::characterize::dataset::{severity_feature_names, severity_samples, to_matrix};
use voltmargin::characterize::exec::{ExecContext, ThreadPoolExecutor};
use voltmargin::characterize::regions::analyze;
use voltmargin::characterize::runner::{profile, Campaign};
use voltmargin::characterize::severity::SeverityWeights;
use voltmargin::predict::{
    r2_score, rmse, train_test_split, NaiveMean, RecursiveFeatureElimination,
};
use voltmargin::sim::{ChipSpec, CoreId, Corner, Millivolts};
use voltmargin::workloads::Dataset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let chip = ChipSpec::new(Corner::Ttt, 0);
    let core = CoreId::new(0); // the most sensitive core, as in Figure 7

    // A medium-sized benchmark set (the paper uses 26 programs / 40 pairs;
    // the full set is exercised by `experiments fig7`).
    let benchmarks: Vec<BenchmarkRef> = [
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
        "lbm",
        "hmmer",
    ]
    .into_iter()
    .map(|name| BenchmarkRef {
        name: name.to_owned(),
        dataset: Dataset::Ref,
    })
    .collect();

    // Phase 1: offline characterization of the unsafe region.
    let config = CampaignConfig::builder()
        .benchmark_refs(benchmarks.iter().cloned())
        .cores([core])
        .iterations(8)
        .start_voltage(Millivolts::new(935))
        .floor_voltage(Millivolts::new(845))
        .build()?;
    let outcome =
        Campaign::new(chip, config).run(&ThreadPoolExecutor::new(4)?, ExecContext::new())?;
    let result = analyze(&outcome, &SeverityWeights::paper());

    // Phase 2: profile the performance counters at nominal conditions.
    let profiles = profile(chip, &benchmarks, core)?;

    // Phase 3: assemble samples (counters + step voltage → severity).
    let samples = severity_samples(&result, &profiles, core);
    println!(
        "assembled {} severity samples from the unsafe region",
        samples.len()
    );
    let (x, y) = to_matrix(&samples);

    // Phase 4: train (80/20 split), select 5 features with RFE, evaluate.
    let split = train_test_split(y.len(), 0.8, 42);
    let rfe = RecursiveFeatureElimination::fit(&split.train_of(&x), &split.train_of(&y), 5, 5)?;
    let names = severity_feature_names();
    println!("RFE-selected features:");
    for &j in rfe.selected_features() {
        println!("  {}", names[j]);
    }

    let y_test = split.test_of(&y);
    let pred = rfe.predict_many(&split.test_of(&x));
    let naive = NaiveMean::fit(&split.train_of(&y));
    println!(
        "\nlinear model: RMSE {:.2}, R² {:.2}",
        rmse(&y_test, &pred),
        r2_score(&y_test, &pred)
    );
    println!(
        "naive baseline: RMSE {:.2}",
        rmse(&y_test, &naive.predict_many(y_test.len()))
    );
    println!("(paper, Figure 7: linear RMSE 2.8 vs naive 6.4, R² 0.92)");
    Ok(())
}

//! The §3.4 component study: why the X-Gene 2 (and its simulated twin) is
//! dominated by timing-path failures rather than SRAM failures.
//!
//! Runs the cache march tests and the ALU/FPU stress tests through the
//! characterization framework and prints where each starts failing — the
//! FPU/ALU tests fail (with SDCs) far above the cache tests.
//!
//! ```text
//! cargo run --release --example selftest_study
//! ```

use voltmargin::characterize::config::CampaignConfig;
use voltmargin::characterize::effect::Effect;
use voltmargin::characterize::exec::{ExecContext, ThreadPoolExecutor};
use voltmargin::characterize::regions::analyze;
use voltmargin::characterize::runner::Campaign;
use voltmargin::characterize::severity::SeverityWeights;
use voltmargin::sim::{ChipSpec, CoreId, Corner, Millivolts};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let chip = ChipSpec::new(Corner::Ttt, 0);
    let config = CampaignConfig::builder()
        .benchmarks([
            "selftest-fpu",
            "selftest-alu",
            "selftest-l1d",
            "selftest-l2",
        ])
        .cores([CoreId::new(4)])
        .iterations(8)
        .start_voltage(Millivolts::new(935))
        .floor_voltage(Millivolts::new(840))
        .build()?;
    let outcome =
        Campaign::new(chip, config).run(&ThreadPoolExecutor::new(4)?, ExecContext::new())?;
    let result = analyze(&outcome, &SeverityWeights::paper());

    println!("§3.4 self-test study on {chip}, core 4 at 2.4 GHz\n");
    println!(
        "{:<14}{:>10}{:>10}{:>22}",
        "test", "Vmin", "crash", "first abnormal effect"
    );
    for s in &result.summaries {
        let first_effect = s
            .abnormal_steps()
            .next()
            .map(|st| {
                let mut names: Vec<&str> = Effect::ALL
                    .into_iter()
                    .filter(|e| e.is_abnormal() && st.observed().contains(*e))
                    .map(Effect::abbreviation)
                    .collect();
                names.sort_unstable();
                names.join("+")
            })
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<14}{:>10}{:>10}{:>22}",
            s.program,
            s.safe_vmin.map_or_else(|| "-".into(), |v| v.to_string()),
            s.highest_crash
                .map_or_else(|| "-".into(), |v| v.to_string()),
            first_effect,
        );
    }
    println!(
        "\nReading: the FPU/ALU tests lose their margin first — their faults are\n\
         datapath timing failures, surfacing as output corruptions (SDC) or the\n\
         traps they trigger (AC) — while the cache march tests keep running\n\
          ~20 mV lower: the bit-cells are not the weak link on this design (§3.4)."
    );
    Ok(())
}

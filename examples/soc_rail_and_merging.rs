//! Two framework capabilities beyond the paper's main flow:
//!
//! 1. **Multi-campaign merging** — the paper ran its ten campaigns over six
//!    months and aggregated them; here two independently seeded campaigns
//!    merge into one analysis with the combined iteration count.
//! 2. **PCP/SoC-rail characterization** — sweeping the chip's second rail
//!    (§2.1) exposes the Itanium-style corrected-errors-first band the
//!    paper contrasts against (§3.4, §4.4's "ECC proxy").
//!
//! ```text
//! cargo run --release --example soc_rail_and_merging
//! ```

use voltmargin::characterize::config::{CampaignConfig, SweptRail};
use voltmargin::characterize::exec::{ExecContext, ThreadPoolExecutor};
use voltmargin::characterize::regions::analyze;
use voltmargin::characterize::runner::{Campaign, CampaignOutcome};
use voltmargin::characterize::severity::SeverityWeights;
use voltmargin::sim::{ChipSpec, CoreId, Corner, Millivolts};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let chip = ChipSpec::new(Corner::Ttt, 0);

    // --- Part 1: merge two campaigns into one analysis. -----------------
    let base = CampaignConfig::builder()
        .benchmarks(["milc"])
        .cores([CoreId::new(4)])
        .iterations(4)
        .start_voltage(Millivolts::new(905))
        .floor_voltage(Millivolts::new(860));
    let pool = ThreadPoolExecutor::new(4)?;
    let first =
        Campaign::new(chip, base.clone().seed(101).build()?).run(&pool, ExecContext::new())?;
    let second = Campaign::new(chip, base.seed(202).build()?).run(&pool, ExecContext::new())?;
    let merged = CampaignOutcome::merge([first, second])?;
    println!(
        "merged campaign: {} runs, {} iterations per voltage step",
        merged.runs.len(),
        merged.config.iterations
    );
    let result = analyze(&merged, &SeverityWeights::paper());
    let s = result
        .summary("milc", "ref", CoreId::new(4))
        .expect("characterized");
    println!(
        "milc on core4 (8 merged iterations): vmin={}  crash={}\n",
        s.safe_vmin.map_or_else(|| "-".into(), |v| v.to_string()),
        s.highest_crash
            .map_or_else(|| "-".into(), |v| v.to_string()),
    );

    // --- Part 2: the SoC rail. ------------------------------------------
    let config = CampaignConfig::builder()
        .benchmarks(["mcf"])
        .cores([CoreId::new(4)])
        .iterations(4)
        .rail(SweptRail::PcpSoc)
        .start_voltage(Millivolts::new(880))
        .floor_voltage(Millivolts::new(715))
        .seed(7)
        .build()?;
    eprintln!("sweeping the PCP/SoC rail with mcf (PMD rail stays at nominal)…");
    let outcome = Campaign::new(chip, config).run(&pool, ExecContext::new())?;
    let result = analyze(&outcome, &SeverityWeights::paper());
    let s = result
        .summary("mcf", "ref", CoreId::new(4))
        .expect("characterized");
    println!("SoC-rail sweep of mcf:");
    for st in s.abnormal_steps() {
        println!(
            "  {:>4} mV  severity {:>5.1}  {:<10}  {}",
            st.mv,
            st.severity.value(),
            st.observed().to_string(),
            st.severity.mitigation(st.observed()),
        );
    }
    println!(
        "\nNote the wide corrected-errors-only band (severity 1.0): on this rail\n\
         the L3's SECDED is the first line of defence — the behaviour Bacha &\n\
         Teodorescu exploited on Itanium, recovered here for the memory domain."
    );
    Ok(())
}

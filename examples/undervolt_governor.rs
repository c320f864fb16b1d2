//! Predictor-guided undervolting with task scheduling (§5 of the paper):
//! characterize a chip, build the safe-voltage table, schedule an
//! eight-task workload robust-cores-first, and walk the Figure 9
//! energy/performance staircase.
//!
//! ```text
//! cargo run --release --example undervolt_governor
//! ```

use voltmargin::characterize::config::CampaignConfig;
use voltmargin::characterize::exec::{ExecContext, ThreadPoolExecutor};
use voltmargin::characterize::regions::analyze;
use voltmargin::characterize::runner::Campaign;
use voltmargin::characterize::severity::SeverityWeights;
use voltmargin::energy::schedule::{binding_vmin, Scheduler};
use voltmargin::energy::tradeoff::pareto_curve;
use voltmargin::energy::{Governor, Policy, VminTable};
use voltmargin::sim::{ChipSpec, CoreId, Corner, Millivolts};

const WORKLOAD: [&str; 8] = [
    "bwaves",
    "cactusADM",
    "dealII",
    "gromacs",
    "leslie3d",
    "mcf",
    "milc",
    "namd",
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Characterize the eight benchmarks on all eight cores (reduced
    // iteration count to keep the example snappy).
    let chip = ChipSpec::new(Corner::Ttt, 0);
    let config = CampaignConfig::builder()
        .benchmarks(WORKLOAD)
        .cores(CoreId::all())
        .iterations(5)
        .start_voltage(Millivolts::new(935))
        .floor_voltage(Millivolts::new(845))
        .build()?;
    eprintln!("characterizing {chip} (this takes a few seconds)…");
    let outcome =
        Campaign::new(chip, config).run(&ThreadPoolExecutor::new(8)?, ExecContext::new())?;
    let result = analyze(&outcome, &SeverityWeights::paper());
    let table = VminTable::from_characterization(&result);
    println!("safe-voltage table: {} entries", table.len());

    // Robust-first scheduling vs a naive in-order placement.
    let workloads: Vec<String> = WORKLOAD.iter().map(|s| (*s).to_owned()).collect();
    let scheduler = Scheduler::new();
    let naive = scheduler.assign_in_order(&workloads);
    let smart = scheduler
        .assign_robust_first(&workloads, &table)
        .expect("all workloads characterized");
    println!("\nscheduling comparison (shared rail = max Vmin over tasks):");
    if let (Some(nv), Some(sv)) = (binding_vmin(&naive, &table), binding_vmin(&smart, &table)) {
        println!("  in-order placement : rail must stay at {nv}");
        println!("  robust-first       : rail can drop to  {sv}");
    }

    // The Figure 9 staircase for the robust-first schedule.
    println!("\nenergy/performance staircase:");
    for p in pareto_curve(&smart, &table).expect("table is complete") {
        println!(
            "  {:<24} {:>6}  power {:>5.1}%  perf {:>5.1}%  savings {:>5.1}%",
            p.label,
            p.voltage.to_string(),
            p.relative_power * 100.0,
            p.relative_performance * 100.0,
            p.energy_savings * 100.0,
        );
    }

    // Let the governor pick operating points under different budgets.
    println!("\ngovernor decisions:");
    for (label, loss) in [
        ("no perf loss", 0.0),
        ("≤25% loss", 0.25),
        ("≤50% loss", 0.5),
    ] {
        let governor = Governor::new(
            table.clone(),
            Policy {
                guardband_steps: 1,
                max_performance_loss: loss,
            },
        );
        if let Some(d) = governor.decide(&smart) {
            println!(
                "  {label:<14} → {} / {:?} GHz pattern, savings {:.1}%",
                d.voltage,
                d.freqs.map(|f| f.get() as f64 / 1000.0),
                d.energy_savings * 100.0
            );
        }
    }
    Ok(())
}

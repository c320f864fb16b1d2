//! Integration of characterization → VminTable → scheduler/governor (§5):
//! the measured Figure 9 behaviour, end to end.

use voltmargin::characterize::config::CampaignConfig;
use voltmargin::characterize::exec::{ExecContext, ThreadPoolExecutor};
use voltmargin::characterize::regions::analyze;
use voltmargin::characterize::runner::Campaign;
use voltmargin::characterize::severity::SeverityWeights;
use voltmargin::energy::schedule::{binding_vmin, Assignment, Scheduler};
use voltmargin::energy::tradeoff::{pareto_curve, DIVIDED_SAFE};
use voltmargin::energy::{Governor, Policy, VminTable};
use voltmargin::sim::{ChipSpec, CoreId, Corner, Millivolts};

fn measured_table() -> VminTable {
    // The characterization is expensive; share it across the tests in this
    // binary.
    static TABLE: std::sync::OnceLock<VminTable> = std::sync::OnceLock::new();
    TABLE.get_or_init(build_table).clone()
}

fn build_table() -> VminTable {
    let config = CampaignConfig::builder()
        .benchmarks([
            "bwaves", "leslie3d", "milc", "namd", "mcf", "gromacs", "dealII", "soplex",
        ])
        .cores(CoreId::all())
        .iterations(3)
        .start_voltage(Millivolts::new(935))
        .floor_voltage(Millivolts::new(850))
        .seed(0x90_0D)
        .build()
        .unwrap();
    let outcome = Campaign::new(ChipSpec::new(Corner::Ttt, 0), config)
        .run(&ThreadPoolExecutor::clamped(8), ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    VminTable::from_characterization(&analyze(&outcome, &SeverityWeights::paper()))
}

#[test]
fn measured_staircase_matches_the_paper_shape() {
    let table = measured_table();
    // A couple of (benchmark, core) pairs may lack a measurable Vmin when
    // an iteration misbehaves at the sweep start; near-complete is enough.
    assert!(
        table.len() >= 60,
        "8 benchmarks × 8 cores, got {}",
        table.len()
    );

    // The paper's in-order multiprogram workload.
    let assignments: Vec<Assignment> = [
        "bwaves", "leslie3d", "milc", "namd", "mcf", "gromacs", "dealII", "soplex",
    ]
    .iter()
    .enumerate()
    .map(|(i, w)| Assignment {
        core: CoreId::new(i as u8),
        workload: (*w).to_owned(),
    })
    .collect();

    let points = pareto_curve(&assignments, &table).expect("complete table");
    assert_eq!(points.len(), 6, "nominal + 4 full-speed levels + divided");

    // Voltage descends, savings ascend, performance steps down by 12.5%.
    for w in points.windows(2) {
        assert!(w[1].voltage <= w[0].voltage);
        assert!(w[1].energy_savings >= w[0].energy_savings - 1e-12);
        assert!(w[1].relative_performance <= w[0].relative_performance);
    }
    assert_eq!(points.last().unwrap().voltage, DIVIDED_SAFE);
    let final_savings = points.last().unwrap().energy_savings;
    assert!(
        (final_savings - 0.699).abs() < 0.002,
        "divided floor savings {final_savings}"
    );

    // The no-loss point sits in the measured Vmin band (≈900–930 mV on the
    // sensitive PMDs) and saves ≥10%.
    let no_loss = &points[1];
    assert!(no_loss.relative_performance >= 1.0);
    assert!(
        (890..=935).contains(&no_loss.voltage.get()),
        "{}",
        no_loss.voltage
    );
    assert!(no_loss.energy_savings >= 0.08);

    // The paper's ~25% loss point saves more than the no-loss point by a
    // wide margin (38.8% vs 12.8% in the paper).
    let quarter = points
        .iter()
        .filter(|p| p.relative_performance >= 0.75 - 1e-9)
        .map(|p| p.energy_savings)
        .fold(0.0f64, f64::max);
    assert!(quarter > no_loss.energy_savings + 0.1);
}

#[test]
fn robust_first_scheduling_never_hurts() {
    let table = measured_table();
    let workloads: Vec<String> = ["bwaves", "leslie3d", "milc", "namd"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let scheduler = Scheduler::new();
    let smart = scheduler
        .assign_robust_first(&workloads, &table)
        .expect("complete table");
    let naive = scheduler.assign_in_order(&workloads);
    let (Some(smart_v), Some(naive_v)) =
        (binding_vmin(&smart, &table), binding_vmin(&naive, &table))
    else {
        panic!("both schedules are resolvable");
    };
    assert!(
        smart_v <= naive_v,
        "robust-first ({smart_v}) must not bind higher than in-order ({naive_v})"
    );
}

#[test]
fn governor_respects_performance_budgets() {
    let table = measured_table();
    let assignments: Vec<Assignment> = ["bwaves", "milc", "namd", "mcf"]
        .iter()
        .enumerate()
        .map(|(i, w)| Assignment {
            core: CoreId::new((i * 2) as u8),
            workload: (*w).to_owned(),
        })
        .collect();
    let mut last_savings = -1.0;
    for loss in [0.0, 0.25, 0.5] {
        let governor = Governor::new(
            table.clone(),
            Policy {
                guardband_steps: 0,
                max_performance_loss: loss,
            },
        );
        let d = governor.decide(&assignments).expect("complete table");
        assert!(
            d.relative_performance + 1e-9 >= 1.0 - loss,
            "budget violated at loss {loss}"
        );
        assert!(
            d.energy_savings >= last_savings - 1e-9,
            "looser budgets must not reduce savings"
        );
        last_savings = d.energy_savings;
    }
}

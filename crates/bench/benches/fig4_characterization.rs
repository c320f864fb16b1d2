//! Benchmarks of the Figure 3/4/5 machinery: single benchmark runs on the
//! simulated machine and a miniature characterization sweep.

mod common;

use common::{bench, bench_with_setup};
use margins_core::config::CampaignConfig;
use margins_core::exec::{ExecContext, SerialExecutor};
use margins_core::runner::Campaign;
use margins_sim::{ChipSpec, CoreId, Corner, Millivolts, System, SystemConfig};
use margins_workloads::{suite, Dataset};

fn bench_single_runs() {
    for name in ["bwaves", "mcf", "namd"] {
        let program = suite::by_name(name, Dataset::Ref).expect("kernel exists");
        bench_with_setup(
            &format!("fig4/single_run/{name}@nominal"),
            || System::new(ChipSpec::new(Corner::Ttt, 0), SystemConfig::default()),
            |mut sys| sys.run(program.as_ref(), CoreId::new(4), 1).unwrap(),
        );
        bench_with_setup(
            &format!("fig4/single_run/{name}@885mV"),
            || {
                let mut sys = System::new(ChipSpec::new(Corner::Ttt, 0), SystemConfig::default());
                sys.slimpro_mut()
                    .set_pmd_voltage(Millivolts::new(885))
                    .unwrap();
                sys
            },
            |mut sys| sys.run(program.as_ref(), CoreId::new(4), 1).unwrap(),
        );
    }
}

fn bench_mini_sweep() {
    let config = CampaignConfig::builder()
        .benchmarks(["namd"])
        .cores([CoreId::new(4)])
        .iterations(2)
        .start_voltage(Millivolts::new(890))
        .floor_voltage(Millivolts::new(870))
        .seed(1)
        .build()
        .unwrap();
    let campaign = Campaign::new(ChipSpec::new(Corner::Ttt, 0), config);
    bench("fig4/mini_sweep(namd,core4,5steps,2iters)", || {
        campaign
            .run(&SerialExecutor, ExecContext::new())
            .expect("built-in executors uphold the delivery contract")
    });
}

fn main() {
    bench_single_runs();
    bench_mini_sweep();
}

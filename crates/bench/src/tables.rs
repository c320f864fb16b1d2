//! Tables 2–4: configuration, effect taxonomy and severity weights.

use margins_core::effect::Effect;
use margins_core::severity::SeverityWeights;
use margins_sim::topology::ChipDescription;
use std::fmt::Write as _;

/// Table 2 — the basic parameters of the simulated machine.
#[must_use]
pub fn table2_report() -> String {
    let d = ChipDescription::x_gene_2();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2 — basic parameters of the simulated APM X-Gene 2"
    );
    let rows = [
        ("ISA", d.isa.to_owned()),
        ("Pipeline", d.pipeline.to_owned()),
        ("CPU", format!("{} cores", d.cores)),
        (
            "Core clock",
            format!("{:.1} GHz", f64::from(d.core_clock_mhz) / 1000.0),
        ),
        ("L1 Instr. cache", d.l1i.to_owned()),
        ("L1 Data cache", d.l1d.to_owned()),
        ("L2 cache", d.l2.to_owned()),
        ("L3 cache", d.l3.to_owned()),
        ("Technology", format!("{} nm", d.technology_nm)),
        ("Max TDP", format!("{:.0} W", d.max_tdp_watts)),
    ];
    for (k, v) in rows {
        let _ = writeln!(out, "  {k:<18}{v}");
    }
    out
}

/// Table 3 — the effects classification, plus a live demonstration: a tiny
/// sweep that actually produces (at least) NO, SDC and SC runs.
#[must_use]
pub fn table3_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3 — effects classification");
    for e in Effect::ALL {
        let _ = writeln!(out, "  {:<4} {}", e.abbreviation(), e.description());
    }

    // Live demonstration on a fast sweep.
    use margins_core::config::CampaignConfig;
    use margins_core::exec::{ExecContext, SerialExecutor};
    use margins_core::runner::Campaign;
    use margins_sim::{ChipSpec, CoreId, Corner, Millivolts};
    let cfg = CampaignConfig::builder()
        .benchmarks(["bwaves"])
        .cores([CoreId::new(0)])
        .iterations(4)
        .start_voltage(Millivolts::new(910))
        .floor_voltage(Millivolts::new(850))
        .seed(0x7AB1E3)
        .build()
        .expect("table-3 demo configuration is valid");
    let outcome = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg)
        .run(&SerialExecutor, ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    let mut counts = std::collections::BTreeMap::new();
    for r in &outcome.runs {
        if r.effects.is_normal() {
            *counts.entry("NO".to_owned()).or_insert(0usize) += 1;
        }
        for e in r.effects.iter() {
            *counts.entry(e.abbreviation().to_owned()).or_insert(0usize) += 1;
        }
    }
    let _ = writeln!(
        out,
        "\n  live demonstration (bwaves on TTT core0, 910→850 mV, 4 iterations):"
    );
    for (effect, n) in counts {
        let _ = writeln!(out, "    {effect:<4} observed in {n} runs");
    }
    out
}

/// Table 4 — the severity weights.
#[must_use]
pub fn table4_report() -> String {
    let w = SeverityWeights::paper();
    let mut out = String::new();
    let _ = writeln!(out, "Table 4 — severity weights used in the experiments");
    let rows = [
        ("W_SC", w.sc),
        ("W_AC", w.ac),
        ("W_SDC", w.sdc),
        ("W_UE", w.ue),
        ("W_CE", w.ce),
        ("W_NO", 0.0),
    ];
    for (k, v) in rows {
        let _ = writeln!(out, "  {k:<6}{v:>4}");
    }
    out
}

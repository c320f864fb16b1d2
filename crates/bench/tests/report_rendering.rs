//! Rendering tests of the experiment harness library: the static tables
//! plus quick-scale smoke coverage of the figure reports.

use margins_bench::{extensions, fig34, fig5, tables, Scale};
use margins_sim::{ChipSpec, CoreId, Corner};

#[test]
fn table2_renders_the_paper_configuration() {
    let t = tables::table2_report();
    for needle in [
        "ARMv8",
        "8 cores",
        "2.4 GHz",
        "32KB per core (Parity Protected)",
        "256KB per PMD (ECC Protected)",
        "8MB (ECC Protected)",
        "28 nm",
        "35 W",
    ] {
        assert!(t.contains(needle), "table2 missing {needle:?}:\n{t}");
    }
}

#[test]
fn table4_renders_the_severity_weights() {
    let t = tables::table4_report();
    for needle in ["W_SC", "16", "W_AC", "W_SDC", "W_CE", "W_NO"] {
        assert!(t.contains(needle), "table4 missing {needle:?}");
    }
}

#[test]
fn fig_reports_render_from_a_tiny_characterization() {
    // One small chip characterization drives fig3/fig4/fig5 rendering.
    let scale = Scale {
        iterations: 2,
        threads: 4,
        fig4_benchmarks: vec!["bwaves", "mcf"],
        fig4_cores: vec![CoreId::new(0), CoreId::new(4)],
        full_prediction_suite: false,
    };
    let chars = vec![fig34::characterize_chip(
        ChipSpec::new(Corner::Ttt, 0),
        &scale,
        &mut [],
    )];

    let f3 = fig34::fig3_report(&chars, &scale);
    assert!(f3.contains("bwaves") && f3.contains("mcf"));
    assert!(f3.contains("TTT"));

    let f4 = fig34::fig4_report(&chars, &scale);
    assert!(f4.contains("core0") && f4.contains("core4"));
    assert!(f4.contains("vmin="));

    let stats = fig34::fig4_stats(&chars, &scale);
    assert_eq!(stats.mean_vmin_per_chip.len(), 1);
    assert!(stats.mean_vmin_per_chip[0].1 > 840.0);

    let f5 = fig5::fig5_report(&chars[0], "bwaves");
    assert!(f5.contains("core0"));
    let series = fig5::severity_series(&chars[0], "bwaves", CoreId::new(0));
    assert!(!series.is_empty());
    assert!(series.windows(2).all(|w| w[0].0 > w[1].0), "descending mV");

    // Unknown benchmark degrades gracefully.
    let missing = fig5::fig5_report(&chars[0], "doom");
    assert!(missing.contains("no data"));
}

#[test]
fn sec6_report_lists_all_variants() {
    let scale = Scale {
        iterations: 2,
        threads: 4,
        fig4_benchmarks: vec!["bwaves"],
        fig4_cores: vec![CoreId::new(0)],
        full_prediction_suite: false,
    };
    let variants = extensions::sec6_ablation(ChipSpec::new(Corner::Ttt, 0), "bwaves", &scale);
    assert_eq!(variants.len(), 4);
    let report = extensions::sec6_report(&variants, "bwaves");
    for needle in ["stock", "detectors", "stronger ECC", "adaptive"] {
        assert!(report.contains(needle), "sec6 missing {needle:?}");
    }
}

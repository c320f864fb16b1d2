//! The experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p margins-bench --bin experiments -- \
//!     [--quick] [--trace-dir DIR] [--metrics-out FILE] <id>...
//! cargo run --release -p margins-bench --bin experiments -- all
//! ```
//!
//! With `--trace-dir`, the shared figure-3/4 characterization writes one
//! deterministic JSONL telemetry stream per chip into the directory, plus
//! a `fig34-<chip>-summary.md` analytics report per chip. With
//! `--metrics-out`, the combined metrics of all three campaigns are
//! written as an OpenMetrics text exposition.
//!
//! Experiment ids: `table2 table3 table4 fig3 fig4 fig5 sec3-2 sec3-4
//! case1 fig7 fig8 fig9 headline sec6 socrail search all`.

use margins_bench::{
    chips, energy_exp, extensions, fig34, fig5, prediction, regimes, search_exp, tables, Scale,
};
use margins_sim::CoreId;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut metrics_out: Option<std::path::PathBuf> = None;
    let mut ids: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--trace-dir" => match it.next() {
                Some(dir) => trace_dir = Some(std::path::PathBuf::from(dir)),
                None => {
                    eprintln!("--trace-dir needs a directory");
                    std::process::exit(2);
                }
            },
            "--metrics-out" => match it.next() {
                Some(path) => metrics_out = Some(std::path::PathBuf::from(path)),
                None => {
                    eprintln!("--metrics-out needs a file");
                    std::process::exit(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
            other => ids.push(other),
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: experiments [--quick] [--trace-dir DIR] [--metrics-out FILE] <id>... \n  ids: table2 table3 table4 fig3 fig4 fig5 sec3-2 sec3-4 case1 fig7 fig8 fig9 headline sec6 socrail search all"
        );
        std::process::exit(2);
    }
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let all = ids.contains(&"all");
    let want = |id: &str| all || ids.contains(&id);

    println!(
        "# voltmargin experiments ({} scale)\n",
        if quick { "quick" } else { "full" }
    );

    if want("table2") {
        section("table2", tables::table2_report);
    }
    if want("table3") {
        section("table3", tables::table3_report);
    }
    if want("table4") {
        section("table4", tables::table4_report);
    }

    // Figures 3/4/5 + fig9/headline share one multi-chip characterization.
    let needs_chars = ["fig3", "fig4", "fig5", "fig9", "headline"]
        .iter()
        .any(|id| want(id));
    let characterizations = if needs_chars {
        let t0 = Instant::now();
        if let Some(dir) = &trace_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("--trace-dir {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
        let mut metrics = metrics_out
            .as_ref()
            .map(|_| margins_trace::MetricsRegistry::new());
        let c = match fig34::characterize_all(&scale, trace_dir.as_deref(), metrics.as_mut()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("--trace-dir: {e}");
                std::process::exit(1);
            }
        };
        if let Some(dir) = &trace_dir {
            eprintln!("[trace streams and summaries written to {}]", dir.display());
        }
        if let (Some(path), Some(registry)) = (&metrics_out, &metrics) {
            if let Err(e) = std::fs::write(path, registry.to_openmetrics()) {
                eprintln!("--metrics-out {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("[metrics exposition written to {}]", path.display());
        }
        eprintln!(
            "[characterized 3 chips in {:.1}s]",
            t0.elapsed().as_secs_f64()
        );
        Some(c)
    } else {
        None
    };

    if let Some(chars) = &characterizations {
        if want("fig3") {
            section("fig3", || fig34::fig3_report(chars, &scale));
        }
        if want("fig4") {
            section("fig4", || {
                let mut s = fig34::fig4_report(chars, &scale);
                let stats = fig34::fig4_stats(chars, &scale);
                s.push_str("\nSummary statistics:\n");
                for (chip, mean) in &stats.mean_vmin_per_chip {
                    s.push_str(&format!("  {chip}: mean Vmin {mean:.1} mV\n"));
                }
                for (chip, pmd) in &stats.most_robust_pmd {
                    s.push_str(&format!("  {chip}: most robust PMD{pmd} (paper: PMD2)\n"));
                }
                s.push_str(&format!(
                    "  TTT robust-core workload spread: {:.0} mV (paper: ~25 mV)\n",
                    stats.ttt_workload_spread_mv
                ));
                s
            });
        }
        if want("fig5") {
            section("fig5", || fig5::fig5_report(&chars[0], "bwaves"));
        }
        if want("fig9") {
            section("fig9", || energy_exp::fig9_report(&chars[0]));
        }
        if want("headline") {
            section("headline", || energy_exp::headline_report(&chars[0]));
        }
    }

    if want("sec3-2") {
        section("sec3-2", || {
            let r = regimes::divided_regime(chips::ttt(), &scale);
            regimes::sec32_report(&r, &scale)
        });
    }
    if want("sec3-4") {
        section("sec3-4", || {
            let r = regimes::selftest_characterization(
                chips::ttt(),
                CoreId::new(4),
                scale.iterations,
                scale.threads,
            );
            regimes::sec34_report(&r)
        });
    }

    if want("sec6") {
        section("sec6", || {
            let variants = extensions::sec6_ablation(chips::ttt(), "bwaves", &scale);
            extensions::sec6_report(&variants, "bwaves")
        });
    }
    if want("socrail") {
        section("socrail", || {
            let r = extensions::soc_rail_characterization(chips::ttt(), &scale);
            extensions::soc_rail_report(&r)
        });
    }
    if want("search") {
        section("search", || {
            let runs = search_exp::study(chips::ttt(), &scale);
            search_exp::report(&runs)
        });
    }

    if want("case1") {
        section("case1", || {
            let o = prediction::vmin_prediction(chips::ttt(), CoreId::new(0), &scale);
            prediction::report(
                &o,
                "§4.3.1 — Vmin prediction, most sensitive core",
                "RMSE ≈ 5 mV, R² ≈ 0; naive equally efficient",
            )
        });
    }
    if want("fig7") {
        section("fig7", || {
            let o = prediction::severity_prediction(chips::ttt(), CoreId::new(0), &scale);
            prediction::report(
                &o,
                "Figure 7 — severity prediction, most sensitive core",
                "RMSE 2.8 vs naive 6.4, R² = 0.92",
            )
        });
    }
    if want("fig8") {
        section("fig8", || {
            let o = prediction::severity_prediction(chips::ttt(), CoreId::new(4), &scale);
            prediction::report(
                &o,
                "Figure 8 — severity prediction, most robust core",
                "RMSE 2.65 vs naive 6.9, R² = 0.91",
            )
        });
    }
}

fn section(id: &str, f: impl FnOnce() -> String) {
    let t0 = Instant::now();
    let body = f();
    println!("## {id}\n");
    println!("{body}");
    eprintln!("[{id} done in {:.1}s]", t0.elapsed().as_secs_f64());
}

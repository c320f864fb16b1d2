//! The Figure 9 staircase: progressively dropping the weakest PMDs to
//! 1.2 GHz unlocks deeper shared-rail undervolting.

use crate::model::{energy_savings, relative_performance, relative_power};
use crate::schedule::Assignment;
use crate::vmin::VminTable;
use margins_sim::freq::MAX_FREQ;
use margins_sim::topology::NUM_PMDS;
use margins_sim::volt::PMD_NOMINAL;
use margins_sim::{Megahertz, Millivolts, PmdId};

/// The divided-regime safe voltage: 760 mV on every core (§3.2).
pub const DIVIDED_SAFE: Millivolts = Millivolts::new(760);

/// One point of the energy/performance staircase.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffPoint {
    /// Human-readable description.
    pub label: String,
    /// Shared-rail voltage.
    pub voltage: Millivolts,
    /// Per-PMD frequency.
    pub freqs: [Megahertz; NUM_PMDS],
    /// Power relative to nominal V/F.
    pub relative_power: f64,
    /// Throughput relative to all-full-speed.
    pub relative_performance: f64,
    /// `1 − relative_power`.
    pub energy_savings: f64,
}

/// Builds the Figure 9 Pareto staircase for a set of assignments.
///
/// Point 0 is nominal (980 mV, all PMDs full speed). Point 1 undervolts to
/// the binding Vmin with no performance loss. Each further point drops the
/// currently *binding* PMD (the one whose worst workload pins the rail) to
/// 1.2 GHz — whose divided regime is safe at 760 mV — and re-tightens the
/// rail. Returns `None` when the table lacks a Vmin for some assignment.
#[must_use]
pub fn pareto_curve(assignments: &[Assignment], table: &VminTable) -> Option<Vec<TradeoffPoint>> {
    // Per-PMD full-speed constraint: max Vmin over its assigned workloads.
    let mut pmd_constraint: [Option<Millivolts>; NUM_PMDS] = [None; NUM_PMDS];
    for a in assignments {
        let v = table.get(a.core, &a.workload)?;
        let slot = &mut pmd_constraint[a.core.pmd().index()];
        *slot = Some(slot.map_or(v, |prev| prev.max(v)));
    }

    let mut full_speed: Vec<PmdId> = PmdId::all()
        .filter(|p| pmd_constraint[p.index()].is_some())
        .collect();
    let idle: Vec<PmdId> = PmdId::all()
        .filter(|p| pmd_constraint[p.index()].is_none())
        .collect();

    let freqs_for = |full: &[PmdId]| {
        let mut f = [Megahertz::new(1200); NUM_PMDS];
        for p in full {
            f[p.index()] = MAX_FREQ;
        }
        // PMDs with nothing scheduled idle at the bottom clock; they cost
        // performance nothing in the multiprogram metric but we keep the
        // standard denominator of Figure 9 (all four PMDs).
        for p in &idle {
            f[p.index()] = Megahertz::new(300);
        }
        f
    };

    let point = |label: String, voltage: Millivolts, full: &[PmdId]| {
        let freqs = freqs_for(full);
        // Power/performance are normalized over the *loaded* PMDs, like the
        // paper's Figure 9 (all four loaded there); idle PMDs are parked and
        // excluded from both numerator and denominator.
        let loaded: Vec<Megahertz> = PmdId::all()
            .filter(|p| pmd_constraint[p.index()].is_some())
            .map(|p| freqs[p.index()])
            .collect();
        let p = relative_power(voltage, &loaded);
        TradeoffPoint {
            label,
            voltage,
            freqs,
            relative_power: p,
            relative_performance: relative_performance(&loaded),
            energy_savings: energy_savings(p),
        }
    };

    let binding = |full: &[PmdId]| -> Millivolts {
        full.iter()
            .filter_map(|p| pmd_constraint[p.index()])
            .max()
            .unwrap_or(DIVIDED_SAFE)
            .max(DIVIDED_SAFE)
    };

    let mut points = Vec::with_capacity(full_speed.len() + 2);
    points.push(point("nominal".into(), PMD_NOMINAL, &full_speed));
    loop {
        let v = binding(&full_speed);
        let label = if full_speed.is_empty() {
            "all PMDs at 1.2GHz".to_owned()
        } else {
            format!("{} PMD(s) at 2.4GHz", full_speed.len())
        };
        points.push(point(label, v, &full_speed));
        // Drop the binding PMD (largest constraint) if any remain.
        let Some((k, _)) = full_speed
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| pmd_constraint[p.index()])
        else {
            break;
        };
        full_speed.remove(k);
    }
    Some(points)
}

/// The §6 "finer-grained voltage domains" counterfactual: the savings
/// available if every PMD had its own rail (each pinned at its own binding
/// Vmin) instead of sharing one rail pinned by the weakest PMD.
///
/// "Our characterization study shows that the coarse-grained voltage
/// domains design of X-Gene 2 … reduces the potential of energy savings
/// since the voltage value of the domain is determined by its weakest
/// core. If each PMD was designed to operate on a separate voltage domain
/// … more aggressive voltage scaling (and energy savings) would have been
/// possible." (§6)
///
/// Returns `(shared-rail point, per-PMD-rails point)` at full speed, or
/// `None` when the table lacks a Vmin for some assignment.
#[must_use]
pub fn per_pmd_rails_comparison(
    assignments: &[Assignment],
    table: &VminTable,
) -> Option<(TradeoffPoint, TradeoffPoint)> {
    let mut pmd_constraint: [Option<Millivolts>; NUM_PMDS] = [None; NUM_PMDS];
    for a in assignments {
        let v = table.get(a.core, &a.workload)?;
        let slot = &mut pmd_constraint[a.core.pmd().index()];
        *slot = Some(slot.map_or(v, |prev| prev.max(v)));
    }
    let loaded: Vec<Millivolts> = pmd_constraint.iter().flatten().copied().collect();
    if loaded.is_empty() {
        return None;
    }

    let shared_v = *loaded.iter().max()?;
    let full = vec![MAX_FREQ; loaded.len()];
    let shared_power = relative_power(shared_v, &full);
    let shared = TradeoffPoint {
        label: "shared rail (stock)".into(),
        voltage: shared_v,
        freqs: [MAX_FREQ; NUM_PMDS],
        relative_power: shared_power,
        relative_performance: 1.0,
        energy_savings: energy_savings(shared_power),
    };

    // Per-PMD rails: each loaded PMD at its own binding Vmin.
    let per_pmd_power = loaded
        .iter()
        .map(|v| relative_power(*v, &[MAX_FREQ]))
        .sum::<f64>()
        / loaded.len() as f64;
    let per_pmd = TradeoffPoint {
        label: "per-PMD rails (§6)".into(),
        voltage: shared_v, // the worst rail still sits here
        freqs: [MAX_FREQ; NUM_PMDS],
        relative_power: per_pmd_power,
        relative_performance: 1.0,
        energy_savings: energy_savings(per_pmd_power),
    };
    Some((shared, per_pmd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use margins_sim::CoreId;

    /// A table shaped like the paper's Figure 9 workload: eight benchmarks
    /// on eight cores with per-PMD worst constraints 915/900/885/875.
    fn fig9_table() -> (Vec<Assignment>, VminTable) {
        let mut t = VminTable::new();
        let data = [
            (0u8, "leslie3d", 915u32),
            (1, "bwaves", 910),
            (2, "cactusADM", 900),
            (3, "milc", 890),
            (4, "dealII", 870),
            (5, "gromacs", 875),
            (6, "namd", 885),
            (7, "mcf", 865),
        ];
        let mut assignments = Vec::new();
        for (core, wl, v) in data {
            t.insert(CoreId::new(core), wl, Millivolts::new(v));
            assignments.push(Assignment {
                core: CoreId::new(core),
                workload: wl.to_owned(),
            });
        }
        (assignments, t)
    }

    #[test]
    fn staircase_shape_matches_figure9() {
        let (assignments, table) = fig9_table();
        let points = pareto_curve(&assignments, &table).unwrap();
        // nominal + 4 full-speed levels + all-divided = 6 points.
        assert_eq!(points.len(), 6);
        // Per-PMD constraints: PMD0=915, PMD1=900, PMD2=875, PMD3=885 —
        // the staircase voltages are exactly Figure 9's 915/900/885/875/760.
        assert_eq!(points[0].voltage, PMD_NOMINAL);
        assert_eq!(points[1].voltage, Millivolts::new(915));
        assert_eq!(points[2].voltage, Millivolts::new(900));
        assert_eq!(points[3].voltage, Millivolts::new(885));
        assert_eq!(points[4].voltage, Millivolts::new(875));
        assert_eq!(points[5].voltage, DIVIDED_SAFE);
        // Performance steps down by 12.5% per dropped PMD.
        let perfs: Vec<f64> = points.iter().map(|p| p.relative_performance).collect();
        assert_eq!(perfs[0].to_bits(), 1.0_f64.to_bits());
        assert_eq!(perfs[1].to_bits(), 1.0_f64.to_bits());
        assert!((perfs[2] - 0.875).abs() < 1e-12);
        assert!((perfs[5] - 0.5).abs() < 1e-12);
        // Savings strictly increase along the staircase.
        for w in points.windows(2) {
            assert!(w[1].energy_savings > w[0].energy_savings - 1e-12);
        }
    }

    #[test]
    fn binding_pmd_is_dropped_first() {
        let (assignments, table) = fig9_table();
        let points = pareto_curve(&assignments, &table).unwrap();
        // After the first drop, PMD0 (cores 0/1: 915/910) must be at 1.2GHz.
        let freqs = points[2].freqs;
        assert_eq!(freqs[0], Megahertz::new(1200));
        assert_eq!(freqs[1], MAX_FREQ);
    }

    #[test]
    fn missing_entry_yields_none() {
        let (mut assignments, table) = fig9_table();
        assignments.push(Assignment {
            core: CoreId::new(0),
            workload: "unknown".into(),
        });
        assert!(pareto_curve(&assignments, &table).is_none());
    }

    #[test]
    fn per_pmd_rails_beat_the_shared_rail() {
        let (assignments, table) = fig9_table();
        let (shared, per_pmd) = per_pmd_rails_comparison(&assignments, &table).unwrap();
        assert!(per_pmd.energy_savings > shared.energy_savings);
        assert_eq!(shared.relative_performance.to_bits(), 1.0_f64.to_bits());
        assert_eq!(per_pmd.relative_performance.to_bits(), 1.0_f64.to_bits());
        // Shared rail pinned at 915 mV → 12.8% savings; per-PMD rails at
        // (915, 900, 875, 885) → mean of the four V² terms.
        assert!((shared.energy_savings - 0.128).abs() < 0.001);
        let expected = 1.0
            - (915f64.powi(2) + 900f64.powi(2) + 875f64.powi(2) + 885f64.powi(2))
                / (4.0 * 980f64.powi(2));
        assert!((per_pmd.energy_savings - expected).abs() < 1e-9);
    }

    #[test]
    fn partially_loaded_chip_keeps_idle_pmds_parked() {
        let mut t = VminTable::new();
        t.insert(CoreId::new(0), "solo", Millivolts::new(905));
        let a = vec![Assignment {
            core: CoreId::new(0),
            workload: "solo".into(),
        }];
        let points = pareto_curve(&a, &t).unwrap();
        // nominal + one full-speed level + all-divided.
        assert_eq!(points.len(), 3);
        assert_eq!(points[1].voltage, Millivolts::new(905));
        // Idle PMDs parked at 300 MHz in every point.
        for p in &points {
            assert_eq!(p.freqs[2], Megahertz::new(300));
        }
        assert_eq!(points[2].voltage, DIVIDED_SAFE);
    }
}

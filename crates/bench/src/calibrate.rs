//! The `--calibrate-classes` surface shared by the table binaries.
//!
//! Prints the per-class grain costs the LPT dispatch order consumes —
//! the §4.3 narrative (paper) model and, with `--measured`, a live
//! measurement of this machine's kernels at Quick scale — and
//! self-checks the one ordering the staged workloads depend on: a
//! single BSDE Picard round must cost more than any vanilla European
//! Monte-Carlo grain, otherwise the dependency-aware rounds would be
//! scheduling noise.

use farm::calibrate::{measured_costs, paper_costs, CostModel};
use farm::portfolio::PortfolioScale;
use farm::workload::class_name;
use farm::JobClass;

/// Render one cost model as a fixed-width per-class table.
pub fn render_cost_table(title: &str, model: &CostModel) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!(
        "{:>18} {:>12} {:>12} {:>12} {:>8}\n",
        "class", "lo_s", "hi_s", "grain_s", "bytes"
    ));
    for class in JobClass::ALL {
        let (lo, hi) = model.cost_range(class);
        out.push_str(&format!(
            "{:>18} {:>12.4} {:>12.4} {:>12.4} {:>8}\n",
            class_name(class),
            lo,
            hi,
            model.grain_seconds(class),
            model.message_bytes(class)
        ));
    }
    out
}

/// The calibration self-check: the grain ordering the staged BSDE
/// workload relies on, stated against whichever model will feed LPT.
pub fn check_bsde_dominates_vanilla_mc(model: &CostModel) -> Result<(), String> {
    dominance(
        model.cost_range(JobClass::BsdePicardMc),
        model.cost_range(JobClass::LocalVolMc),
    )
}

fn dominance(bsde: (f64, f64), mc: (f64, f64)) -> Result<(), String> {
    if bsde.0 <= mc.1 {
        return Err(format!(
            "BSDE Picard round {bsde:?} does not dominate vanilla MC {mc:?}: \
             staged rounds would not shape the schedule"
        ));
    }
    Ok(())
}

/// The `--calibrate-classes` mode: print the per-class grain-cost
/// table(s) and run the self-check. `measured` (`--measured`) adds a
/// wall-clock measurement of this machine's kernels. Exits with status 2
/// when the self-check fails.
pub fn run_calibrate_classes(measured: bool) {
    let paper = paper_costs();
    print!(
        "{}",
        render_cost_table("Per-class grain costs — §4.3 narrative model", &paper)
    );
    if let Err(e) = check_bsde_dominates_vanilla_mc(&paper) {
        eprintln!("calibration self-check failed: {e}");
        std::process::exit(2);
    }
    if measured {
        let model = measured_costs(PortfolioScale::Quick, 2);
        print!(
            "\n{}",
            render_cost_table(
                "Per-class grain costs — measured on this machine (Quick scale)",
                &model
            )
        );
    }
    println!("\nself-check: BSDE Picard round dominates vanilla MC grain — ok");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lists_every_class_with_its_grain() {
        let m = paper_costs();
        let text = render_cost_table("t", &m);
        for class in JobClass::ALL {
            assert!(text.contains(class_name(class)), "{class:?} missing");
        }
        // Grain column is the interval midpoint.
        let (lo, hi) = m.cost_range(JobClass::BsdePicardMc);
        assert!(text.contains(&format!("{:.4}", 0.5 * (lo + hi))));
    }

    #[test]
    fn paper_model_passes_the_dominance_check() {
        check_bsde_dominates_vanilla_mc(&paper_costs()).unwrap();
    }

    #[test]
    fn dominance_check_rejects_overlapping_grains() {
        // A BSDE round no heavier than a vanilla MC grain must fail the
        // self-check: the staged rounds would not shape the schedule.
        let err = dominance((1.0, 2.0), (3.0, 4.0)).unwrap_err();
        assert!(err.contains("does not dominate"), "{err}");
        assert!(dominance((5.0, 6.0), (3.0, 4.0)).is_ok());
        // Touching intervals are not dominance.
        assert!(dominance((4.0, 6.0), (3.0, 4.0)).is_err());
    }
}

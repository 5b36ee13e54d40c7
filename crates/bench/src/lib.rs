//! Shared helpers for the table-regeneration binaries.
//!
//! Each binary prints our simulated columns next to the paper's published
//! numbers so the reproduction quality is visible at a glance; the
//! EXPERIMENTS.md summary is generated from the same data.

use breakdown::BreakdownOpts;
use clustersim::TableRow;

pub mod breakdown;

/// The table a binary regenerates. It decides the table-specific flags:
/// only Table I takes `--live`, and only Table II's portfolio scales
/// with `--jobs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    I,
    II,
    III,
}

/// A table binary's command line, parsed once: one mode, and only the
/// flags that mode uses on that table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No mode flag: print the table. `live` is Table I's `--live`, a
    /// real-core sweep after the simulated one.
    Table { live: bool },
    /// `--breakdown`: the per-phase decomposition of one cluster size.
    Breakdown(BreakdownOpts),
}

impl Mode {
    /// Parse `args` (without the program name) for `table`'s binary. A
    /// typo or a flag the chosen mode does not use on this table is an
    /// error, so nothing is accepted and ignored.
    fn parse<I, S>(args: I, table: Table) -> Result<Mode, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let args: Vec<S> = args.into_iter().collect();
        let has = |flag: &str| args.iter().any(|a| a.as_ref() == flag);
        let breakdown = has("--breakdown");
        let mut opts = BreakdownOpts::default();
        let mut live = false;
        let mut it = args.iter().map(AsRef::as_ref);
        while let Some(arg) = it.next() {
            match arg {
                "--breakdown" => {}
                "--live" if table == Table::I && !breakdown => live = true,
                "--jobs" if breakdown && table == Table::II => {
                    opts.jobs = Some(count(arg, it.next(), 1)?)
                }
                "--cpus" if breakdown => opts.cpus = count(arg, it.next(), 2)?,
                "--order" if breakdown => {
                    opts.order_lpt = match it.next() {
                        Some("fifo") => false,
                        Some("lpt") => true,
                        v => return Err(format!("--order: expected fifo|lpt, got {v:?}")),
                    }
                }
                "--warm" if breakdown => opts.warm = true,
                "--compress" if breakdown => opts.compress = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(if breakdown {
            Mode::Breakdown(opts)
        } else {
            Mode::Table { live }
        })
    }
}

/// The value after `flag`, as a count of at least `min`.
fn count(flag: &str, value: Option<&str>, min: usize) -> Result<usize, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    let n: usize = v.parse().map_err(|_| format!("{flag}: bad count {v:?}"))?;
    if n < min {
        return Err(format!("{flag} must be at least {min}"));
    }
    Ok(n)
}

/// Parse the process's arguments for `table`'s binary; on an error,
/// print it with the usage line and exit with status 2.
pub fn parse_args(table: Table) -> Mode {
    Mode::parse(std::env::args().skip(1), table).unwrap_or_else(|e| {
        let (name, jobs, live) = match table {
            Table::I => ("table1", "", " | --live"),
            Table::II => ("table2", " [--jobs N]", ""),
            Table::III => ("table3", "", ""),
        };
        eprintln!("error: {e}");
        eprintln!(
            "usage: {name} [--breakdown{jobs} [--cpus N] [--order fifo|lpt] [--warm] \
             [--compress]{live}]"
        );
        std::process::exit(2);
    })
}

/// A published (CPUs, time, ratio) row from the paper, for side-by-side
/// display. `None` entries mark cells the paper leaves blank.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    cpus: usize,
    time: Option<f64>,
    ratio: Option<f64>,
}

/// Paper Table I (non-regression tests, sload transmission).
pub const PAPER_TABLE1: [PaperRow; 14] = [
    PaperRow {
        cpus: 2,
        time: Some(838.004),
        ratio: Some(1.0),
    },
    PaperRow {
        cpus: 4,
        time: Some(285.356),
        ratio: Some(0.9789),
    },
    PaperRow {
        cpus: 6,
        time: Some(172.146),
        ratio: Some(0.973597),
    },
    PaperRow {
        cpus: 8,
        time: Some(124.78),
        ratio: Some(0.959407),
    },
    PaperRow {
        cpus: 10,
        time: Some(97.1792),
        ratio: Some(0.958142),
    },
    PaperRow {
        cpus: 16,
        time: Some(67.9677),
        ratio: Some(0.821963),
    },
    PaperRow {
        cpus: 32,
        time: Some(45.6611),
        ratio: Some(0.592023),
    },
    PaperRow {
        cpus: 64,
        time: Some(34.2828),
        ratio: Some(0.387998),
    },
    PaperRow {
        cpus: 96,
        time: Some(31.4682),
        ratio: Some(0.280317),
    },
    PaperRow {
        cpus: 128,
        time: Some(30.5574),
        ratio: Some(0.215937),
    },
    PaperRow {
        cpus: 160,
        time: Some(16.1006),
        ratio: Some(0.327347),
    },
    PaperRow {
        cpus: 192,
        time: Some(30.7013),
        ratio: Some(0.142908),
    },
    PaperRow {
        cpus: 224,
        time: Some(30.5024),
        ratio: Some(0.123199),
    },
    PaperRow {
        cpus: 256,
        time: Some(31.3172),
        ratio: Some(0.104935),
    },
];

/// Paper Table II columns (toy portfolio): (cpus, full, nfs, sload).
pub const PAPER_TABLE2: [(usize, f64, f64, f64); 16] = [
    (2, 8.85665, 16.3965, 7.17891),
    (4, 3.55046, 4.91225, 1.73774),
    (8, 3.86341, 2.52961, 1.81472),
    (10, 4.06038, 2.08968, 1.87771),
    (12, 3.9264, 1.77673, 1.88571),
    (14, 3.9624, 1.57676, 1.81372),
    (16, 4.05038, 1.40579, 1.9367),
    (18, 3.9524, 1.27181, 1.9497),
    (20, 4.13337, 1.17682, 1.87272),
    (24, 3.77643, 1.02784, 1.84772),
    (28, 3.9504, 0.928859, 1.77273),
    (32, 4.35934, 0.848871, 1.83072),
    (36, 4.05938, 0.786881, 1.75773),
    (40, 4.06538, 0.832873, 1.81572),
    (45, 4.12437, 0.768884, 1.78273),
    (50, 4.19136, 0.738887, 1.70474),
];

/// Paper Table III columns (realistic portfolio): (cpus, full, nfs,
/// sload); the 320/384/512 rows only report two columns in the paper —
/// we map them onto (full, sload) and mark NFS absent with NaN.
pub const PAPER_TABLE3: [(usize, f64, f64, f64); 17] = [
    (2, 5770.16, 5799.66, 5776.33),
    (4, 1980.35, 1939.46, 1925.29),
    (6, 1154.05, 1161.25, 1157.22),
    (8, 823.056, 828.07, 840.403),
    (10, 641.166, 645.544, 641.096),
    (16, 389.295, 389.097, 386.745),
    (32, 187.441, 193.937, 189.354),
    (64, 93.2008, 100.384, 94.7316),
    (96, 61.5176, 69.7884, 63.1974),
    (128, 46.7399, 54.8667, 47.6968),
    (160, 38.4812, 41.9726, 41.1997),
    (192, 31.5312, 35.7536, 33.5979),
    (224, 27.2929, 31.3362, 31.5822),
    (256, 24.4743, 28.2047, 27.8228),
    (320, 26.1740, f64::NAN, 26.7879),
    (384, 20.0550, f64::NAN, 22.5696),
    (512, 19.7960, f64::NAN, 20.1779),
];

/// Render simulated rows next to the paper's columns.
pub fn render_comparison(title: &str, ours: &[TableRow], paper: &[PaperRow]) -> String {
    let mut s = format!(
        "{title}\n{:>6} | {:>12} {:>10} | {:>12} {:>10}\n",
        "CPUs", "sim time", "sim ratio", "paper time", "paper ratio"
    );
    s.push_str(&"-".repeat(62));
    s.push('\n');
    for row in ours {
        let p = paper.iter().find(|p| p.cpus == row.cpus);
        let (pt, pr) = match p {
            Some(p) => (
                p.time.map_or("-".into(), |t| format!("{t:.3}")),
                p.ratio.map_or("-".into(), |r| format!("{r:.4}")),
            ),
            None => ("-".into(), "-".into()),
        };
        s.push_str(&format!(
            "{:>6} | {:>12.3} {:>10.4} | {:>12} {:>10}\n",
            row.cpus, row.time, row.ratio, pt, pr
        ));
    }
    s
}

/// Render a three-strategy table (Tables II/III format) with the paper's
/// numbers interleaved.
pub fn render_three_strategy(
    title: &str,
    ours: &[(farm::Transmission, Vec<TableRow>)],
    paper: &[(usize, f64, f64, f64)],
) -> String {
    use farm::Transmission;
    let get = |s: Transmission| -> &Vec<TableRow> {
        &ours
            .iter()
            .find(|(st, _)| *st == s)
            .expect("all strategies present")
            .1
    };
    let full = get(Transmission::FullLoad);
    let nfs = get(Transmission::Nfs);
    let sload = get(Transmission::SerializedLoad);
    let mut s = format!(
        "{title}\n{:>6} | {:>11} {:>11} {:>11} | {:>11} {:>11} {:>11}\n",
        "CPUs", "sim full", "sim NFS", "sim sload", "pap full", "pap NFS", "pap sload"
    );
    s.push_str(&"-".repeat(92));
    s.push('\n');
    for (i, row) in full.iter().enumerate() {
        let p = paper.iter().find(|p| p.0 == row.cpus);
        let fmt = |x: f64| {
            if x.is_nan() {
                format!("{:>11}", "-")
            } else {
                format!("{x:>11.3}")
            }
        };
        let (pf, pn, ps) = match p {
            Some(&(_, f, n, sl)) => (fmt(f), fmt(n), fmt(sl)),
            None => (fmt(f64::NAN), fmt(f64::NAN), fmt(f64::NAN)),
        };
        s.push_str(&format!(
            "{:>6} | {:>11.3} {:>11.3} {:>11.3} | {pf} {pn} {ps}\n",
            row.cpus, row.time, nfs[i].time, sload[i].time
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_are_consistent_with_ratio_definition() {
        // Verify our ratio formula against every printed Table I row.
        for row in &PAPER_TABLE1 {
            if let (Some(t), Some(r)) = (row.time, row.ratio) {
                let computed = clustersim::speedup_ratio(838.004, row.cpus, t);
                assert!(
                    (computed - r).abs() < 2e-3,
                    "cpus {}: computed {computed} printed {r}",
                    row.cpus
                );
            }
        }
    }

    #[test]
    fn render_includes_paper_values() {
        let ours = vec![TableRow {
            cpus: 2,
            time: 800.0,
            ratio: 1.0,
        }];
        let s = render_comparison("T1", &ours, &PAPER_TABLE1);
        assert!(s.contains("838.004"));
        assert!(s.contains("800.000"));
    }

    #[test]
    fn table3_paper_sload_ratios_match_formula() {
        // Spot-check the printed Table III serialized-load ratios.
        let t2 = 5776.33;
        for &(cpus, _, _, sload) in &PAPER_TABLE3 {
            if cpus == 2 || sload.is_nan() {
                continue;
            }
            let r = clustersim::speedup_ratio(t2, cpus, sload);
            assert!(r > 0.3 && r < 1.2, "cpus {cpus}: ratio {r}");
        }
    }
}

//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each experiment is addressable by the paper's table/figure number
//! (`"table3.1"`, `"fig6.17"`, …) and renders its result as text — the same
//! rows/series the paper reports, produced by actually running the
//! corresponding harness (profiler, bus simulator, GTPN models, DES).
//!
//! ```
//! let out = hsipc::experiments::run("table5.2").expect("known experiment");
//! assert!(out.contains("Enqueue control block"));
//! ```

mod ch3;
mod ch4;
mod ch5;
mod ch6figures;
mod ch6tables;

/// A regenerable experiment.
pub struct Experiment {
    /// Identifier: the paper's table/figure number, e.g. `"table6.1"`.
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Produces the experiment's output with a sweep worker count (which
    /// an experiment that is not swept ignores).
    pub run: fn(usize) -> String,
}

/// All experiments, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table3.1",
            title: "Charlotte profiling (local, 1000 B)",
            run: |_| ch3::table_3_1(),
        },
        Experiment {
            id: "table3.2",
            title: "Jasmin profiling (local, 32 B)",
            run: |_| ch3::table_3_2(),
        },
        Experiment {
            id: "table3.3",
            title: "925 profiling (local, 40 B)",
            run: |_| ch3::table_3_3(),
        },
        Experiment {
            id: "table3.4",
            title: "Unix profiling (local, 128 B)",
            run: |_| ch3::table_3_4(),
        },
        Experiment {
            id: "table3.5",
            title: "Unix profiling (non-local, 128 B)",
            run: |_| ch3::table_3_5(),
        },
        Experiment {
            id: "table3.6",
            title: "Unix server service times",
            run: |_| ch3::table_3_6(),
        },
        Experiment {
            id: "table3.7",
            title: "Unix read/write vs block size",
            run: |_| ch3::table_3_7(),
        },
        Experiment {
            id: "fig3.path",
            title: "Message-path time-stamping (S3.3 technique 3)",
            run: |_| ch3::fig_3_msgpath(),
        },
        Experiment {
            id: "fig4.6",
            title: "Blocking remote invocation send timeline",
            run: |_| ch4::fig_4_6(),
        },
        Experiment {
            id: "table5.1",
            title: "Smart bus signals",
            run: |_| ch5::table_5_1(),
        },
        Experiment {
            id: "table5.2",
            title: "Smart bus commands",
            run: |_| ch5::table_5_2(),
        },
        Experiment {
            id: "fig5.timing",
            title: "Smart bus timing diagrams (Figs 5.4-5.16)",
            run: |_| ch5::fig_5_timing(),
        },
        Experiment {
            id: "table6.1",
            title: "Queue/block primitive times, Arch II vs III",
            run: |_| ch6tables::table_6_1(),
        },
        Experiment {
            id: "table6.2",
            title: "Shared-memory contention completion times",
            run: |_| ch6tables::table_6_2(),
        },
        Experiment {
            id: "table6.4",
            title: "Arch I local activity costs",
            run: |_| ch6tables::table_6_4(),
        },
        Experiment {
            id: "table6.6",
            title: "Arch I non-local activity costs",
            run: |_| ch6tables::table_6_6(),
        },
        Experiment {
            id: "table6.9",
            title: "Arch II local activity costs",
            run: |_| ch6tables::table_6_9(),
        },
        Experiment {
            id: "table6.11",
            title: "Arch II non-local activity costs",
            run: |_| ch6tables::table_6_11(),
        },
        Experiment {
            id: "table6.14",
            title: "Arch III local activity costs",
            run: |_| ch6tables::table_6_14(),
        },
        Experiment {
            id: "table6.16",
            title: "Arch III non-local activity costs",
            run: |_| ch6tables::table_6_16(),
        },
        Experiment {
            id: "table6.19",
            title: "Arch IV local activity costs",
            run: |_| ch6tables::table_6_19(),
        },
        Experiment {
            id: "table6.21",
            title: "Arch IV non-local activity costs",
            run: |_| ch6tables::table_6_21(),
        },
        Experiment {
            id: "table6.24",
            title: "Offered loads (local)",
            run: ch6tables::table_6_24,
        },
        Experiment {
            id: "table6.25",
            title: "Offered loads (non-local)",
            run: ch6tables::table_6_25,
        },
        Experiment {
            id: "fig6.7",
            title: "Geometric-delay approximation",
            run: |_| ch6figures::fig_6_7(),
        },
        Experiment {
            id: "fig6.15",
            title: "Model validation (GTPN vs DES)",
            run: ch6figures::fig_6_15,
        },
        Experiment {
            id: "fig6.17",
            title: "Maximum communication load (I/II/III)",
            run: ch6figures::fig_6_17,
        },
        Experiment {
            id: "fig6.18",
            title: "Realistic workload, local (I/II/III)",
            run: ch6figures::fig_6_18,
        },
        Experiment {
            id: "fig6.19",
            title: "Realistic workload, non-local (I/II/III)",
            run: ch6figures::fig_6_19,
        },
        Experiment {
            id: "fig6.20",
            title: "Max load, III vs IV (local)",
            run: ch6figures::fig_6_20,
        },
        Experiment {
            id: "fig6.21",
            title: "Max load, III vs IV (non-local)",
            run: ch6figures::fig_6_21,
        },
        Experiment {
            id: "fig6.22",
            title: "Realistic load, III vs IV (local)",
            run: ch6figures::fig_6_22,
        },
        Experiment {
            id: "fig6.23",
            title: "Realistic load, III vs IV (non-local)",
            run: ch6figures::fig_6_23,
        },
        Experiment {
            id: "fig7.1",
            title: "Chapter 7 extension: one MP, multiple hosts",
            run: ch6figures::fig_7_1,
        },
        Experiment {
            id: "fig7.scale",
            title: "Chapter 7 scale-out: lumped exact solves up to n=16",
            run: ch6figures::fig_7_scale,
        },
    ]
}

/// Runs one experiment by id; `None` for an unknown id.
pub fn run(id: &str) -> Option<String> {
    run_with(id, sweep::threads())
}

/// Runs one experiment with an explicit sweep worker count (1 is the
/// sequential path), bypassing `HSIPC_SWEEP`. Swept experiments fan their
/// grids out `threads` wide; the rest run on the calling thread. Output is
/// byte-identical at every worker count — that is the sweep engine's
/// contract, and `tests/sweep_identity.rs` holds it to it.
pub fn run_with(id: &str, threads: usize) -> Option<String> {
    all()
        .into_iter()
        .find(|e| e.id == id)
        .map(|e| (e.run)(threads))
}

/// Renders a text table: a header row and aligned columns.
pub(crate) fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let line = |cells: &[String], widths: &[usize]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:<width$}", c, width = widths[i]));
        }
        s.trim_end().to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&line(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_runnable_lookup() {
        let experiments = all();
        let mut ids = std::collections::HashSet::new();
        for e in &experiments {
            assert!(ids.insert(e.id), "duplicate id {}", e.id);
        }
        assert!(experiments.len() >= 30);
        assert!(run("no-such-table").is_none());
    }

    #[test]
    fn fast_experiments_render() {
        for id in ["table3.3", "table5.1", "table5.2", "table6.4", "table6.24"] {
            let out = run(id).expect("known id");
            assert!(out.lines().count() > 3, "{id}: {out}");
        }
    }

    #[test]
    fn render_table_aligns() {
        let out = render_table(
            "T",
            &["a", "long-header"],
            &[vec!["xx".into(), "1".into()], vec!["y".into(), "22".into()]],
        );
        assert!(out.contains("long-header"));
        assert!(out.lines().count() == 5);
    }
}

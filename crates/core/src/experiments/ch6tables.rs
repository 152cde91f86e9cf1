//! Chapter 6 tables: primitive costs, contention, activity tables, offered
//! loads.

use super::render_table;
use archsim::timings::{self, Architecture, Locality};
use models::contention;

/// Table 6.1 — queue/block primitive times under Architectures II and III.
pub(crate) fn table_6_1() -> String {
    let rows: Vec<Vec<String>> = timings::TABLE_6_1
        .iter()
        .map(|&(op, (p2, m2), (p3, m3))| {
            vec![
                op.to_string(),
                format!("{p2:.0}"),
                format!("{m2:.0}"),
                format!("{p3:.0}"),
                format!("{m3:.0}"),
                format!("{:.1}x", (p2 + m2) / (p3 + m3)),
            ]
        })
        .collect();
    render_table(
        "Table 6.1 — Comparison of Processing Times (µs)",
        &[
            "Operation",
            "II proc",
            "II mem",
            "III proc",
            "III mem",
            "Speedup",
        ],
        &rows,
    )
}

/// Table 6.2 — contention completion times from the low-level model,
/// side by side with the published values.
pub(crate) fn table_6_2() -> String {
    let published = [1314.9, 235.2, 235.2, 982.0];
    let times = contention::completion_times(contention::TABLE_6_2).expect("table 6.2 mix solves");
    let rows: Vec<Vec<String>> = contention::TABLE_6_2
        .iter()
        .zip(times.iter())
        .zip(published.iter())
        .map(|((a, &got), &want)| {
            vec![
                a.name.to_string(),
                format!("{:.0}", a.best_us),
                format!("{got:.1}"),
                format!("{want:.1}"),
                format!("{:+.2}%", 100.0 * (got - want) / want),
            ]
        })
        .collect();
    render_table(
        "Table 6.2 — Architecture I non-local client contention (µs)",
        &["Activity", "Best", "Model", "Published", "Δ"],
        &rows,
    )
}

fn activity_table(paper_table: &str, arch: Architecture, locality: Locality) -> String {
    let rows: Vec<Vec<String>> = timings::activity_table(arch, locality)
        .iter()
        .map(|a| {
            vec![
                a.action.to_string(),
                format!("{:?}", a.kind),
                format!("{:?}", a.processor),
                format!("{:.0}", a.processing_us),
                format!("{:.0}", a.shared_us()),
                format!("{:.0}", a.best_us()),
                format!("{:.1}", a.contention_us),
            ]
        })
        .collect();
    let mut out = render_table(
        &format!("{paper_table} — {arch}, {locality:?} conversation (µs)"),
        &[
            "#",
            "Activity",
            "Proc",
            "Processing",
            "Shared",
            "Best",
            "Contention",
        ],
        &rows,
    );
    out.push_str(&format!(
        "Round-trip communication time C = {:.0} µs (best, host+MP)\n",
        timings::round_trip_us(arch, locality, false)
    ));
    out
}

/// Table 6.4 — Architecture I, local.
pub(crate) fn table_6_4() -> String {
    activity_table("Table 6.4", Architecture::Uniprocessor, Locality::Local)
}

/// Table 6.6 — Architecture I, non-local.
pub(crate) fn table_6_6() -> String {
    activity_table("Table 6.6", Architecture::Uniprocessor, Locality::NonLocal)
}

/// Table 6.9 — Architecture II, local.
pub(crate) fn table_6_9() -> String {
    activity_table(
        "Table 6.9",
        Architecture::MessageCoprocessor,
        Locality::Local,
    )
}

/// Table 6.11 — Architecture II, non-local.
pub(crate) fn table_6_11() -> String {
    activity_table(
        "Table 6.11",
        Architecture::MessageCoprocessor,
        Locality::NonLocal,
    )
}

/// Table 6.14 — Architecture III, local.
pub(crate) fn table_6_14() -> String {
    activity_table("Table 6.14", Architecture::SmartBus, Locality::Local)
}

/// Table 6.16 — Architecture III, non-local.
pub(crate) fn table_6_16() -> String {
    activity_table("Table 6.16", Architecture::SmartBus, Locality::NonLocal)
}

/// Table 6.19 — Architecture IV, local.
pub(crate) fn table_6_19() -> String {
    activity_table(
        "Table 6.19",
        Architecture::PartitionedSmartBus,
        Locality::Local,
    )
}

/// Table 6.21 — Architecture IV, non-local.
pub(crate) fn table_6_21() -> String {
    activity_table(
        "Table 6.21",
        Architecture::PartitionedSmartBus,
        Locality::NonLocal,
    )
}

fn offered_table(threads: usize, paper_table: &str, locality: Locality) -> String {
    // Each row is an independent sweep point over the paper's server times.
    let grid = sweep::Grid::new(models::offered::SERVER_TIMES_MS.to_vec());
    let rows = grid.eval_with(threads, |&server_ms| {
        let r = models::offered::row(locality, server_ms);
        let mut cells = vec![format!("{:.2}", r.server_ms)];
        cells.extend(r.loads.iter().map(|l| format!("{l:.3}")));
        cells
    });
    render_table(
        &format!("{paper_table} — Offered Loads ({locality:?})"),
        &["Server (ms)", "I", "II", "III", "IV"],
        &rows,
    )
}

/// Table 6.24 — offered loads, local.
pub(crate) fn table_6_24() -> String {
    table_6_24_with(sweep::threads())
}

/// [`table_6_24`] with an explicit worker count.
pub(crate) fn table_6_24_with(threads: usize) -> String {
    offered_table(threads, "Table 6.24", Locality::Local)
}

/// Table 6.25 — offered loads, non-local.
pub(crate) fn table_6_25() -> String {
    table_6_25_with(sweep::threads())
}

/// [`table_6_25`] with an explicit worker count.
pub(crate) fn table_6_25_with(threads: usize) -> String {
    offered_table(threads, "Table 6.25", Locality::NonLocal)
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_6_1_shows_speedups() {
        let t = super::table_6_1();
        assert!(t.contains("Enqueue"));
        assert!(t.contains("7.4x"), "{t}");
    }

    #[test]
    fn offered_tables_have_thirteen_rows() {
        let t = super::table_6_24();
        // Header + rule + 13 rows + title.
        assert_eq!(t.lines().count(), 16, "{t}");
    }
}

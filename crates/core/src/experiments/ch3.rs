//! Chapter 3 tables: the profiling study.

use super::render_table;
use profiler::analysis;
use profiler::systems;
use profiler::{KernelRun, KernelSpec};

const ROUND_TRIPS: u64 = 200;

fn breakdown_table(spec: &KernelSpec, paper_table: &str) -> String {
    let b = KernelRun::new(spec).execute(ROUND_TRIPS).breakdown();
    let title =
        format!(
        "{paper_table} — {} Profiling\n{}\nRound Trip ({}) = {:.3} ms ({} bytes)  Copy = {:.3} ms",
        b.system,
        b.processor,
        if spec.local { "Local Message" } else { "Non-local Message" },
        b.round_trip_ms,
        b.message_bytes,
        b.copy_ms,
    );
    let rows: Vec<Vec<String>> = b
        .rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.3}", r.time_ms),
                format!("{:.1}", r.percent),
            ]
        })
        .collect();
    let mut out = render_table(&title, &["Activity", "Time (ms)", "% of RT"], &rows);
    out.push_str(&format!(
        "Fixed overhead (size-independent): {:.3} ms; copy crossover ≈ {} bytes\n",
        analysis::fixed_overhead_ms(&b),
        analysis::copy_crossover_bytes(&b),
    ));
    out
}

/// Table 3.1 — Charlotte.
pub(crate) fn table_3_1() -> String {
    breakdown_table(&systems::charlotte(), "Table 3.1")
}

/// Table 3.2 — Jasmin.
pub(crate) fn table_3_2() -> String {
    breakdown_table(&systems::jasmin(), "Table 3.2")
}

/// Table 3.3 — 925.
pub(crate) fn table_3_3() -> String {
    breakdown_table(&systems::sys925(), "Table 3.3")
}

/// Table 3.4 — Unix, local.
pub(crate) fn table_3_4() -> String {
    breakdown_table(&systems::unix_local(), "Table 3.4")
}

/// Table 3.5 — Unix, non-local.
pub(crate) fn table_3_5() -> String {
    breakdown_table(&systems::unix_nonlocal(), "Table 3.5")
}

/// Table 3.6 — Unix servers.
pub(crate) fn table_3_6() -> String {
    let rows: Vec<Vec<String>> = systems::UNIX_SERVERS
        .iter()
        .map(|&(name, t)| vec![name.to_string(), format!("{t:.3}")])
        .collect();
    let mut out = render_table(
        "Table 3.6 — Unix Servers (system service \"computation\" times)",
        &["System Service", "Time (ms)"],
        &rows,
    );
    out.push_str(&format!(
        "Mean service time {:.2} ms — comparable to the 4.57 ms local communication time (§3.5)\n",
        analysis::mean_server_time_ms()
    ));
    out
}

/// Table 3.7 — Unix read/write by block size.
pub(crate) fn table_3_7() -> String {
    let rows: Vec<Vec<String>> = systems::UNIX_READ_WRITE
        .iter()
        .map(|&(b, r, w)| vec![b.to_string(), format!("{r:.4}"), format!("{w:.4}")])
        .collect();
    let mut out = render_table(
        "Table 3.7 — Unix Read/Write service times",
        &["BlockSize", "Read (ms)", "Write (ms)"],
        &rows,
    );
    let (ri, rs) = analysis::read_write_fit(false);
    let (wi, ws) = analysis::read_write_fit(true);
    out.push_str(&format!(
        "Linear fits: read ≈ {ri:.2} + {rs:.2}·KB ms; write ≈ {wi:.2} + {ws:.2}·KB ms\n"
    ));
    out
}

/// §3.3 measurement 3 — message-path time-stamping: the Unix transmit
/// route under light and saturating load, with the bottleneck queue
/// identified.
pub(crate) fn fig_3_msgpath() -> String {
    use profiler::msgpath::MessagePath;
    let path = MessagePath::unix_transmit();
    let mut out =
        String::from("S3.3 measurement 3 — Message-path time-stamping (Unix transmit route)\n\n");
    for (label, interarrival) in [
        ("light load (10 ms apart)", 10_000u64),
        ("saturating (0.7 ms apart)", 700),
    ] {
        let r = path.report(300, interarrival);
        out.push_str(&format!(
            "{label}: mean latency {:.0} us, bottleneck queue: {}\n",
            r.mean_latency_us, r.bottleneck
        ));
        for s in &r.stages {
            out.push_str(&format!(
                "    {:<24} service {:>4} us  mean wait {:>9.1} us\n",
                s.name, s.service_us, s.mean_wait_us
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn charlotte_table_carries_published_shape() {
        let t = super::table_3_1();
        assert!(t.contains("Charlotte"));
        assert!(t.contains("Protocol Processing"));
        // 50% of the round trip is protocol processing.
        assert!(t.contains("50.0"), "{t}");
    }

    #[test]
    fn unix_tables_render() {
        assert!(super::table_3_6().contains("Make Directory"));
        assert!(super::table_3_7().contains("4096"));
    }
}

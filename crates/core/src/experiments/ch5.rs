//! Chapter 5 tables: the smart bus specification, verified against the
//! running bus simulator.

use super::render_table;
use smartbus::signal::Signal;
use smartbus::waveform::TimingDiagram;
use smartbus::{BlockDirection, BusEngine, Command, RequestNumber, Transaction};
use smartmem::SmartMemory;

/// Table 5.1 — smart bus signals.
pub(crate) fn table_5_1() -> String {
    let rows: Vec<Vec<String>> = Signal::ALL
        .iter()
        .map(|s| {
            vec![
                s.mnemonic().to_string(),
                s.line_count().to_string(),
                s.description().to_string(),
            ]
        })
        .collect();
    render_table(
        "Table 5.1 — Smart Bus Signals",
        &["Signal", "Lines", "Description"],
        &rows,
    )
}

/// Table 5.2 — smart bus commands, with the handshake cost each incurs on
/// the simulated bus.
pub(crate) fn table_5_2() -> String {
    let rows: Vec<Vec<String>> = Command::ALL
        .iter()
        .map(|c| {
            let edges = if c.is_streaming() {
                "2/word".to_string()
            } else {
                c.handshake_edges().to_string()
            };
            vec![format!("{:04b}", c.encoding()), c.name().to_string(), edges]
        })
        .collect();
    let mut out = render_table(
        "Table 5.2 — Smart Bus Commands",
        &["CM0-3", "Command", "Edges"],
        &rows,
    );
    // Demonstrate the headline transaction timings on the live simulator.
    let mut bus = BusEngine::new(SmartMemory::new(4096), RequestNumber::new(7));
    let mp = bus
        .add_unit("mp", RequestNumber::new(2))
        .expect("fresh engine");
    bus.submit(
        mp,
        Transaction::Enqueue {
            list: 0x20,
            element: 0x100,
        },
    )
    .expect("idle unit");
    bus.run_until_idle().expect("valid transaction");
    let enq_ns = bus.time_ns();
    bus.submit(
        mp,
        Transaction::BlockTransfer {
            addr: 0x200,
            count: 40,
            direction: BlockDirection::Write,
            data: (0..20).collect(),
        },
    )
    .expect("idle unit");
    bus.run_until_idle().expect("valid transaction");
    let blk_ns = bus.time_ns() - enq_ns;
    out.push_str(&format!(
        "Measured on the simulator: enqueue = {enq_ns} ns (four edges); \
         40-byte block write = {blk_ns} ns (one request + twenty word pairs)\n"
    ));
    out
}

/// Figures 5.4–5.16 — the transaction timing diagrams, generated from the
/// protocol definitions.
pub(crate) fn fig_5_timing() -> String {
    let mut out = String::from("Figures 5.4-5.16 — Smart Bus Timing Diagrams\n\n");
    for c in Command::ALL {
        out.push_str(&TimingDiagram::for_command(c, 4).render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn signals_table_lists_all_ten() {
        let t = super::table_5_1();
        for m in [
            "A/D", "TG", "CM", "IS", "IK", "BBSY", "BR", "AR", "ANC", "CLR",
        ] {
            assert!(t.contains(m), "missing {m} in {t}");
        }
    }

    #[test]
    fn commands_table_shows_live_timings() {
        let t = super::table_5_2();
        assert!(t.contains("enqueue = 1000 ns"), "{t}");
        assert!(t.contains("block write = 11000 ns"), "{t}");
    }
}

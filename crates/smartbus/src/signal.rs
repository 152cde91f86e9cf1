//! Bus signals (Table 5.1) and line state.

use std::fmt;

/// One of the smart bus signal groups, per Table 5.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// `A/D` — 16 multiplexed address/data lines.
    AddressData,
    /// `TG` — 4 tag lines identifying block-transfer transactions.
    Tag,
    /// `CM` — 4 command lines (see [`crate::Command`]).
    Command,
    /// `IS` — information strobe (asserted by the master).
    InformationStrobe,
    /// `IK` — information acknowledge (asserted by the slave).
    InformationAck,
    /// `BBSY` — bus busy: the current master holds the bus.
    BusBusy,
    /// `BR0–BR2` — 3 wired-or bus-request (arbitration) lines.
    BusRequest,
    /// `AR` — arbitration start.
    ArbitrationStart,
    /// `ANC` — arbitration not complete (wired-or).
    ArbitrationNotComplete,
    /// `CLR` — system reset.
    SystemReset,
}

impl Signal {
    /// All signals in Table 5.1 order.
    pub const ALL: [Signal; 10] = [
        Signal::AddressData,
        Signal::Tag,
        Signal::Command,
        Signal::InformationStrobe,
        Signal::InformationAck,
        Signal::BusBusy,
        Signal::BusRequest,
        Signal::ArbitrationStart,
        Signal::ArbitrationNotComplete,
        Signal::SystemReset,
    ];

    /// Short mnemonic used in the paper ("A/D", "TG", …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Signal::AddressData => "A/D",
            Signal::Tag => "TG",
            Signal::Command => "CM",
            Signal::InformationStrobe => "IS",
            Signal::InformationAck => "IK",
            Signal::BusBusy => "BBSY",
            Signal::BusRequest => "BR",
            Signal::ArbitrationStart => "AR",
            Signal::ArbitrationNotComplete => "ANC",
            Signal::SystemReset => "CLR",
        }
    }

    /// Number of physical lines in the group (Table 5.1).
    pub fn line_count(self) -> u8 {
        match self {
            Signal::AddressData => 16,
            Signal::Tag | Signal::Command => 4,
            Signal::BusRequest => 3,
            _ => 1,
        }
    }

    /// Functional description (Table 5.1).
    pub fn description(self) -> &'static str {
        match self {
            Signal::AddressData => "Multiplexed address/data",
            Signal::Tag => "Tag",
            Signal::Command => "Command",
            Signal::InformationStrobe => "Information strobe",
            Signal::InformationAck => "Information acknowledge",
            Signal::BusBusy => "Bus busy",
            Signal::BusRequest => "Bus request",
            Signal::ArbitrationStart => "Arbitration start",
            Signal::ArbitrationNotComplete => "Arbitration not complete",
            Signal::SystemReset => "System Reset",
        }
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_5_1_line_counts() {
        // Sixteen A/D, four TG, four CM, three BR, singletons elsewhere.
        let total: u32 = Signal::ALL.iter().map(|s| u32::from(s.line_count())).sum();
        assert_eq!(total, 16 + 4 + 4 + 1 + 1 + 1 + 3 + 1 + 1 + 1);
    }

    #[test]
    fn mnemonics_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in Signal::ALL {
            assert!(seen.insert(s.mnemonic()), "duplicate mnemonic {}", s);
        }
    }
}

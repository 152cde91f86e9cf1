//! Command encodings on the `CM0–CM3` lines (Table 5.2).

use std::fmt;

/// A smart bus command, with the encoding of Table 5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Command {
    /// Simple (two-byte) read.
    SimpleRead = 0b0000,
    /// Block transfer request: address + count, answered with a tag.
    BlockTransfer = 0b0001,
    /// Tagged streaming data from memory to a processor.
    BlockReadData = 0b0010,
    /// Tagged streaming data from a processor to memory.
    BlockWriteData = 0b0011,
    /// Atomic enqueue of a control block on a circular list.
    EnqueueControlBlock = 0b0100,
    /// Atomic dequeue of a named control block from a circular list.
    DequeueControlBlock = 0b0101,
    /// Atomic dequeue of the first control block of a circular list.
    FirstControlBlock = 0b0110,
    /// Write two bytes.
    WriteTwoBytes = 0b1000,
    /// Write one byte.
    WriteByte = 0b1001,
}

impl Command {
    /// All commands in Table 5.2 order.
    pub const ALL: [Command; 9] = [
        Command::SimpleRead,
        Command::BlockTransfer,
        Command::BlockReadData,
        Command::BlockWriteData,
        Command::EnqueueControlBlock,
        Command::DequeueControlBlock,
        Command::FirstControlBlock,
        Command::WriteTwoBytes,
        Command::WriteByte,
    ];

    /// The 4-bit encoding placed on `CM0–CM3`.
    pub fn encoding(self) -> u8 {
        self as u8
    }

    /// Handshake edges for the *request* part of the transaction, per the
    /// timing diagrams of §5.3:
    ///
    /// * block transfer, enqueue, dequeue, write: four edges (Figs 5.4, 5.10,
    ///   5.16);
    /// * first control block and simple read: eight edges (Figs 5.12, 5.14);
    /// * streaming data commands: two edges per word once streaming
    ///   ([`Command::is_streaming`]).
    pub fn handshake_edges(self) -> u32 {
        match self {
            Command::SimpleRead | Command::FirstControlBlock => 8,
            Command::BlockTransfer
            | Command::EnqueueControlBlock
            | Command::DequeueControlBlock
            | Command::WriteTwoBytes
            | Command::WriteByte => 4,
            // Streaming commands have no fixed request cost; each word costs
            // two edges (Figures 5.6, 5.8).
            Command::BlockReadData | Command::BlockWriteData => 0,
        }
    }

    /// True for the tagged streaming data-movement commands.
    pub fn is_streaming(self) -> bool {
        matches!(self, Command::BlockReadData | Command::BlockWriteData)
    }

    /// Name as printed in Table 5.2.
    pub fn name(self) -> &'static str {
        match self {
            Command::SimpleRead => "Simple Read",
            Command::BlockTransfer => "Block transfer",
            Command::BlockReadData => "Block read data",
            Command::BlockWriteData => "Block write data",
            Command::EnqueueControlBlock => "Enqueue control block",
            Command::DequeueControlBlock => "Dequeue control block",
            Command::FirstControlBlock => "First control block",
            Command::WriteTwoBytes => "Write two bytes",
            Command::WriteByte => "Write byte",
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_5_2_encodings() {
        assert_eq!(Command::SimpleRead.encoding(), 0b0000);
        assert_eq!(Command::BlockTransfer.encoding(), 0b0001);
        assert_eq!(Command::BlockReadData.encoding(), 0b0010);
        assert_eq!(Command::BlockWriteData.encoding(), 0b0011);
        assert_eq!(Command::EnqueueControlBlock.encoding(), 0b0100);
        assert_eq!(Command::DequeueControlBlock.encoding(), 0b0101);
        assert_eq!(Command::FirstControlBlock.encoding(), 0b0110);
        assert_eq!(Command::WriteTwoBytes.encoding(), 0b1000);
        assert_eq!(Command::WriteByte.encoding(), 0b1001);
    }

    #[test]
    fn encoding_round_trip() {
        // Every command's encoding fits CM0–CM3 and names it alone, so the
        // lines decode back to it; 0b0111 and 0b1111 are unassigned.
        let mut seen = std::collections::HashSet::new();
        for c in Command::ALL {
            assert!(c.encoding() < 16, "{c:?}");
            assert!(seen.insert(c.encoding()), "{c:?} shares its encoding");
        }
        assert!(!seen.contains(&0b0111) && !seen.contains(&0b1111));
    }

    #[test]
    fn handshake_edge_counts_match_figures() {
        // Figure 5.4: block transfer completes in four clock edges.
        assert_eq!(Command::BlockTransfer.handshake_edges(), 4);
        // Figure 5.12: first control block is an eight-edge handshake.
        assert_eq!(Command::FirstControlBlock.handshake_edges(), 8);
        // Figure 5.10: enqueue/dequeue take four clock edges.
        assert_eq!(Command::EnqueueControlBlock.handshake_edges(), 4);
        assert_eq!(Command::DequeueControlBlock.handshake_edges(), 4);
        // §5.3.3: read timing like first-control-block, write like enqueue.
        assert_eq!(Command::SimpleRead.handshake_edges(), 8);
        assert_eq!(Command::WriteTwoBytes.handshake_edges(), 4);
    }

    #[test]
    fn streaming_commands_flagged() {
        for c in Command::ALL {
            assert_eq!(
                c.is_streaming(),
                matches!(c, Command::BlockReadData | Command::BlockWriteData)
            );
        }
    }
}

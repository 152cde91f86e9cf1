//! The byte-addressable memory module behind the smart controller.

use smartbus::SlaveError;

/// A flat little-endian memory image.
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
}

impl Memory {
    /// Creates a zeroed memory of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds 64 KiB: the smart bus carries 16-bit
    /// addresses (§5.2), and the paper sizes the shared system data at under
    /// 64 KB.
    pub fn new(size: usize) -> Memory {
        assert!(size <= 64 * 1024, "smart bus addresses are 16 bits");
        Memory {
            bytes: vec![0; size],
        }
    }

    /// Memory size in bytes.
    pub(crate) fn size(&self) -> usize {
        self.bytes.len()
    }

    fn check(&self, addr: u16, len: u32) -> Result<(), SlaveError> {
        let end = u32::from(addr) + len;
        if end > self.bytes.len() as u32 {
            return Err(SlaveError::AddressOutOfRange { addr: end });
        }
        Ok(())
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`SlaveError::AddressOutOfRange`] past the end of the module.
    pub(crate) fn write_byte(&mut self, addr: u16, value: u8) -> Result<(), SlaveError> {
        self.check(addr, 1)?;
        self.bytes[addr as usize] = value;
        Ok(())
    }

    /// Reads a 16-bit word (little endian).
    ///
    /// # Errors
    ///
    /// [`SlaveError::AddressOutOfRange`] past the end of the module.
    pub fn read_word(&self, addr: u16) -> Result<u16, SlaveError> {
        self.check(addr, 2)?;
        let a = addr as usize;
        Ok(u16::from(self.bytes[a]) | (u16::from(self.bytes[a + 1]) << 8))
    }

    /// Writes a 16-bit word (little endian).
    ///
    /// # Errors
    ///
    /// [`SlaveError::AddressOutOfRange`] past the end of the module.
    pub(crate) fn write_word(&mut self, addr: u16, value: u16) -> Result<(), SlaveError> {
        self.check(addr, 2)?;
        let a = addr as usize;
        self.bytes[a] = value as u8;
        self.bytes[a + 1] = (value >> 8) as u8;
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`SlaveError::AddressOutOfRange`] past the end of the module.
    pub fn dump(&self, addr: u16, len: usize) -> Result<&[u8], SlaveError> {
        self.check(addr, len as u32)?;
        let a = addr as usize;
        Ok(&self.bytes[a..a + len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_round_trip_little_endian() {
        let mut m = Memory::new(256);
        m.write_word(10, 0xABCD).unwrap();
        assert_eq!(m.read_word(10).unwrap(), 0xABCD);
        assert_eq!(m.dump(10, 2).unwrap(), &[0xCD, 0xAB]);
    }

    #[test]
    fn bounds_checked() {
        let mut m = Memory::new(16);
        assert!(m.read_word(15).is_err());
        assert!(m.write_byte(16, 0).is_err());
        assert!(m.write_byte(15, 0).is_ok());
        assert!(m.write_word(15, 0).is_err());
        assert!(m.dump(0, 17).is_err());
    }

    #[test]
    #[should_panic(expected = "16 bits")]
    fn oversized_module_rejected() {
        Memory::new(64 * 1024 + 1);
    }

    #[test]
    fn load_and_dump_skip_cycles() {
        let mut m = Memory::new(32);
        // A loader writes the image directly, as a kernel's loader would,
        // with no memory cycle on the bus.
        m.bytes[4..7].copy_from_slice(&[9, 8, 7]);
        assert_eq!(m.dump(4, 3).unwrap(), &[9, 8, 7]);
    }
}

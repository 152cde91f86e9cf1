//! The wrapping hardware timer of the §3.3 measurement technique.

/// A free-running hardware interval timer of limited width, as found on the
/// profiled machines. Reads return the low bits of a microsecond counter;
/// the §3.3 procedure ("applying correction if the timer wraps around")
/// must handle wrap-around, which [`HardwareTimer::elapsed`] implements.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HardwareTimer {
    /// Counter width in bits.
    width: u32,
}

impl HardwareTimer {
    /// A timer with a counter of `width` bits (1..=32).
    ///
    /// # Panics
    ///
    /// Panics for widths outside 1..=32.
    pub(crate) fn new(width: u32) -> HardwareTimer {
        assert!((1..=32).contains(&width), "timer width out of range");
        HardwareTimer { width }
    }

    /// The 16-bit timer typical of the profiled hardware.
    pub(crate) fn sixteen_bit() -> HardwareTimer {
        HardwareTimer::new(16)
    }

    /// Modulus of the counter.
    pub(crate) fn modulus(&self) -> u64 {
        1u64 << self.width
    }

    /// Reads the timer at absolute time `now_us` (microseconds).
    pub(crate) fn read(&self, now_us: u64) -> u64 {
        now_us & (self.modulus() - 1)
    }

    /// Elapsed microseconds between two reads, correcting one wrap.
    ///
    /// Intervals longer than the timer period are irrecoverable (the real
    /// measurement had the same constraint); callers keep instrumented
    /// sections short.
    pub(crate) fn elapsed(&self, entry: u64, exit: u64) -> u64 {
        if exit >= entry {
            exit - entry
        } else {
            exit + self.modulus() - entry
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_modular() {
        let t = HardwareTimer::sixteen_bit();
        assert_eq!(t.read(65_535), 65_535);
        assert_eq!(t.read(65_536), 0);
        assert_eq!(t.read(65_540), 4);
    }

    #[test]
    fn wrap_corrected() {
        let t = HardwareTimer::sixteen_bit();
        let entry = t.read(65_530);
        let exit = t.read(65_536 + 10);
        assert_eq!(t.elapsed(entry, exit), 16);
    }

    #[test]
    fn no_wrap_direct() {
        let t = HardwareTimer::sixteen_bit();
        assert_eq!(t.elapsed(5, 105), 100);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn invalid_width() {
        HardwareTimer::new(0);
    }
}

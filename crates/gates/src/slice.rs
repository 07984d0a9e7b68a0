//! The 64-lane bit-slice word underlying every batch evaluation.
//!
//! One [`BitSlice64`] carries the value of a single net across 64
//! independent *lanes* — 64 die variants, 64 fault candidates, or 64
//! stimulus patterns evaluated in one machine word (industrial ATPG's
//! parallel-pattern single-fault-propagation encoding). Bit `l` of the
//! word is lane `l`'s value; lane 0 is conventionally the fault-free
//! golden reference in wafer screens.
//!
//! [`BatchSim`](crate::sim::BatchSim) stores one packed word per net
//! and evaluates cells directly on those words, so a NAND over 64 dies
//! costs one `!(a & b)`; it hands the words out as `BitSlice64`s.
//! Consumers that compare lanes (the `flexfab` tester, fault-coverage
//! sweeps) use the lane algebra here instead of re-deriving
//! shift-and-mask code at every call site.

/// A 64-lane packed bit value: bit `l` holds lane `l`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct BitSlice64(pub u64);

/// The lane mask selecting every lane.
pub const ALL_LANES: u64 = !0;

impl BitSlice64 {
    /// Number of lanes a slice carries.
    pub const LANES: u32 = 64;

    /// All lanes 0.
    pub const ZERO: BitSlice64 = BitSlice64(0);

    /// All lanes 1.
    pub const ONES: BitSlice64 = BitSlice64(!0);

    /// Broadcast one bit to every lane.
    #[inline]
    #[must_use]
    pub fn splat(bit: bool) -> Self {
        BitSlice64(if bit { !0 } else { 0 })
    }

    /// Lane `l`'s bit.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    #[inline]
    #[must_use]
    pub fn lane(self, lane: u32) -> bool {
        assert!(lane < Self::LANES);
        (self.0 >> lane) & 1 == 1
    }

    /// This slice with the lanes selected by `mask` driven to `bit`
    /// (unselected lanes keep their value).
    #[inline]
    #[must_use]
    pub fn drive(self, bit: bool, mask: u64) -> Self {
        BitSlice64(if bit { self.0 | mask } else { self.0 & !mask })
    }

    /// Broadcast lane `reference`'s bit across all lanes: the word to
    /// XOR against when asking "which lanes disagree with lane N?".
    #[inline]
    #[must_use]
    pub fn broadcast_lane(self, reference: u32) -> Self {
        Self::splat(self.lane(reference))
    }

    /// The set of lanes whose bit differs from lane `reference`'s, as a
    /// lane mask. Wafer screens fold this over every observable output
    /// bit to find the dies that diverged from the golden lane.
    #[inline]
    #[must_use]
    pub fn lanes_differing_from(self, reference: u32) -> u64 {
        (self ^ self.broadcast_lane(reference)).0
    }

    /// Apply per-lane stuck-at masks: lanes in `sa0` are forced to 0,
    /// then lanes in `sa1` are forced to 1 (stuck-at-1 wins a
    /// contradictory double injection, as in
    /// [`BatchSim`](crate::sim::BatchSim)'s [`FaultMask`](crate::sim::FaultMask)s).
    #[inline]
    #[must_use]
    pub fn stuck(self, sa0: u64, sa1: u64) -> Self {
        BitSlice64((self.0 & !sa0) | sa1)
    }

    /// Gather one multi-bit value for lane `l` from a little-endian bus
    /// of slices (`bus[b]` carries bit `b` of every lane).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    #[must_use]
    pub fn gather(bus: &[BitSlice64], lane: u32) -> u64 {
        let mut v = 0u64;
        for (bit, slice) in bus.iter().enumerate() {
            v |= u64::from(slice.lane(lane)) << bit;
        }
        v
    }
}

impl core::ops::BitXor for BitSlice64 {
    type Output = BitSlice64;
    #[inline]
    fn bitxor(self, rhs: Self) -> Self {
        BitSlice64(self.0 ^ rhs.0)
    }
}

impl From<u64> for BitSlice64 {
    fn from(v: u64) -> Self {
        BitSlice64(v)
    }
}

impl From<BitSlice64> for u64 {
    fn from(s: BitSlice64) -> u64 {
        s.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_lane_round_trip() {
        assert_eq!(BitSlice64::splat(true), BitSlice64::ONES);
        assert_eq!(BitSlice64::splat(false), BitSlice64::ZERO);
        let s = BitSlice64(1 << 17);
        assert!(s.lane(17));
        assert!(!s.lane(16));
    }

    #[test]
    fn drive_touches_only_selected_lanes() {
        let s = BitSlice64(0b1010).drive(true, 0b0100).drive(false, 0b1000);
        assert_eq!(s.0, 0b0110);
    }

    #[test]
    fn differing_lanes_against_golden() {
        // lane 0 = 1; lanes 3 and 5 = 0, everything else 1
        let s = BitSlice64(!((1u64 << 3) | (1 << 5)));
        assert_eq!(s.lanes_differing_from(0), (1 << 3) | (1 << 5));
        // against lane 3 (value 0), everyone *else* differs
        assert_eq!(s.lanes_differing_from(3), s.0);
    }

    #[test]
    fn stuck_at_one_wins_double_injection() {
        let lane = 1u64 << 9;
        assert_eq!(BitSlice64::ZERO.stuck(lane, lane).0, lane);
    }

    #[test]
    fn gather_reads_a_bus_column() {
        let bus = [BitSlice64(0), BitSlice64(1 << 4), BitSlice64(!0)];
        assert_eq!(BitSlice64::gather(&bus, 4), 0b110);
        assert_eq!(BitSlice64::gather(&bus, 0), 0b100);
    }
}

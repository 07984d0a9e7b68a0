//! A/B update partitions with a two-phase commit marker.
//!
//! The die's external store is split into two image slots plus a tiny
//! control region (both SECDED-protected). Updates always land in the
//! *inactive* slot; the active image is never modified, so a power cut
//! during staging costs nothing. The swap itself is a three-write
//! commit protocol over two control words:
//!
//! 1. write the **staged marker** `{from, to}`;
//! 2. write the **active pointer** to the new slot;
//! 3. erase the marker — *this write is the commit point*.
//!
//! On boot, a surviving staged marker means the swap never committed:
//! the boot path restores `active = from` and erases the marker, so
//! the die runs the old image. A torn control word (the power model
//! can tear exactly one write) decodes as invalid, and boot falls back
//! to whichever slot *authenticates* — the HMAC page of
//! [`crate::auth`] is the backstop against a torn word that happens to
//! decode to a valid-looking value.
//!
//! Control-word encodings are chosen for Hamming distance on top of
//! the SECDED code: `A = 0x33`, `B = 0xCC`, marker erased `= 0x00`,
//! staged `= 0x50 | from << 2 | to`.

use crate::auth::Metadata;
use crate::ecc::Decoded;
use crate::store::{EccStore, PAGE_BYTES};
use flexicore::program::Program;
use flexicore::sim::PowerCut;

/// One of the two image partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// The A partition (the factory image's home).
    A,
    /// The B partition.
    B,
}

impl Slot {
    /// Index into the slot array.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Slot::A => 0,
            Slot::B => 1,
        }
    }

    /// The other slot.
    #[must_use]
    pub fn other(self) -> Slot {
        match self {
            Slot::A => Slot::B,
            Slot::B => Slot::A,
        }
    }

    fn bit(self) -> u8 {
        self.index() as u8
    }

    fn from_bit(bit: u8) -> Slot {
        if bit == 0 {
            Slot::A
        } else {
            Slot::B
        }
    }
}

/// Active-pointer encoding for slot A.
const ACTIVE_A: u8 = 0x33;
/// Active-pointer encoding for slot B.
const ACTIVE_B: u8 = 0xCC;
/// Erased (committed) marker.
const MARKER_ERASED: u8 = 0x00;
/// Staged-marker tag bits; the low nibble carries `from << 2 | to`.
const MARKER_STAGED: u8 = 0x50;

/// Control word index of the active pointer.
const CTRL_ACTIVE: usize = 0;
/// Control word index of the commit marker.
const CTRL_MARKER: usize = 1;

/// What the commit-marker word says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Marker {
    /// No swap in flight.
    Erased,
    /// A swap from `from` to `to` was staged but never committed.
    Staged {
        /// The slot that was active when the swap began.
        from: Slot,
        /// The slot the swap was promoting.
        to: Slot,
    },
    /// The word decodes to no valid marker (torn or decayed).
    Invalid,
}

/// How a boot resolved the control region and slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Boot {
    /// The slot the die is running from.
    pub slot: Slot,
    /// The authenticated metadata of the booted image.
    pub metadata: Metadata,
    /// The booted image, decoded through the ECC read path.
    pub program: Program,
    /// `true` if a surviving staged marker forced a roll back to the
    /// pre-update image.
    pub rolled_back: bool,
    /// `true` if the active pointer was torn or pointed at a slot that
    /// failed authentication, and boot repaired it from the slots'
    /// contents.
    pub repaired_pointer: bool,
}

/// Neither slot holds an image that authenticates: the die cannot boot.
/// The soak campaigns count any occurrence as a bricked die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bricked;

impl core::fmt::Display for Bricked {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "no slot authenticates; die cannot boot")
    }
}

/// The dual-slot store: two image partitions and the control region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DualStore {
    slots: [EccStore; 2],
    ctrl: EccStore,
    capacity: usize,
}

impl DualStore {
    /// An erased dual store whose slots each hold a metadata page plus
    /// up to `capacity` image bytes.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        DualStore {
            slots: [EccStore::erased(0), EccStore::erased(0)],
            ctrl: EccStore::erased(2),
            capacity,
        }
    }

    /// Image bytes one slot can hold (excluding the metadata page).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Largest update wire size a slot accepts: metadata page plus
    /// image.
    #[must_use]
    pub fn slot_bytes(&self) -> usize {
        PAGE_BYTES + self.capacity
    }

    /// A slot's backing store.
    #[must_use]
    pub fn slot(&self, slot: Slot) -> &EccStore {
        &self.slots[slot.index()]
    }

    /// Mutable access to a slot's backing store (upset injection).
    pub fn slot_mut(&mut self, slot: Slot) -> &mut EccStore {
        &mut self.slots[slot.index()]
    }

    /// Erase `slot` and size it for a `bytes`-byte update, returning
    /// the staging store to transfer into.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds [`DualStore::slot_bytes`] — callers
    /// must bounds-check the update first.
    pub fn stage_begin(&mut self, slot: Slot, bytes: usize) -> &mut EccStore {
        assert!(bytes <= self.slot_bytes(), "update exceeds slot capacity");
        self.slots[slot.index()] = EccStore::erased(bytes);
        &mut self.slots[slot.index()]
    }

    /// Decode a control word; uncorrectable words read as `None`.
    fn ctrl_word(&self, word: usize) -> Option<u8> {
        match self.ctrl.read_word(word) {
            Decoded::Clean(b) | Decoded::Corrected(b) => Some(b),
            Decoded::Uncorrectable(_) => None,
        }
    }

    /// The active pointer, if it decodes to a valid slot.
    #[must_use]
    pub fn active_slot(&self) -> Option<Slot> {
        match self.ctrl_word(CTRL_ACTIVE) {
            Some(ACTIVE_A) => Some(Slot::A),
            Some(ACTIVE_B) => Some(Slot::B),
            _ => None,
        }
    }

    /// The commit marker's state.
    #[must_use]
    pub fn marker(&self) -> Marker {
        match self.ctrl_word(CTRL_MARKER) {
            Some(MARKER_ERASED) => Marker::Erased,
            // only the two from != to encodings are valid markers
            Some(b) if b == MARKER_STAGED | 0b001 || b == MARKER_STAGED | 0b100 => Marker::Staged {
                from: Slot::from_bit((b >> 2) & 1),
                to: Slot::from_bit(b & 1),
            },
            _ => Marker::Invalid,
        }
    }

    /// Phase 1 of the swap: record `{from, to}` in the marker word.
    /// Returns `true` iff the write committed.
    pub fn stage_mark(&mut self, from: Slot, to: Slot, power: &mut PowerCut) -> bool {
        let encoded = MARKER_STAGED | from.bit() << 2 | to.bit();
        self.ctrl.write_word_with(CTRL_MARKER, encoded, power)
    }

    /// Phase 2: point the active word at `slot`.
    pub fn set_active(&mut self, slot: Slot, power: &mut PowerCut) -> bool {
        let encoded = match slot {
            Slot::A => ACTIVE_A,
            Slot::B => ACTIVE_B,
        };
        self.ctrl.write_word_with(CTRL_ACTIVE, encoded, power)
    }

    /// Phase 3, the commit point: erase the marker.
    pub fn clear_marker(&mut self, power: &mut PowerCut) -> bool {
        self.ctrl.write_word_with(CTRL_MARKER, MARKER_ERASED, power)
    }

    /// Authenticate one slot's content under `key`: parse the metadata
    /// page, verify the HMAC tag, bounds-check the claimed length and
    /// match the image digest. Returns the metadata and decoded image
    /// on success.
    #[must_use]
    pub fn authenticate(&self, slot: Slot, key: &[u8]) -> Option<(Metadata, Vec<u8>)> {
        let store = self.slot(slot);
        if store.len() < PAGE_BYTES {
            return None;
        }
        let bytes = store.materialize();
        // a bad page anywhere in the slot poisons authentication: the
        // decoded bytes there are best-effort guesses
        if !bytes.bad_pages.is_empty() {
            return None;
        }
        let raw = bytes.program.as_bytes();
        let meta = Metadata::verify(&raw[..PAGE_BYTES], key).ok()?;
        let image = raw.get(PAGE_BYTES..PAGE_BYTES + meta.length as usize)?;
        if !meta.matches_image(image) {
            return None;
        }
        Some((meta, image.to_vec()))
    }

    /// Power-on boot: resolve the commit protocol, repair the control
    /// region if torn, and hand back an image that *authenticates* —
    /// or report the die bricked if neither slot does.
    ///
    /// Boot runs on restored power, so its own control-word repairs
    /// are modelled as clean writes.
    pub fn boot(&mut self, key: &[u8]) -> Result<Boot, Bricked> {
        let mut power = PowerCut::never();
        let mut rolled_back = false;
        let mut repaired = false;

        match self.marker() {
            Marker::Erased => {}
            Marker::Staged { from, .. } => {
                // the swap never committed: restore the old image
                self.set_active(from, &mut power);
                self.clear_marker(&mut power);
                rolled_back = true;
            }
            Marker::Invalid => {
                // a torn marker word: erase it. The active pointer (if
                // valid) still names the image to prefer — a cut on
                // the stage-mark write must boot the *old* image, not
                // the fully staged new one.
                self.clear_marker(&mut power);
                repaired = true;
            }
        }

        let candidates: [Slot; 2] = match self.active_slot() {
            Some(active) => [active, active.other()],
            None => {
                // torn pointer: prefer the slot with the highest
                // authenticated version
                repaired = true;
                let va = self.authenticate(Slot::A, key).map(|(m, _)| m.version);
                let vb = self.authenticate(Slot::B, key).map(|(m, _)| m.version);
                if vb > va {
                    [Slot::B, Slot::A]
                } else {
                    [Slot::A, Slot::B]
                }
            }
        };

        for (i, slot) in candidates.into_iter().enumerate() {
            if let Some((metadata, image)) = self.authenticate(slot, key) {
                let repaired_pointer = repaired || i > 0;
                if repaired_pointer || self.active_slot() != Some(slot) {
                    self.set_active(slot, &mut power);
                }
                return Ok(Boot {
                    slot,
                    metadata,
                    program: Program::from_bytes(image),
                    rolled_back,
                    repaired_pointer,
                });
            }
        }
        Err(Bricked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::sign_update;
    use flexicore::isa::Dialect;

    const KEY: &[u8] = b"unit-key";

    fn image(byte: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| byte.wrapping_add(i as u8)).collect()
    }

    /// Write a signed update straight into a slot (clean local write).
    fn flash(store: &mut DualStore, slot: Slot, img: &[u8], version: u64) {
        let update = sign_update(Dialect::Fc4, img, version, KEY);
        let wire = update.wire_bytes();
        store.stage_begin(slot, wire.len()).write_image(&wire);
    }

    fn provisioned(img: &[u8], version: u64) -> DualStore {
        let mut store = DualStore::new(256);
        flash(&mut store, Slot::A, img, version);
        store.set_active(Slot::A, &mut PowerCut::never());
        store.clear_marker(&mut PowerCut::never());
        store
    }

    #[test]
    fn provisioned_store_boots_slot_a() {
        let img = image(7, 100);
        let mut store = provisioned(&img, 1);
        let boot = store.boot(KEY).unwrap();
        assert_eq!(boot.slot, Slot::A);
        assert_eq!(boot.metadata.version, 1);
        assert_eq!(boot.program.as_bytes(), &img[..]);
        assert!(!boot.rolled_back && !boot.repaired_pointer);
    }

    #[test]
    fn committed_swap_boots_the_new_image() {
        let old = image(1, 64);
        let new = image(2, 80);
        let mut store = provisioned(&old, 1);
        flash(&mut store, Slot::B, &new, 2);
        let mut power = PowerCut::never();
        assert!(store.stage_mark(Slot::A, Slot::B, &mut power));
        assert!(store.set_active(Slot::B, &mut power));
        assert!(store.clear_marker(&mut power));
        let boot = store.boot(KEY).unwrap();
        assert_eq!(boot.slot, Slot::B);
        assert_eq!(boot.metadata.version, 2);
        assert_eq!(boot.program.as_bytes(), &new[..]);
        assert!(!boot.rolled_back);
    }

    #[test]
    fn surviving_marker_rolls_back_to_the_old_image() {
        let old = image(1, 64);
        let new = image(2, 64);
        let mut store = provisioned(&old, 1);
        flash(&mut store, Slot::B, &new, 2);
        let mut power = PowerCut::never();
        store.stage_mark(Slot::A, Slot::B, &mut power);
        store.set_active(Slot::B, &mut power);
        // power lost before the marker erase: the commit never happened
        let boot = store.boot(KEY).unwrap();
        assert_eq!(boot.slot, Slot::A, "boots the pre-update image");
        assert_eq!(boot.program.as_bytes(), &old[..]);
        assert!(boot.rolled_back);
        assert_eq!(store.marker(), Marker::Erased);
        assert_eq!(store.active_slot(), Some(Slot::A));
    }

    #[test]
    fn torn_active_pointer_is_repaired_by_authentication() {
        let img = image(9, 64);
        let mut store = provisioned(&img, 3);
        // tear the active word into an uncorrectable state
        store.ctrl.flip_bit(0, 0);
        store.ctrl.flip_bit(0, 5);
        assert_eq!(store.active_slot(), None);
        let boot = store.boot(KEY).unwrap();
        assert_eq!(boot.slot, Slot::A);
        assert!(boot.repaired_pointer);
        assert_eq!(store.active_slot(), Some(Slot::A), "pointer rewritten");
    }

    #[test]
    fn torn_pointer_prefers_the_higher_authenticated_version() {
        let mut store = provisioned(&image(1, 64), 1);
        flash(&mut store, Slot::B, &image(2, 64), 5);
        store.ctrl.flip_bit(0, 1);
        store.ctrl.flip_bit(0, 6);
        let boot = store.boot(KEY).unwrap();
        assert_eq!(boot.slot, Slot::B, "highest authenticated version wins");
        assert_eq!(boot.metadata.version, 5);
    }

    #[test]
    fn active_slot_failing_auth_falls_back_to_the_other() {
        let old = image(1, 64);
        let mut store = provisioned(&old, 1);
        flash(&mut store, Slot::B, &image(2, 64), 2);
        store.set_active(Slot::B, &mut PowerCut::never());
        // decay slot B beyond correction: its image no longer
        // authenticates
        store.slot_mut(Slot::B).flip_bit(PAGE_BYTES + 3, 0);
        store.slot_mut(Slot::B).flip_bit(PAGE_BYTES + 3, 8);
        let boot = store.boot(KEY).unwrap();
        assert_eq!(boot.slot, Slot::A);
        assert!(boot.repaired_pointer);
        assert_eq!(boot.program.as_bytes(), &old[..]);
    }

    #[test]
    fn empty_store_is_bricked() {
        let mut store = DualStore::new(128);
        assert_eq!(store.boot(KEY), Err(Bricked));
    }

    #[test]
    fn tampered_slot_never_boots() {
        let mut store = provisioned(&image(4, 64), 1);
        // single-bit image tamper *below* ECC (a clean re-encode of a
        // different byte): digest catches what SECDED cannot
        let mut raw = store
            .slot(Slot::A)
            .materialize()
            .program
            .as_bytes()
            .to_vec();
        raw[PAGE_BYTES + 10] ^= 0x01;
        store.stage_begin(Slot::A, raw.len()).write_image(&raw);
        assert_eq!(store.boot(KEY), Err(Bricked));
    }

    #[test]
    fn marker_encodings_reject_from_equals_to() {
        let mut store = DualStore::new(64);
        // hand-write an invalid staged marker (from == to)
        store
            .ctrl
            .write_word_with(1, MARKER_STAGED | 0b101, &mut PowerCut::never());
        assert_eq!(store.marker(), Marker::Invalid);
    }
}

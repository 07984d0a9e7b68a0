//! Program images for the off-chip program memory.
//!
//! FlexiCores are *field reprogrammable*: the program lives in an external
//! memory and is fetched byte-by-byte over a dedicated instruction bus
//! (§3.3). A [`Program`] is that external memory's contents. Programs larger
//! than one 128-byte page rely on the off-chip [`Mmu`](crate::mmu::Mmu) to
//! switch pages.

use crate::mmu::PAGE_COUNT;

/// Bytes per program page (the reach of the 7-bit program counter).
pub const PAGE_BYTES: usize = 128;

/// An immutable program image held in the external program memory.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Program {
    bytes: Vec<u8>,
}

impl Program {
    /// An empty program.
    #[must_use]
    pub fn new() -> Self {
        Program::default()
    }

    /// Build from raw machine-code bytes.
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds the 16-page (2048-byte) address space
    /// reachable through the MMU.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        assert!(
            bytes.len() <= PAGE_BYTES * PAGE_COUNT,
            "program of {} bytes exceeds the {}-byte MMU-extended address space",
            bytes.len(),
            PAGE_BYTES * PAGE_COUNT
        );
        Program { bytes }
    }

    /// The byte at `address`, if within the image.
    #[must_use]
    pub fn fetch(&self, address: u32) -> Option<u8> {
        self.bytes.get(address as usize).copied()
    }

    /// A slice starting at `address` (empty if out of range); used by
    /// multi-byte instruction decoders.
    #[must_use]
    pub fn window(&self, address: u32) -> &[u8] {
        self.bytes.get(address as usize..).unwrap_or(&[])
    }

    /// Total image size in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` if the image holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Number of 128-byte pages the image occupies (rounded up).
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.bytes.len().div_ceil(PAGE_BYTES)
    }

    /// `true` if the program fits in a single page and therefore does not
    /// need the off-chip MMU.
    #[must_use]
    pub fn fits_one_page(&self) -> bool {
        self.bytes.len() <= PAGE_BYTES
    }

    /// The raw bytes of the image.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl From<Vec<u8>> for Program {
    fn from(bytes: Vec<u8>) -> Self {
        Program::from_bytes(bytes)
    }
}

impl AsRef<[u8]> for Program {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl FromIterator<u8> for Program {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Program::from_bytes(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_and_window() {
        let p = Program::from_bytes(vec![1, 2, 3]);
        assert_eq!(p.fetch(0), Some(1));
        assert_eq!(p.fetch(2), Some(3));
        assert_eq!(p.fetch(3), None);
        assert_eq!(p.window(1), &[2, 3]);
        assert_eq!(p.window(99), &[] as &[u8]);
    }

    #[test]
    fn page_accounting() {
        assert_eq!(Program::new().page_count(), 0);
        assert!(Program::from_bytes(vec![0; 128]).fits_one_page());
        let two = Program::from_bytes(vec![0; 129]);
        assert!(!two.fits_one_page());
        assert_eq!(two.page_count(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_program_rejected() {
        let _ = Program::from_bytes(vec![0; 128 * 16 + 1]);
    }

    #[test]
    fn collect_from_iterator() {
        let p: Program = (0u8..4).collect();
        assert_eq!(p.as_bytes(), &[0, 1, 2, 3]);
    }
}

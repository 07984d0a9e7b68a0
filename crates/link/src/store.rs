//! The SECDED-protected external program store.
//!
//! The store keeps one 13-bit code word per program byte, organised in
//! 128-byte pages (the §5.1 MMU page granularity on the byte-addressed
//! dialects, and the transfer-frame unit on all of them). Reads decode
//! through the ECC, so a single-bit upset never reaches the core;
//! [`EccStore::scrub`] sweeps the whole store, rewriting corrected
//! words in place and reporting the pages whose words have decayed
//! beyond correction so the link layer can reprogram them.

use crate::ecc::{self, Decoded};
use flexicore::program::Program;
use flexicore::sim::PowerCut;

/// Bytes per store page: one §5.1 page of a byte-addressed dialect and
/// one transfer frame's payload.
pub const PAGE_BYTES: usize = 128;

/// Result of decoding the whole store into an executable image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Materialized {
    /// The decoded image (best-effort bytes on uncorrectable words).
    pub program: Program,
    /// Words whose single-bit upsets the read path corrected. The
    /// store itself still holds the corrupt words until a scrub.
    pub corrected: usize,
    /// Pages containing at least one uncorrectable word; the image
    /// bytes there are untrustworthy and the pages need reprogramming.
    pub bad_pages: Vec<usize>,
}

/// One background-scrub sweep's findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Words corrected and rewritten in place.
    pub corrected: usize,
    /// Words beyond correction (left untouched).
    pub uncorrectable: usize,
    /// Pages containing at least one uncorrectable word.
    pub bad_pages: Vec<usize>,
}

/// The external program store: SECDED words, page-organised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EccStore {
    words: Vec<u16>,
}

impl EccStore {
    /// An erased store sized for `bytes` program bytes (every word
    /// holds an encoded zero, so an unprogrammed store decodes clean).
    #[must_use]
    pub fn erased(bytes: usize) -> Self {
        EccStore {
            words: vec![ecc::encode(0); bytes],
        }
    }

    /// Capacity in program bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the store holds no words at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of (possibly partial) pages.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.words.len().div_ceil(PAGE_BYTES)
    }

    /// The word range backing `page`, clamped to the store size.
    fn page_range(&self, page: usize) -> core::ops::Range<usize> {
        let start = (page * PAGE_BYTES).min(self.words.len());
        let end = ((page + 1) * PAGE_BYTES).min(self.words.len());
        start..end
    }

    /// Encode and write one page of data bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or `data` does not match the
    /// page's size — the protocol layer frames pages exactly, so a
    /// mismatch is a bug, not a link condition.
    pub fn write_page(&mut self, page: usize, data: &[u8]) {
        self.write_page_with(page, data, &mut PowerCut::never());
    }

    /// Encode and write a whole image page by page: a clean local write
    /// (factory provisioning, the prior-image fallback), no channel.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not exactly as long as the store.
    pub fn write_image(&mut self, image: &[u8]) {
        assert_eq!(image.len(), self.len(), "image does not fit the store");
        for (page, chunk) in image.chunks(PAGE_BYTES).enumerate() {
            self.write_page(page, chunk);
        }
    }

    /// [`EccStore::write_page`] with a [`PowerCut`] in the write path:
    /// every code word passes through `power`, which may tear one write
    /// (a seeded mix of old and new bits lands in the store) and lose
    /// every write after it. Returns `true` iff every word committed
    /// cleanly.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`EccStore::write_page`].
    pub fn write_page_with(&mut self, page: usize, data: &[u8], power: &mut PowerCut) -> bool {
        let range = self.page_range(page);
        assert!(
            !range.is_empty() && range.len() == data.len(),
            "page {page} write of {} bytes into a {}-word window",
            data.len(),
            range.len(),
        );
        let mut clean = true;
        for (word, &byte) in self.words[range].iter_mut().zip(data) {
            clean &= committed(word, ecc::encode(byte), power);
        }
        clean
    }

    /// Write one program byte's code word through a [`PowerCut`].
    /// Returns `true` iff the write committed cleanly (not torn, not
    /// lost).
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub fn write_word_with(&mut self, word: usize, byte: u8, power: &mut PowerCut) -> bool {
        committed(&mut self.words[word], ecc::encode(byte), power)
    }

    /// Decode one stored word — the partition layer reads its control
    /// words through this, so a torn word is seen as what it is rather
    /// than best-effort data.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    #[must_use]
    pub fn read_word(&self, word: usize) -> Decoded {
        ecc::decode(self.words[word])
    }

    /// Decode one page's data bytes (best effort on uncorrectable
    /// words), for read-back verification.
    #[must_use]
    pub fn read_page(&self, page: usize) -> Vec<u8> {
        self.words[self.page_range(page)]
            .iter()
            .map(|&w| ecc::decode(w).data())
            .collect()
    }

    /// Flip one stored bit — the upset-injection hook for campaigns.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range or `bit` is not a code bit.
    pub fn flip_bit(&mut self, word: usize, bit: u8) {
        assert!(
            u32::from(bit) < ecc::CODE_BITS,
            "bit {bit} outside the code word"
        );
        self.words[word] ^= 1 << bit;
    }

    /// Decode the whole store into an executable [`Program`].
    #[must_use]
    pub fn materialize(&self) -> Materialized {
        let mut bytes = Vec::with_capacity(self.words.len());
        let mut corrected = 0;
        let mut bad_pages = Vec::new();
        for (i, &word) in self.words.iter().enumerate() {
            let decoded = ecc::decode(word);
            match decoded {
                Decoded::Clean(_) => {}
                Decoded::Corrected(_) => corrected += 1,
                Decoded::Uncorrectable(_) => {
                    let page = i / PAGE_BYTES;
                    if bad_pages.last() != Some(&page) {
                        bad_pages.push(page);
                    }
                }
            }
            bytes.push(decoded.data());
        }
        Materialized {
            program: Program::from_bytes(bytes),
            corrected,
            bad_pages,
        }
    }

    /// Sweep every word, rewriting corrected words in place and
    /// reporting what was found. Uncorrectable words are left exactly
    /// as they are: only a reprogramming of their page can repair them.
    pub fn scrub(&mut self) -> ScrubReport {
        self.scrub_with(&mut PowerCut::never())
    }

    /// [`EccStore::scrub`] with a [`PowerCut`] on the heal-write path —
    /// background scrubbing runs whenever the die is powered, so a
    /// supply collapse lands mid-sweep as readily as mid-update.
    ///
    /// Power loss during a scrub is harmless *by construction*: a heal
    /// rewrite differs from the stored word in exactly the one failing
    /// bit, so a torn write lands on either the old word (still
    /// correctable) or the new word (clean) — never on a third, worse
    /// value — and a lost write simply leaves the correctable word for
    /// the next sweep. `corrected` counts only words that actually
    /// decode clean after their rewrite.
    pub fn scrub_with(&mut self, power: &mut PowerCut) -> ScrubReport {
        let mut report = ScrubReport::default();
        for (i, word) in self.words.iter_mut().enumerate() {
            match ecc::decode(*word) {
                Decoded::Clean(_) => {}
                Decoded::Corrected(data) => {
                    committed(word, ecc::encode(data), power);
                    if matches!(ecc::decode(*word), Decoded::Clean(_)) {
                        report.corrected += 1;
                    }
                }
                Decoded::Uncorrectable(_) => {
                    report.uncorrectable += 1;
                    let page = i / PAGE_BYTES;
                    if report.bad_pages.last() != Some(&page) {
                        report.bad_pages.push(page);
                    }
                }
            }
        }
        report
    }
}

/// Route one word write through the power model; a torn mix still
/// lands in the store, a lost write leaves the old word.
fn committed(word: &mut u16, new: u16, power: &mut PowerCut) -> bool {
    let effect = power.on_write(*word, new);
    if let Some(stored) = effect.stored() {
        *word = stored;
    }
    matches!(effect, flexicore::sim::WriteEffect::Committed(_))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn programmed(bytes: &[u8]) -> EccStore {
        let mut store = EccStore::erased(bytes.len());
        store.write_image(bytes);
        store
    }

    #[test]
    fn write_then_materialize_round_trips() {
        let image: Vec<u8> = (0..200u16).map(|i| (i * 7) as u8).collect();
        let store = programmed(&image);
        let m = store.materialize();
        assert_eq!(m.program.as_bytes(), &image[..]);
        assert_eq!(m.corrected, 0);
        assert!(m.bad_pages.is_empty());
    }

    #[test]
    fn single_upset_is_corrected_on_read_and_healed_by_scrub() {
        let image = vec![0x3Cu8; 130];
        let mut store = programmed(&image);
        store.flip_bit(129, 5);
        let m = store.materialize();
        assert_eq!(m.program.as_bytes(), &image[..], "read path corrects");
        assert_eq!(m.corrected, 1);
        assert!(m.bad_pages.is_empty());

        let report = store.scrub();
        assert_eq!(report.corrected, 1);
        assert_eq!(report.uncorrectable, 0);
        assert_eq!(store.scrub(), ScrubReport::default(), "healed in place");
    }

    #[test]
    fn double_upset_marks_the_page_bad() {
        let image = vec![0xAAu8; 300];
        let mut store = programmed(&image);
        store.flip_bit(150, 0);
        store.flip_bit(150, 7);
        let m = store.materialize();
        assert_eq!(m.bad_pages, vec![1]);
        let report = store.scrub();
        assert_eq!(report.uncorrectable, 1);
        assert_eq!(report.bad_pages, vec![1]);

        // reprogramming the page is the only repair
        store.write_page(1, &image[PAGE_BYTES..2 * PAGE_BYTES]);
        assert!(store.scrub().bad_pages.is_empty());
        assert_eq!(store.materialize().program.as_bytes(), &image[..]);
    }

    #[test]
    fn power_cut_tears_one_word_and_loses_the_rest() {
        let image = vec![0x5Au8; PAGE_BYTES];
        let mut store = EccStore::erased(PAGE_BYTES);
        let mut power = PowerCut::at_write(10, 77);
        assert!(!store.write_page_with(0, &image, &mut power));
        assert!(power.has_fired());
        // the first ten words committed; everything at or past the cut
        // either tore or was lost entirely
        let bytes = store.read_page(0);
        assert_eq!(&bytes[..10], &image[..10]);
        assert_eq!(
            &bytes[11..],
            &vec![0u8; PAGE_BYTES - 11][..],
            "writes after the cut are lost (erased store decodes zero)"
        );
        // a later write attempt on dead power changes nothing
        let before = store.clone();
        assert!(!store.write_word_with(0, 0xFF, &mut power));
        assert_eq!(store, before);
    }

    #[test]
    fn unarmed_power_writes_commit_cleanly() {
        let image = vec![0xC3u8; 64];
        let mut store = EccStore::erased(64);
        assert!(store.write_page_with(0, &image, &mut PowerCut::never()));
        assert_eq!(store.read_page(0), image);
        assert!(store.write_word_with(3, 0x11, &mut PowerCut::never()));
        assert_eq!(store.read_page(0)[3], 0x11);
    }

    #[test]
    fn read_word_reports_decode_state() {
        let mut store = EccStore::erased(4);
        store.write_page(0, &[1, 2, 3, 4]);
        assert_eq!(store.read_word(1), Decoded::Clean(2));
        store.flip_bit(1, 0);
        assert!(matches!(store.read_word(1), Decoded::Corrected(2)));
        store.flip_bit(1, 7);
        assert!(matches!(store.read_word(1), Decoded::Uncorrectable(_)));
    }

    #[test]
    fn erased_store_decodes_clean_zeros() {
        let store = EccStore::erased(64);
        let m = store.materialize();
        assert_eq!(m.program.as_bytes(), &[0u8; 64][..]);
        assert_eq!(m.corrected, 0);
    }
}

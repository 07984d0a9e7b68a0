//! Static fault-vulnerability analysis (DESIGN.md §15).
//!
//! Classifies every architectural fault site of the universe
//! [`StateElement::all`] spans — PC, accumulator, data cells, fetch bus,
//! IO ports, MMU page register and pending-commit latch — against one
//! program, using the same converged dataflow fixpoint [`crate::analyze`]
//! derives its lints from.
//!
//! The masking criterion is deliberately strict. Fault planes reassert
//! permanent stuck-at bits after *every* retired instruction (and once
//! before the first fetch), so "the program overwrites the value before
//! using it" proves nothing — the stuck bit is back before the next
//! read. An element is [`SiteClass::ProvablyMasked`] only when **no
//! reachable instruction observes it at all**; then any corruption of
//! the element (either stuck-at polarity, or a transient flip) is
//! invisible to every I/O-observable behaviour: the output stream, the
//! halt/crash/hang status, the error identity, and the cycle and
//! instruction counts.
//!
//! The claim deliberately excludes raw architectural *end-state*: a
//! stuck bit in a never-read memory word still changes what a
//! post-mortem snapshot of that word contains. Campaign pruning and the
//! differential soundness harness compare observable behaviour, which
//! is what the paper's §4.1 tester (and every oracle in this repo)
//! measures.
//!
//! On top of the element verdicts sits a per-bit *polarity* refinement:
//! for a live element, a bit proven constant at every point the element
//! is observed masks the matching-polarity stuck-at — the forced value
//! equals the natural value, so execution follows the fault-free path
//! bit-for-bit. The argument is inductive over retired instructions and
//! therefore composes across any set of simultaneously-injected faults
//! that each satisfy [`VulnReport::is_masked_fault`]. Transient flips
//! are never masked this way: a flip inverts whatever the wire carries.
//!
//! Every verdict an analysis run can be wrong about is checked
//! empirically: [`crate::soundness::run_vuln_campaign`] injects every
//! provably-masked site *and* every polarity-refined stuck-at of seeded
//! random programs through the real engine and fails on a single
//! observable difference.

use std::collections::BTreeSet;

use flexasm::Target;
use flexicore::exec::PC_MASK;
use flexicore::isa::Dialect;
use flexicore::sim::fault::PAGE_MASK;
use flexicore::sim::StateElement;
use flexicore::Program;
use flexshard::{fnv1a, FNV_OFFSET};

use crate::cfg::{Analysis, NODE_SPACE};
use crate::sem::{fetch_address, transfer, Crash};

/// The verdict lattice for one fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SiteClass {
    /// No reachable instruction observes this element: any fault on it
    /// leaves every I/O-observable behaviour bit-for-bit unchanged.
    ProvablyMasked,
    /// Some reachable instruction may observe the element; a fault here
    /// may (but need not) escape to an output, crash, or hang.
    ReachableLive,
    /// The analysis lost precision (fuel exhaustion on a hostile
    /// image), so no masking claim is made for any site.
    Unknown,
}

impl SiteClass {
    /// Compact label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SiteClass::ProvablyMasked => "masked",
            SiteClass::ReachableLive => "live",
            SiteClass::Unknown => "unknown",
        }
    }
}

/// The classification of one state element (all bits of an element
/// share a verdict: deadness is a property of the element's reads, not
/// of individual bits), plus a per-bit *polarity* refinement for live
/// elements: a stuck-at whose forced value coincides with the bit's
/// provably-constant value at every observation point leaves the
/// machine on its fault-free path, so it is masked even though the
/// element is read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementVerdict {
    /// The element classified.
    pub element: StateElement,
    /// Fault sites this element contributes (its bit width for the
    /// dialect, [`StateElement::bits`]).
    pub bits: u8,
    /// The verdict.
    pub class: SiteClass,
    /// Fetch addresses of the program points keeping the element live
    /// (empty for masked or unknown verdicts). The PC and page register
    /// are observed by every fetch, so their witness is the entry
    /// point.
    pub witnesses: Vec<u32>,
    /// Bits provably `0` at every point the element is observed: a
    /// `StuckAt0` there is masked. Zero unless the verdict is
    /// [`SiteClass::ReachableLive`] (fully masked elements are covered
    /// by the class itself).
    pub const0_bits: u8,
    /// Bits provably `1` at every observation point: a `StuckAt1` there
    /// is masked.
    pub const1_bits: u8,
}

/// Per-program fault-vulnerability report: one verdict per state
/// element, in [`StateElement::all`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VulnReport {
    /// The dialect analyzed.
    pub dialect: Dialect,
    /// Whether the underlying dataflow analysis stayed exact. When
    /// `false`, every verdict is [`SiteClass::Unknown`].
    pub exact: bool,
    /// Element verdicts, in enumeration order.
    pub elements: Vec<ElementVerdict>,
}

impl VulnReport {
    /// The verdict for one element ([`SiteClass::Unknown`] for an
    /// element the dialect does not enumerate).
    #[must_use]
    pub fn class_of(&self, element: StateElement) -> SiteClass {
        self.elements
            .iter()
            .find(|e| e.element == element)
            .map_or(SiteClass::Unknown, |e| e.class)
    }

    /// Whether this *specific* fault is provably masked: its element is
    /// fully dead, or the fault is a stuck-at whose polarity matches a
    /// provably-constant bit. Transient flips on a constant bit are
    /// never masked this way — a flip inverts the natural value by
    /// definition.
    #[must_use]
    pub fn is_masked_fault(&self, fault: &flexicore::sim::ArchFault) -> bool {
        use flexicore::sim::FaultKind;
        let Some(e) = self.elements.iter().find(|e| e.element == fault.element) else {
            return false;
        };
        match e.class {
            SiteClass::ProvablyMasked => true,
            SiteClass::Unknown => false,
            SiteClass::ReachableLive => {
                let bit = 1u8.checked_shl(u32::from(fault.bit)).unwrap_or(0);
                match fault.kind {
                    FaultKind::StuckAt0 => e.const0_bits & bit != 0,
                    FaultKind::StuckAt1 => e.const1_bits & bit != 0,
                    _ => false,
                }
            }
        }
    }

    /// Constant-bit polarity refinements on live elements: the number
    /// of `(bit, polarity)` stuck-at claims beyond the fully-masked
    /// sites.
    #[must_use]
    pub fn polarity_masked_bits(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| e.class == SiteClass::ReachableLive)
            .map(|e| (e.const0_bits.count_ones() + e.const1_bits.count_ones()) as usize)
            .sum()
    }

    /// Total fault sites across all elements (matches
    /// the sum of [`StateElement::bits`] over [`StateElement::all`], the
    /// length of `flexinject::sites::enumerate(dialect)`).
    #[must_use]
    pub fn total_sites(&self) -> usize {
        self.elements.iter().map(|e| usize::from(e.bits)).sum()
    }

    /// Fault sites proven masked.
    #[must_use]
    pub fn masked_sites(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| e.class == SiteClass::ProvablyMasked)
            .map(|e| usize::from(e.bits))
            .sum()
    }

    /// Fault sites not proven masked (live or unknown).
    #[must_use]
    pub fn live_sites(&self) -> usize {
        self.total_sites() - self.masked_sites()
    }

    /// Masked fraction of the site universe, in `[0, 1]`.
    #[must_use]
    pub fn masked_fraction(&self) -> f64 {
        let total = self.total_sites();
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.masked_sites() as f64 / total as f64
        }
    }

    /// FNV-1a digest of the classification (element order, widths and
    /// verdicts; witnesses excluded). Pinned by the seed-stability
    /// snapshot tests: a lattice or ordering change that silently
    /// reclassifies sites changes this value and fails CI.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.elements.iter().fold(FNV_OFFSET, |hash, e| {
            let (tag, word) = e.element.code();
            let class = match e.class {
                SiteClass::ProvablyMasked => 0,
                SiteClass::ReachableLive => 1,
                SiteClass::Unknown => 2,
            };
            [
                u64::from(tag),
                u64::from(word),
                u64::from(e.bits),
                class,
                u64::from(e.const0_bits),
                u64::from(e.const1_bits),
            ]
            .into_iter()
            .fold(hash, fnv1a)
        })
    }

    /// Human-readable classification, one line per element.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{} site(s), {} provably masked ({:.1}%), {} polarity-masked bit(s), {}\n",
            self.total_sites(),
            self.masked_sites(),
            self.masked_fraction() * 100.0,
            self.polarity_masked_bits(),
            if self.exact { "exact" } else { "imprecise" },
        );
        for e in &self.elements {
            let _ = write!(
                out,
                "  {:8} {:2} bit(s)  {}",
                e.element.to_string(),
                e.bits,
                e.class.label()
            );
            if let Some(first) = e.witnesses.first() {
                let _ = write!(
                    out,
                    "  ({} witness(es), first at {first:#06x})",
                    e.witnesses.len()
                );
            }
            if e.const0_bits != 0 || e.const1_bits != 0 {
                let _ = write!(
                    out,
                    "  [sa0-masked {:#04x}, sa1-masked {:#04x}]",
                    e.const0_bits, e.const1_bits
                );
            }
            out.push('\n');
        }
        out
    }
}

/// Per-bit constancy accumulator over every point an element is
/// observed: `and`/`or` fold the observed values, so after the pass
/// `!or` holds the provably-always-0 bits and `and` the
/// provably-always-1 bits. A single ⊤ observation clears both.
#[derive(Clone, Copy)]
struct BitObs {
    seen: bool,
    and: u8,
    or: u8,
}

impl BitObs {
    fn new() -> BitObs {
        BitObs {
            seen: false,
            and: 0xFF,
            or: 0,
        }
    }

    fn see_const(&mut self, value: u8, mask: u8) {
        self.seen = true;
        self.and &= value & mask;
        self.or |= value & mask;
    }

    fn see(&mut self, value: crate::abs::AbsVal, mask: u8) {
        match value {
            crate::abs::AbsVal::Const(c) => self.see_const(c, mask),
            crate::abs::AbsVal::Top => {
                self.seen = true;
                self.and = 0;
                self.or |= mask;
            }
        }
    }

    /// `(const0, const1)` masks; all-zero when nothing was observed
    /// (the element is fully masked then, which subsumes these).
    fn masks(&self, mask: u8) -> (u8, u8) {
        if self.seen {
            (!self.or & mask, self.and & mask)
        } else {
            (0, 0)
        }
    }
}

/// Classify every fault site of `program` under `target`.
#[must_use]
pub fn analyze(target: &Target, program: &Program) -> VulnReport {
    let mut a = Analysis::new(target, program);
    a.run();
    let dialect = target.dialect;
    let exact = a.imprecise_at.is_none();

    // use witnesses, gathered from the converged states
    let mut acc_w: BTreeSet<u32> = BTreeSet::new();
    let mut input_w: BTreeSet<u32> = BTreeSet::new();
    let mut output_w: BTreeSet<u32> = BTreeSet::new();
    let mut cell_w: [BTreeSet<u32>; 8] = Default::default();
    let mut fetch_w: BTreeSet<u32> = BTreeSet::new();
    let mut arm_w: BTreeSet<u32> = BTreeSet::new();

    let wmask = bit_mask(StateElement::Acc.bits(dialect));
    let mut pc_obs = BitObs::new();
    let mut page_obs = BitObs::new();
    let mut acc_obs = BitObs::new();
    let mut cell_obs = [BitObs::new(); 8];
    let mut fetch_obs = BitObs::new();
    let mut output_obs = BitObs::new();
    let mut pending_obs = BitObs::new();

    for ext in 0..NODE_SPACE as u32 {
        let Some(state) = &a.states[ext as usize] else {
            continue;
        };
        let address = fetch_address(dialect, ext);
        // the PC and page register are observed by the address
        // computation of every reachable node, crashing or not
        pc_obs.see_const(ext as u8 & PC_MASK, PC_MASK);
        page_obs.see_const((ext >> 7) as u8, PAGE_MASK);
        let fetched = |obs: &mut BitObs, count: usize| {
            for &byte in program.window(address).iter().take(count) {
                obs.see_const(byte, 0xFF);
            }
        };
        match transfer(target, program, ext, state) {
            // illegal/truncated nodes still pull bytes across the fetch
            // bus before the decode rejects them; off-image and
            // page-out nodes fault before any byte crosses it
            Err(Crash::Illegal { .. } | Crash::Truncated) => {
                fetch_w.insert(address);
                // conservatively assume up to two bytes crossed the bus
                fetched(&mut fetch_obs, 2);
            }
            Err(Crash::OffImage | Crash::PageOut) => {}
            Ok(out) => {
                fetch_w.insert(address);
                fetched(&mut fetch_obs, usize::from(out.len));
                if out.uses.acc {
                    acc_w.insert(address);
                    acc_obs.see(state.acc, wmask);
                }
                if out.uses.input {
                    input_w.insert(address);
                }
                if out.uses.output {
                    output_w.insert(address);
                }
                for (w, set) in cell_w.iter_mut().enumerate() {
                    if out.uses.cells & (1 << w) != 0 {
                        set.insert(address);
                    }
                }
                for (cell, value) in &out.cell_reads {
                    cell_obs[usize::from(*cell) & 7].see(*value, wmask);
                }
                for value in &out.output_vals {
                    output_obs.see(*value, wmask);
                }
                if out.may_arm {
                    arm_w.insert(address);
                }
                for value in &out.armed_vals {
                    pending_obs.see(*value, PAGE_MASK);
                }
            }
        }
    }

    // A wild (data-dependent) page commit can transiently drive page
    // numbers the node set never covers before crashing PageOutOfRange,
    // so no constancy claim is safe for the page register or the
    // pending latch then.
    if !a.wild_commits.is_empty() {
        page_obs.see(crate::abs::AbsVal::Top, PAGE_MASK);
        pending_obs.see(crate::abs::AbsVal::Top, PAGE_MASK);
    }

    let verdict = |witnesses: &BTreeSet<u32>| {
        if !exact {
            (SiteClass::Unknown, Vec::new())
        } else if witnesses.is_empty() {
            (SiteClass::ProvablyMasked, Vec::new())
        } else {
            (
                SiteClass::ReachableLive,
                witnesses.iter().copied().collect(),
            )
        }
    };
    // the PC selects every fetch and the page register every page; a
    // power-on stuck bit redirects the very first fetch, so neither is
    // ever maskable while anything at all is reachable
    let always_live = || {
        if exact {
            (SiteClass::ReachableLive, vec![0])
        } else {
            (SiteClass::Unknown, Vec::new())
        }
    };

    let elements = StateElement::all(dialect)
        .map(|element| {
            let ((class, witnesses), obs) = match element {
                StateElement::Pc => (always_live(), pc_obs),
                StateElement::Acc => (verdict(&acc_w), acc_obs),
                StateElement::Mem(w) => {
                    (verdict(&cell_w[usize::from(w)]), cell_obs[usize::from(w)])
                }
                StateElement::FetchBus => (verdict(&fetch_w), fetch_obs),
                // input values are externally chosen, so no bit is ever
                // constant
                StateElement::InputPort => (verdict(&input_w), BitObs::new()),
                StateElement::OutputPort => (verdict(&output_w), output_obs),
                StateElement::PageReg => (always_live(), page_obs),
                // pending-latch faults only land while a page commit is
                // in flight, so a program that can never arm the escape
                // transducer can never expose them
                StateElement::PagePending => (verdict(&arm_w), pending_obs),
            };
            let bits = element.bits(dialect);
            let (const0_bits, const1_bits) = if class == SiteClass::ReachableLive {
                obs.masks(bit_mask(bits))
            } else {
                (0, 0)
            };
            ElementVerdict {
                element,
                bits,
                class,
                witnesses,
                const0_bits,
                const1_bits,
            }
        })
        .collect();

    VulnReport {
        dialect,
        exact,
        elements,
    }
}

/// The low `bits` bits of a byte (`bits` is 1..=8).
fn bit_mask(bits: u8) -> u8 {
    u8::MAX >> (8 - bits)
}

/// [`analyze`] over an [`Assembly`](flexasm::Assembly).
#[must_use]
pub fn analyze_assembly(assembly: &flexasm::Assembly) -> VulnReport {
    analyze(&assembly.target(), assembly.program())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fc4(bytes: Vec<u8>) -> (Target, Program) {
        (Target::fc4(), Program::from_bytes(bytes))
    }

    #[test]
    fn minimal_halt_program_masks_unused_state() {
        // nandi 0 ; br 1 (self): reads acc, never touches memory or IO
        let (t, p) = fc4(vec![0b0101_0000, 0b1000_0001]);
        let r = analyze(&t, &p);
        assert!(r.exact);
        assert_eq!(r.class_of(StateElement::Pc), SiteClass::ReachableLive);
        assert_eq!(r.class_of(StateElement::Acc), SiteClass::ReachableLive);
        assert_eq!(r.class_of(StateElement::FetchBus), SiteClass::ReachableLive);
        for w in 0..8 {
            assert_eq!(
                r.class_of(StateElement::Mem(w)),
                SiteClass::ProvablyMasked,
                "mem[{w}] is never read"
            );
        }
        assert_eq!(
            r.class_of(StateElement::InputPort),
            SiteClass::ProvablyMasked
        );
        assert_eq!(
            r.class_of(StateElement::OutputPort),
            SiteClass::ProvablyMasked
        );
        assert_eq!(
            r.class_of(StateElement::PagePending),
            SiteClass::ProvablyMasked
        );
        assert_eq!(r.total_sites(), 67, "fc4 site universe");
        assert!(r.masked_sites() >= 8 * 4 + 4 + 4 + 4);
    }

    #[test]
    fn io_and_memory_reads_are_live() {
        // load r0 (input) ; store r1 (output + mem[1]) ; add r2 (mem[2])
        // ; nandi 0 ; br self
        let (t, p) = fc4(vec![
            0b0011_0000,
            0b0111_0001,
            0b0000_0010,
            0b0101_0000,
            0b1000_0100,
        ]);
        let r = analyze(&t, &p);
        assert!(r.exact);
        assert_eq!(
            r.class_of(StateElement::InputPort),
            SiteClass::ReachableLive
        );
        assert_eq!(
            r.class_of(StateElement::OutputPort),
            SiteClass::ReachableLive
        );
        assert_eq!(r.class_of(StateElement::Mem(2)), SiteClass::ReachableLive);
        assert_eq!(
            r.class_of(StateElement::Mem(3)),
            SiteClass::ProvablyMasked,
            "mem[3] is written by nothing and read by nothing"
        );
        let mem2 = r
            .elements
            .iter()
            .find(|e| e.element == StateElement::Mem(2))
            .unwrap();
        assert_eq!(
            mem2.witnesses,
            vec![2],
            "the add at address 2 keeps it live"
        );
    }

    #[test]
    fn written_but_never_read_cell_is_still_masked() {
        // stuck bits reassert after every instruction, so a write does
        // not cleanse the cell — only the absence of reads masks it
        // ldi 5-ish: xori 5 ; store r2 ; nandi 0 ; br self
        let (t, p) = fc4(vec![0b0110_0101, 0b0111_0010, 0b0101_0000, 0b1000_0011]);
        let r = analyze(&t, &p);
        assert!(r.exact);
        assert_eq!(
            r.class_of(StateElement::Mem(2)),
            SiteClass::ProvablyMasked,
            "written, never read"
        );
    }

    #[test]
    fn input_shadow_word_is_always_masked() {
        // address 0 reads the input port, never data word 0, so mem[0]
        // is dead even in a program that reads address 0 on every step
        let (t, p) = fc4(vec![0b0000_0000, 0b0101_0000, 0b1000_0010]);
        let r = analyze(&t, &p);
        assert!(r.exact);
        assert_eq!(
            r.class_of(StateElement::InputPort),
            SiteClass::ReachableLive
        );
        assert_eq!(
            r.class_of(StateElement::Mem(0)),
            SiteClass::ProvablyMasked,
            "the input port shadows data word 0 on every dialect"
        );
    }

    #[test]
    fn unknown_page_commits_fan_out_instead_of_giving_up() {
        use flexicore::mmu::{ESCAPE_1, ESCAPE_2};
        // drive a non-constant value at the output port right after the
        // escape prefix: load r0 (input, top) lands in the page slot.
        // The analysis must stay exact by fanning the commit out to all
        // sixteen pages (fifteen of which are terminal PageOut crashes
        // for this single-page image), and the armed transducer keeps
        // the pending latch live.
        let d1 = ESCAPE_1 ^ ESCAPE_2;
        let (t, p) = fc4(vec![
            0b0110_0000 | ESCAPE_1,
            0b0111_0001,
            0b0110_0000 | d1,
            0b0111_0001,
            0b0011_0000, // load r0: acc = input (top)
            0b0111_0001, // store r1: arms a top page value
            0b0110_0000, // xori 0 ×3: let the commit delay line drain
            0b0110_0000,
            0b0110_0000,
            0b0101_0000,
            0b1000_1010,
        ]);
        let r = analyze(&t, &p);
        assert!(r.exact, "page fan-out must keep the analysis exact");
        assert_eq!(
            r.class_of(StateElement::PagePending),
            SiteClass::ReachableLive,
            "an arming program exposes the pending latch"
        );
        assert_eq!(
            r.class_of(StateElement::InputPort),
            SiteClass::ReachableLive
        );
        assert_eq!(r.masked_sites() + r.live_sites(), r.total_sites());
    }

    #[test]
    fn site_totals_match_the_enumeration_universe() {
        let halt = |t: Target, bytes: Vec<u8>| analyze(&t, &Program::from_bytes(bytes));
        // totals pinned against flexinject::sites::enumerate
        assert_eq!(
            halt(Target::fc4(), vec![0b0101_0000, 0b1000_0001]).total_sites(),
            67
        );
        assert_eq!(
            halt(Target::fc8(), vec![0x08, 0x80, 0b1000_0010]).total_sites(),
            79
        );
        let xacc = halt(Target::xacc_revised(), vec![0b0101_0000, 0b1000_0001]);
        assert_eq!(xacc.total_sites(), 67);
        let movi = flexicore::isa::xls::Instruction::Alu {
            op: flexicore::isa::xls::Op::Mov,
            rd: 7,
            operand: flexicore::isa::xls::Operand::Imm(0xF),
        };
        let br = flexicore::isa::xls::Instruction::Br {
            cond: flexicore::isa::acc::Cond::N,
            target: 1,
        };
        let mut bytes = movi.encode().to_be_bytes().to_vec();
        bytes.extend_from_slice(&br.encode().to_be_bytes());
        let xls = halt(Target::xls_revised(), bytes);
        assert_eq!(xls.total_sites(), 63);
        assert_eq!(
            xls.class_of(StateElement::Acc),
            SiteClass::Unknown,
            "the load-store dialect enumerates no accumulator"
        );
    }

    #[test]
    fn digest_is_stable_and_classification_sensitive() {
        let (t, p) = fc4(vec![0b0101_0000, 0b1000_0001]);
        let a = analyze(&t, &p);
        let b = analyze(&t, &p);
        assert_eq!(a.digest(), b.digest());
        // reading memory flips a verdict and must change the digest
        let (t2, p2) = fc4(vec![0b0000_0010, 0b0101_0000, 0b1000_0010]);
        assert_ne!(a.digest(), analyze(&t2, &p2).digest());
    }

    #[test]
    fn render_mentions_the_masked_fraction() {
        let (t, p) = fc4(vec![0b0101_0000, 0b1000_0001]);
        let text = analyze(&t, &p).render();
        assert!(text.contains("provably masked"), "{text}");
        assert!(text.contains("exact"), "{text}");
    }
}

//! CFG construction and the dataflow fixpoint (DESIGN.md §10.1–10.2).
//!
//! Nodes are page-extended program counters (`page << 7 | pc`, at most
//! 2048 of them); the edge relation is computed by [`crate::sem::transfer`]
//! plus the MMU tick split that decides which page the next fetch sees.
//! The worklist fixpoint joins abstract states per node; all findings
//! are derived in a final pass over the *converged* states, so every
//! lint sees the weakest (most general) state that reaches its node.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use flexasm::Target;
use flexicore::exec::PC_MASK;
use flexicore::isa::Dialect;
use flexicore::Program;

use crate::abs::AbsVal;
use crate::report::{CheckReport, Finding, Lint};
use crate::sem::{fetch_address, transfer, AbsState, Crash, StepOut};

/// `16 pages * 128 PCs`: the whole page-extended node space.
pub(crate) const NODE_SPACE: usize = 16 * 128;

/// The converged dataflow fixpoint, shared between [`analyze`] and the
/// vulnerability classification in [`crate::vuln`].
pub(crate) struct Analysis<'a> {
    target: &'a Target,
    program: &'a Program,
    /// Converged abstract state per page-extended node (`None` =
    /// unreachable).
    pub(crate) states: Vec<Option<AbsState>>,
    worklist: VecDeque<u32>,
    queued: Vec<bool>,
    /// Possible `RET` targets: power-on RA plus every reachable call's
    /// return address.
    pub(crate) ra_set: BTreeSet<u8>,
    /// Nodes whose `RET` has an unknown return address; re-run when
    /// `ra_set` grows.
    ret_nodes: BTreeSet<u32>,
    /// First node at which the fixpoint had to give up (fuel backstop,
    /// or an internal invariant degraded on a hostile image). A
    /// non-constant page commit does *not* land here: it fans out to
    /// every in-image page instead, keeping the result a sound
    /// over-approximation.
    pub(crate) imprecise_at: Option<u32>,
    /// Nodes where a page commit carried a non-constant page number
    /// while off-image pages exist: for some input the concrete machine
    /// raises `PageOutOfRange` here.
    pub(crate) wild_commits: BTreeSet<u32>,
}

impl<'a> Analysis<'a> {
    pub(crate) fn new(target: &'a Target, program: &'a Program) -> Self {
        Analysis {
            target,
            program,
            states: vec![None; NODE_SPACE],
            worklist: VecDeque::new(),
            queued: vec![false; NODE_SPACE],
            ra_set: BTreeSet::from([0]),
            ret_nodes: BTreeSet::new(),
            imprecise_at: None,
            wild_commits: BTreeSet::new(),
        }
    }

    /// Pages with at least one image byte — the only pages a commit can
    /// land on without crashing.
    fn in_image_pages(&self) -> u32 {
        (self.program.len().div_ceil(128)).min(16) as u32
    }

    fn enqueue(&mut self, ext: u32, state: &AbsState) {
        let i = ext as usize;
        let changed = match &mut self.states[i] {
            Some(existing) => existing.join_in_place(state),
            slot @ None => {
                *slot = Some(state.clone());
                true
            }
        };
        if changed && !self.queued[i] {
            self.queued[i] = true;
            self.worklist.push_back(ext);
        }
    }

    /// Split one pre-tick successor state on the MMU tick outcomes and
    /// enqueue the resulting fetch-time nodes.
    fn push_succ(&mut self, from: u32, page: u8, next_pc: u8, state: &AbsState) {
        let outcomes = state.mmu.tick();
        if let Some(stay) = outcomes.stay {
            let mut s = state.clone();
            s.mmu = stay;
            self.enqueue((u32::from(page) << 7) | u32::from(next_pc), &s);
        }
        if let Some((page_val, after)) = outcomes.commit {
            match page_val {
                AbsVal::Const(q) => {
                    let mut s = state.clone();
                    s.mmu = after;
                    self.enqueue((u32::from(q & 0xF) << 7) | u32::from(next_pc), &s);
                }
                AbsVal::Top => {
                    // A commit with an unknown page number lands on *some*
                    // page; fan out to every page that holds image bytes
                    // instead of giving up, keeping the analysis a sound
                    // over-approximation. A commit to an off-image page
                    // crashes before fetching anything, so those pages
                    // contribute no reachability — they surface as one
                    // WildPageCommit warning at the committing node.
                    let mut s = state.clone();
                    s.mmu = after;
                    for q in 0..self.in_image_pages() {
                        self.enqueue((q << 7) | u32::from(next_pc), &s);
                    }
                    if self.in_image_pages() < 16 {
                        self.wild_commits.insert(from);
                    }
                }
            }
        }
    }

    pub(crate) fn run(&mut self) {
        self.enqueue(0, &AbsState::poweron(self.target.dialect));
        // the lattice is finite-height and joins are monotone, so this
        // terminates; the cap is a defensive backstop only
        let mut fuel = 4_000_000u64;
        while let Some(ext) = self.worklist.pop_front() {
            self.queued[ext as usize] = false;
            fuel = fuel.saturating_sub(1);
            if fuel == 0 {
                self.imprecise_at.get_or_insert(ext);
                break;
            }
            // enqueue() always stores a state before queueing a node,
            // but a hostile image must degrade to "imprecise", never
            // panic the analyzer
            let Some(state) = self.states[ext as usize].clone() else {
                self.imprecise_at.get_or_insert(ext);
                continue;
            };
            let Ok(out) = transfer(self.target, self.program, ext, &state) else {
                continue; // crash: terminal, reported in the final pass
            };
            let page = (ext >> 7) as u8;
            let pc = (ext & u32::from(PC_MASK)) as u8;
            if let Some(ra) = out.call_ra {
                if self.ra_set.insert(ra) {
                    for node in self.ret_nodes.clone() {
                        if !self.queued[node as usize] {
                            self.queued[node as usize] = true;
                            self.worklist.push_back(node);
                        }
                    }
                }
            }
            for (next_pc, s) in &out.succs {
                self.push_succ(ext, page, *next_pc, s);
            }
            if let Some(s) = &out.ret_any {
                self.ret_nodes.insert(ext);
                for t in self.ra_set.clone() {
                    if t != pc {
                        self.push_succ(ext, page, t, s);
                    }
                }
            }
        }
    }

    /// All possible successor nodes of an `Ok` transfer, for the bound
    /// computation (must mirror the fixpoint's edge relation).
    fn edges_of(&self, ext: u32, out: &StepOut) -> Vec<u32> {
        let page = (ext >> 7) as u8;
        let pc = (ext & u32::from(PC_MASK)) as u8;
        let mut next = Vec::new();
        let mut add = |next_pc: u8, state: &AbsState| {
            let outcomes = state.mmu.tick();
            if outcomes.stay.is_some() {
                next.push((u32::from(page) << 7) | u32::from(next_pc));
            }
            match outcomes.commit {
                Some((AbsVal::Const(q), _)) => {
                    next.push((u32::from(q & 0xF) << 7) | u32::from(next_pc));
                }
                Some((AbsVal::Top, _)) => {
                    // mirror the fixpoint's in-image-pages fan-out
                    for q in 0..self.in_image_pages() {
                        next.push((q << 7) | u32::from(next_pc));
                    }
                }
                None => {}
            }
        };
        for (next_pc, s) in &out.succs {
            add(*next_pc, s);
        }
        if let Some(s) = &out.ret_any {
            for t in &self.ra_set {
                if *t != pc {
                    add(*t, s);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        next
    }
}

/// Longest-path weights over the reachable node graph; `None` when the
/// graph has a reachable cycle (no static bound exists).
fn longest_path(edges: &BTreeMap<u32, Vec<u32>>, weight: &BTreeMap<u32, u64>) -> Option<u64> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut mark: BTreeMap<u32, Mark> = BTreeMap::new();
    let mut best: BTreeMap<u32, u64> = BTreeMap::new();
    // iterative DFS with an explicit stack (post-order accumulation)
    let mut stack = vec![(0u32, false)];
    while let Some((node, children_done)) = stack.pop() {
        if children_done {
            let succs = edges.get(&node).map_or(&[][..], Vec::as_slice);
            let sub = succs
                .iter()
                .filter_map(|s| best.get(s))
                .max()
                .copied()
                .unwrap_or(0);
            best.insert(node, weight.get(&node).copied().unwrap_or(0) + sub);
            mark.insert(node, Mark::Black);
            continue;
        }
        match mark.get(&node).copied().unwrap_or(Mark::White) {
            Mark::Black => continue,
            Mark::Grey => return None, // back edge: cycle
            Mark::White => {}
        }
        mark.insert(node, Mark::Grey);
        stack.push((node, true));
        for s in edges.get(&node).map_or(&[][..], Vec::as_slice) {
            match mark.get(s).copied().unwrap_or(Mark::White) {
                Mark::White => stack.push((*s, false)),
                Mark::Grey => return None,
                Mark::Black => {}
            }
        }
    }
    best.get(&0).copied()
}

/// Analyze one assembled image: build the page-extended CFG, run the
/// abstract-interpretation fixpoint, and derive all findings.
#[must_use]
pub fn analyze(target: &Target, program: &Program) -> CheckReport {
    let mut a = Analysis::new(target, program);
    a.run();
    let dialect = target.dialect;
    let exact = a.imprecise_at.is_none();

    let mut findings: Vec<Finding> = Vec::new();
    let mut reachable: BTreeSet<u32> = BTreeSet::new();
    let mut covered: BTreeSet<u32> = BTreeSet::new();
    let mut halt_reachable = false;
    let mut may_change_page = false;
    let mut reachable_instructions = 0usize;
    let mut edges: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut cycle_w: BTreeMap<u32, u64> = BTreeMap::new();
    let mut insn_w: BTreeMap<u32, u64> = BTreeMap::new();

    let push = |f: &mut Vec<Finding>, lint: Lint, address: u32, message: String| {
        f.push(Finding {
            lint,
            severity: lint.severity(),
            address,
            message,
        });
    };

    for ext in 0..NODE_SPACE as u32 {
        let Some(state) = &a.states[ext as usize] else {
            continue;
        };
        let address = fetch_address(dialect, ext);
        reachable.insert(address);
        let pc = (ext & u32::from(PC_MASK)) as u8;
        match transfer(a.target, program, ext, state) {
            Err(Crash::Illegal { raw }) => {
                covered.insert(address);
                push(
                    &mut findings,
                    Lint::IllegalEncoding,
                    address,
                    format!("illegal or feature-gated encoding {raw:#06x}"),
                );
            }
            Err(Crash::Truncated) => {
                covered.insert(address);
                push(
                    &mut findings,
                    Lint::TruncatedEncoding,
                    address,
                    format!(
                        "multi-byte instruction truncated by image end ({} byte(s))",
                        program.len()
                    ),
                );
            }
            Err(Crash::OffImage) => {
                push(
                    &mut findings,
                    Lint::OffImageFetch,
                    address,
                    format!(
                        "execution may run past the image end ({} byte(s))",
                        program.len()
                    ),
                );
            }
            Err(Crash::PageOut) => {
                push(
                    &mut findings,
                    Lint::PageOutOfImage,
                    address,
                    format!(
                        "page {} lies beyond the image ({} byte(s))",
                        ext >> 7,
                        program.len()
                    ),
                );
            }
            Ok(out) => {
                reachable_instructions += 1;
                for b in 0..u32::from(out.len) {
                    covered.insert(address + b);
                }
                if out.may_halt {
                    halt_reachable = true;
                }
                if out.ret_any.is_some() && a.ra_set.contains(&pc) {
                    halt_reachable = true;
                }
                if out.may_arm {
                    may_change_page = true;
                    if program.fits_one_page() {
                        push(
                            &mut findings,
                            Lint::EscapeArming,
                            address,
                            "output writes may spell the MMU escape sequence in a \
                             single-page program"
                                .to_string(),
                        );
                    }
                }
                let mut cells: Vec<u8> = out.uninit_reads.clone();
                cells.sort_unstable();
                cells.dedup();
                for cell in cells {
                    push(
                        &mut findings,
                        Lint::UninitRead,
                        address,
                        format!("read of possibly never-written data cell {cell}"),
                    );
                }
                if out.len == 2 && pc == PC_MASK && dialect != Dialect::LoadStore {
                    push(
                        &mut findings,
                        Lint::PageStraddle,
                        address,
                        "two-byte instruction starts on the last byte of its page".to_string(),
                    );
                }
                edges.insert(ext, a.edges_of(ext, &out));
                cycle_w.insert(ext, out.cycles);
                insn_w.insert(ext, 1);
            }
        }
    }

    for &node in &a.wild_commits {
        push(
            &mut findings,
            Lint::WildPageCommit,
            fetch_address(dialect, node),
            "a page commit with a data-dependent page number may land beyond \
             the image for some input"
                .to_string(),
        );
    }

    let (cycle_bound, instruction_bound) = if exact {
        (
            longest_path(&edges, &cycle_w),
            longest_path(&edges, &insn_w),
        )
    } else {
        (None, None)
    };

    if exact {
        if !halt_reachable {
            push(
                &mut findings,
                Lint::StaticHang,
                0,
                "no reachable path executes the halt idiom; every error-free run \
                 spins until the watchdog expires"
                    .to_string(),
            );
        }
        // contiguous never-fetched byte runs (dead code or data)
        let mut run_start: Option<u32> = None;
        for b in 0..=program.len() as u32 {
            let dead = (b as usize) < program.len() && !covered.contains(&b);
            match (dead, run_start) {
                (true, None) => run_start = Some(b),
                (false, Some(start)) => {
                    push(
                        &mut findings,
                        Lint::Unreachable,
                        start,
                        format!("{} byte(s) never fetched by any run", b - start),
                    );
                    run_start = None;
                }
                _ => {}
            }
        }
    } else {
        halt_reachable = true; // no longer a claim
        let at = a.imprecise_at.unwrap_or(0);
        push(
            &mut findings,
            Lint::Imprecise,
            fetch_address(dialect, at),
            "the dataflow fixpoint gave up before converging; \
             reachability-based lints are suppressed"
                .to_string(),
        );
    }

    findings.sort_by_key(|f| (f.address, f.lint));

    CheckReport {
        findings,
        reachable,
        covered_bytes: covered,
        exact,
        halt_reachable,
        may_change_page,
        cycle_bound,
        instruction_bound,
        reachable_instructions,
        image_bytes: program.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;

    fn fc4_program(bytes: Vec<u8>) -> (Target, Program) {
        (Target::fc4(), Program::from_bytes(bytes))
    }

    #[test]
    fn minimal_halt_program_is_clean() {
        // nandi 0 ; br 1 (self)
        let (t, p) = fc4_program(vec![0b0101_0000, 0b1000_0001]);
        let report = analyze(&t, &p);
        assert!(report.exact);
        assert!(report.halt_reachable);
        assert!(
            !report.has_at_least(Severity::Warning),
            "{}",
            report.render()
        );
        assert_eq!(report.reachable_instructions, 2);
        assert_eq!(report.cycle_bound, Some(2));
        assert_eq!(report.instruction_bound, Some(2));
    }

    #[test]
    fn run_off_the_end_is_flagged() {
        // addi 1 — then the PC runs past the image
        let (t, p) = fc4_program(vec![0b0100_0001]);
        let report = analyze(&t, &p);
        let lints: Vec<_> = report.findings.iter().map(|f| f.lint).collect();
        assert!(lints.contains(&Lint::OffImageFetch), "{}", report.render());
        assert!(lints.contains(&Lint::StaticHang));
    }

    #[test]
    fn infinite_loop_is_a_static_hang_with_no_bound() {
        // br 0 with acc=0 never taken... use nandi 0; br 0 -> jumps to 0,
        // which re-runs nandi (acc stays 0xF) and loops forever between
        // 0 and 1 without ever branching to itself
        let (t, p) = fc4_program(vec![0b0101_0000, 0b1000_0000]);
        let report = analyze(&t, &p);
        assert!(report.exact);
        assert!(!report.halt_reachable);
        assert!(report.findings.iter().any(|f| f.lint == Lint::StaticHang));
        assert_eq!(report.cycle_bound, None, "cyclic CFG has no bound");
    }

    #[test]
    fn dead_tail_bytes_are_unreachable_info() {
        // nandi 0 ; br 1 ; then two dead bytes
        let (t, p) = fc4_program(vec![0b0101_0000, 0b1000_0001, 0x42, 0x42]);
        let report = analyze(&t, &p);
        let f = report
            .findings
            .iter()
            .find(|f| f.lint == Lint::Unreachable)
            .expect("dead bytes flagged");
        assert_eq!(f.address, 2);
        assert_eq!(f.severity, Severity::Info);
        assert_eq!(report.reachable_bytes(), 2);
    }

    #[test]
    fn illegal_encoding_is_error() {
        // 0b0000_1000: fc4 reserved (fixed-zero bit set)
        let (t, p) = fc4_program(vec![0b0000_1000, 0b0101_0000, 0b1000_0010]);
        let report = analyze(&t, &p);
        assert!(report
            .findings
            .iter()
            .any(|f| f.lint == Lint::IllegalEncoding && f.severity == Severity::Error));
    }

    #[test]
    fn uninit_read_is_warned_once_per_cell() {
        // add r3 (uninit read) ; nandi 0 ; br self
        let (t, p) = fc4_program(vec![0b0000_0011, 0b0101_0000, 0b1000_0010]);
        let report = analyze(&t, &p);
        let uninit: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.lint == Lint::UninitRead)
            .collect();
        assert_eq!(uninit.len(), 1);
        assert_eq!(uninit[0].address, 0);
    }

    #[test]
    fn escape_arming_flagged_in_single_page_program() {
        use flexicore::mmu::{ESCAPE_1, ESCAPE_2};
        // xori E; store r1; xori E^D; store r1; xori D^5; store r1;
        // nandi 0; br self — drives E, D, 5 to the output port
        let d1 = ESCAPE_1 ^ ESCAPE_2;
        let d2 = ESCAPE_2 ^ 5;
        let (t, p) = fc4_program(vec![
            0b0110_0000 | ESCAPE_1,
            0b0111_0001,
            0b0110_0000 | d1,
            0b0111_0001,
            0b0110_0000 | d2,
            0b0111_0001,
            0b0101_0000,
            0b1000_0111,
        ]);
        let report = analyze(&t, &p);
        assert!(report.may_change_page);
        assert!(report.findings.iter().any(|f| f.lint == Lint::EscapeArming));
    }

    #[test]
    fn cycle_bound_counts_fc8_two_byte_instructions() {
        // fc8: ldb 0x80 (2 cycles); br 2 (self, 1 cycle)
        let t = Target::fc8();
        let p = Program::from_bytes(vec![0x08, 0x80, 0b1000_0010]);
        let report = analyze(&t, &p);
        assert!(report.halt_reachable, "{}", report.render());
        assert_eq!(report.cycle_bound, Some(3));
        assert_eq!(report.instruction_bound, Some(2));
    }
}

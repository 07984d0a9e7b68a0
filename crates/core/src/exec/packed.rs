//! Packed 64-lane architectural evaluation.
//!
//! [`MultiCoreDriver`](super::MultiCoreDriver) steps N dies through the
//! generic [`AnyCore`] interface, paying a dialect dispatch and a full
//! fetch+decode per lane per step. [`PackedDriver`] is the bit-sliced
//! tier below it: up to 64 lanes of **one concrete dialect running one
//! program image**, stepped monomorphically with a shared decode cache —
//! the architectural analogue of `flexgate`'s 64-lane [`BatchSim`]
//! (one gate evaluation serves 64 dies; here one decode serves 64
//! lanes, and every later revisit of the same address, because the
//! program image is immutable).
//!
//! ## Divergence fallback
//!
//! Lanes whose fault hook answers
//! [`corrupts_fetch`](FaultHook::corrupts_fetch) cannot share the
//! cache: their fetch bytes are corrupted privately, so they fall back
//! to a per-lane fetch + decode — exactly the scalar
//! [`Engine`](super::Engine) path. Every other lane (clean lanes, and
//! fault planes whose faults avoid the fetch bus) takes the cached
//! path, which is bit-for-bit identical because a non-fetch-corrupting
//! hook's `on_fetch` is the identity with no side effects. The scalar
//! `Engine` stays the differential oracle: the lockstep tests in this
//! module and in `tests/packed_lockstep.rs` drive both and demand
//! equality.
//!
//! [`BatchSim`]: ../../flexgate/sim/struct.BatchSim.html

use crate::error::SimError;
use crate::io::{InputPort, OutputPort};
use crate::isa::Dialect;
use crate::sim::fault::{FaultHook, NoFaults};

use super::driver::LaneStatus;
use super::{AnyCore, Core, Flow, PC_MASK};

/// One packed lane: a concrete-dialect core plus its private IO ports
/// and fault hook (the monomorphic sibling of
/// [`Lane`](super::driver::Lane)).
#[derive(Debug)]
pub struct PackedLane<C, I, O, F = NoFaults> {
    /// The lane's core.
    pub core: C,
    /// The lane's input port.
    pub input: I,
    /// The lane's output port.
    pub output: O,
    /// The lane's fault hook.
    pub faults: F,
    /// The lane's private watchdog fuel (same units as the dialect's
    /// `run` budget).
    pub fuel: u64,
    /// Where the lane stands.
    pub status: LaneStatus,
}

/// One shared-decode-cache slot: `None` = never decoded;
/// `Some(result)` is what *every* cache-eligible lane's decode of that
/// address returns, errors included (decode is a pure function of the
/// immutable image).
type DecodeSlot<C> = Option<Result<(<C as Core>::Insn, u8), SimError>>;

/// Steps up to 64 same-dialect, same-program lanes with a shared decode
/// cache and lane-masked retirement.
pub struct PackedDriver<C: Core, I, O, F = NoFaults> {
    lanes: Vec<PackedLane<C, I, O, F>>,
    /// Indices of running lanes, in admission order (lane-masked
    /// stepping: retired lanes drop out and are never rescanned).
    active: Vec<usize>,
    /// One [`DecodeSlot`] per fetch address of the shared program image.
    decode_cache: Vec<DecodeSlot<C>>,
    budget: u64,
}

impl<C, I, O, F> core::fmt::Debug for PackedDriver<C, I, O, F>
where
    C: Core,
    PackedLane<C, I, O, F>: core::fmt::Debug,
{
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PackedDriver")
            .field("lanes", &self.lanes)
            .field("active", &self.active)
            .field(
                "decoded_slots",
                &self.decode_cache.iter().filter(|s| s.is_some()).count(),
            )
            .field("budget", &self.budget)
            .finish()
    }
}

impl<C, I, O, F> PackedDriver<C, I, O, F>
where
    C: Core,
    C::Insn: Clone,
    I: InputPort,
    O: OutputPort,
    F: FaultHook,
{
    /// Lanes one driver can hold (the bit-slice word width).
    pub const MAX_LANES: usize = 64;

    /// An empty driver; every lane gets the same watchdog `budget`.
    #[must_use]
    pub fn new(budget: u64) -> Self {
        PackedDriver {
            lanes: Vec::new(),
            active: Vec::new(),
            decode_cache: Vec::new(),
            budget,
        }
    }

    /// The per-lane watchdog budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Number of admitted lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// `true` when no lane has been admitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Number of lanes still running.
    #[must_use]
    pub fn running(&self) -> usize {
        self.active.len()
    }

    /// The running lanes as a 64-bit lane mask (bit `l` set while lane
    /// `l` runs) — the same encoding `flexgate`'s `BitSlice64` uses for
    /// gate-level lanes.
    #[must_use]
    pub fn active_mask(&self) -> u64 {
        self.active.iter().fold(0u64, |m, &i| m | (1u64 << i))
    }

    /// Admit one lane with the driver's default fuel. Power-on state
    /// faults are applied immediately (matching serial `run_with`).
    ///
    /// # Panics
    ///
    /// Panics if the driver already holds [`MAX_LANES`](Self::MAX_LANES)
    /// lanes. Debug builds also check that the lane runs the same
    /// program image as lane 0 — the decode cache is shared, so mixing
    /// images (or decode feature sets) is a caller error;
    /// [`run_packed_lanes`] groups lanes accordingly.
    pub fn push(&mut self, core: C, input: I, output: O, faults: F) {
        let fuel = self.budget;
        self.push_with_fuel(core, input, output, faults, fuel);
    }

    /// [`push`](PackedDriver::push) with a per-lane `fuel` override.
    ///
    /// # Panics
    ///
    /// As [`push`](PackedDriver::push).
    pub fn push_with_fuel(&mut self, core: C, input: I, output: O, faults: F, fuel: u64) {
        assert!(
            self.lanes.len() < Self::MAX_LANES,
            "PackedDriver holds at most {} lanes",
            Self::MAX_LANES
        );
        debug_assert!(
            self.lanes.is_empty() || self.lanes[0].core.state().program() == core.state().program(),
            "all packed lanes must share one program image"
        );
        if self.decode_cache.len() < core.state().program().len() {
            self.decode_cache.resize(core.state().program().len(), None);
        }
        let mut lane = PackedLane {
            core,
            input,
            output,
            faults,
            fuel,
            status: LaneStatus::Running,
        };
        if F::ACTIVE {
            let cycle = lane.core.state().cycles();
            lane.faults.on_state(cycle, &mut lane.core.arch_state());
        }
        self.active.push(self.lanes.len());
        self.lanes.push(lane);
    }

    /// Sweep every running lane once (the lane-masked analogue of
    /// [`MultiCoreDriver::step_all`](super::MultiCoreDriver::step_all)):
    /// retire halted lanes as [`Done`](LaneStatus::Done), fuel-exhausted
    /// lanes as [`Hung`](LaneStatus::Hung), simulator errors as
    /// [`Faulted`](LaneStatus::Faulted); step the rest by one
    /// instruction through the shared decode cache. Returns the number
    /// of lanes that stepped.
    pub fn step_all(&mut self) -> usize {
        let mut stepped = 0;
        let lanes = &mut self.lanes;
        let cache = &mut self.decode_cache;
        self.active.retain(|&idx| {
            let lane = &mut lanes[idx];
            if lane.core.state().is_halted() {
                lane.status = LaneStatus::Done(lane.core.state().run_result());
                return false;
            }
            if C::budget_spent(lane.core.state()) >= lane.fuel {
                lane.status = LaneStatus::Hung(lane.core.state().run_result());
                return false;
            }
            let diverges = F::ACTIVE && lane.faults.corrupts_fetch();
            let PackedLane {
                core,
                input,
                output,
                faults,
                ..
            } = lane;
            match step_packed(core, input, output, faults, cache, diverges) {
                Ok(()) => {
                    stepped += 1;
                    true
                }
                Err(e) => {
                    lane.status = LaneStatus::Faulted(e);
                    false
                }
            }
        });
        stepped
    }

    /// Retire every lane. Lanes are fully independent, so completion
    /// order is unobservable: each lane is drained to completion in a
    /// tight loop (its state stays hot in cache, and its fetch-bus
    /// divergence eligibility is latched once instead of being re-asked
    /// every step) rather than swept one instruction at a time. The
    /// shared decode cache persists across lanes either way, and the
    /// results are bit-for-bit identical to the
    /// [`step_all`](PackedDriver::step_all) sweep. The drain is the
    /// engine's own, so a lane stuck in a loop it can never leave is
    /// fast-forwarded to its watchdog exactly as
    /// [`Engine::resume`](super::Engine::resume) does.
    pub fn run_to_completion(&mut self) {
        let lanes = &mut self.lanes;
        let cache = &mut self.decode_cache;
        for idx in self.active.drain(..) {
            let PackedLane {
                core,
                input,
                output,
                faults,
                fuel,
                status,
            } = &mut lanes[idx];
            let diverges = F::ACTIVE && faults.corrupts_fetch();
            let cache: &mut [DecodeSlot<C>] = cache;
            let drained = super::hang::drain(
                core,
                input,
                output,
                faults,
                *fuel,
                #[inline(always)]
                move |c, i, o, f| step_packed(c, i, o, f, cache, diverges),
            );
            *status = match drained {
                Err(e) => LaneStatus::Faulted(e),
                Ok(()) if core.state().is_halted() => LaneStatus::Done(core.state().run_result()),
                Ok(()) => LaneStatus::Hung(core.state().run_result()),
            };
        }
    }

    /// The lanes, in admission order.
    #[must_use]
    pub fn lanes(&self) -> &[PackedLane<C, I, O, F>] {
        &self.lanes
    }

    /// Consume the driver, yielding the lanes in admission order.
    #[must_use]
    pub fn into_lanes(self) -> Vec<PackedLane<C, I, O, F>> {
        self.lanes
    }
}

/// One packed step: [`Engine::step`](super::Engine::step) with the
/// decode replaced by a shared-cache lookup for cache-eligible lanes
/// (`diverges` is the caller's latched
/// [`corrupts_fetch`](FaultHook::corrupts_fetch) answer for this lane).
/// Every other observable effect — MMU tick, page guard, fetch-bounds
/// check, commit accounting, state-fault visit — replicates the scalar
/// engine statement for statement; the lockstep tests hold the two
/// paths equal.
#[inline]
fn step_packed<C, I, O, F>(
    core: &mut C,
    input: &mut I,
    output: &mut O,
    faults: &mut F,
    cache: &mut [DecodeSlot<C>],
    diverges: bool,
) -> Result<(), SimError>
where
    C: Core,
    C::Insn: Clone,
    I: InputPort,
    O: OutputPort,
    F: FaultHook,
{
    let state = core.state_mut();
    state.mmu.tick();
    let page = state.mmu.page();
    let page_pc = state.mmu.extend(state.pc);
    let start_cycle = state.cycle;
    let address = core.fetch_address(page_pc);

    if page != 0 {
        let base = core.fetch_address(u32::from(page) << 7) as usize;
        if base >= core.state().program.len() {
            return Err(SimError::PageOutOfRange {
                page,
                program_len: core.state().program.len(),
            });
        }
    }

    let window = core.state().program.window(address);
    if window.is_empty() {
        return Err(SimError::FetchOutOfBounds {
            address,
            program_len: core.state().program.len(),
        });
    }

    let (insn, len) = if diverges {
        // divergence fallback: this lane's fetch bytes are privately
        // corrupted, so decode runs per-lane on the corrupted window
        let mut fetch_buf = [0u8; 2];
        let n = window.len().min(C::FETCH_WINDOW);
        for (i, b) in window[..n].iter().enumerate() {
            fetch_buf[i] = faults.on_fetch(start_cycle + i as u64, *b);
        }
        core.decode(&fetch_buf[..n], address)?
    } else {
        let slot = &mut cache[address as usize];
        if slot.is_none() {
            *slot = Some(core.decode(window, address));
        }
        slot.as_ref().expect("just filled").clone()?
    };

    let flow = core.execute(insn, input, output, faults);

    let state = core.state_mut();
    let mut taken = false;
    let mut next_pc = state.pc.wrapping_add(C::pc_increment(len)) & PC_MASK;
    if let Flow::Jump { target } = flow {
        taken = true;
        let target = target & PC_MASK;
        if target == state.pc {
            state.halted = true;
        }
        next_pc = target;
    }
    state.pc = next_pc;
    // saturating: a fast-forwarded unbounded watchdog can carry the
    // counters to their ceiling
    state.cycle = state.cycle.saturating_add(C::insn_cycles(len));
    state.instructions = state.instructions.saturating_add(1);
    state.fetched_bytes = state.fetched_bytes.saturating_add(u64::from(len));
    if taken {
        state.taken_branches = state.taken_branches.saturating_add(1);
    }
    if F::ACTIVE {
        let cycle = core.state().cycle;
        faults.on_state(cycle, &mut core.arch_state());
    }
    Ok(())
}

/// Run a heterogeneous batch of lanes through the packed tier and
/// return `(status, output)` per lane, in admission order.
///
/// Lanes are grouped by `(dialect, features, program)` — the exact
/// precondition of one [`PackedDriver`]'s shared decode cache — and
/// each group is chunked into ≤ 64-lane packed drivers. Results are
/// scattered back to input order, so callers see the same report a
/// serial [`MultiCoreDriver`](super::MultiCoreDriver) sweep produces,
/// bit for bit.
pub fn run_packed_lanes<I, O, F>(
    lanes: Vec<(AnyCore, I, O, F)>,
    budget: u64,
) -> Vec<(LaneStatus, O)>
where
    I: InputPort,
    O: OutputPort,
    F: FaultHook,
{
    // group indices by cache-compatibility key
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, (core, ..)) in lanes.iter().enumerate() {
        let found = groups.iter_mut().find(|g| {
            let (first, ..) = &lanes[g[0]];
            first.dialect() == core.dialect()
                && first.features() == core.features()
                && first.program() == core.program()
        });
        match found {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }

    let mut slots: Vec<Option<(AnyCore, I, O, F)>> = lanes.into_iter().map(Some).collect();
    let mut results: Vec<Option<(LaneStatus, O)>> = (0..slots.len()).map(|_| None).collect();

    macro_rules! drive_chunk {
        ($variant:ident, $chunk:expr) => {{
            let mut driver = PackedDriver::new(budget);
            for &i in $chunk {
                let (core, input, output, faults) = slots[i].take().expect("taken once");
                let AnyCore::$variant(core) = core else {
                    unreachable!("grouped by dialect")
                };
                driver.push(core, input, output, faults);
            }
            driver.run_to_completion();
            for (&i, lane) in $chunk.iter().zip(driver.into_lanes()) {
                results[i] = Some((lane.status, lane.output));
            }
        }};
    }

    for group in &groups {
        let dialect = slots[group[0]].as_ref().expect("not yet taken").0.dialect();
        for chunk in group.chunks(64) {
            match dialect {
                Dialect::Fc4 => drive_chunk!(Fc4, chunk),
                Dialect::Fc8 => drive_chunk!(Fc8, chunk),
                Dialect::ExtendedAcc => drive_chunk!(Xacc, chunk),
                Dialect::LoadStore => drive_chunk!(Xls, chunk),
            }
        }
    }

    results
        .into_iter()
        .map(|r| r.expect("every lane driven exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::MultiCoreDriver;
    use super::*;
    use crate::io::{ConstInput, RecordingOutput, ScriptedInput};
    use crate::isa::fc4::Instruction as I4;
    use crate::isa::features::FeatureSet;
    use crate::program::Program;
    use crate::sim::fault::{ArchFault, FaultKind, FaultPlane, StateElement};
    use crate::sim::fc4::Fc4Core;

    fn fc4_program(insns: &[I4]) -> Program {
        Program::from_bytes(insns.iter().map(|i| i.encode()).collect())
    }

    fn echo_plus_one() -> Program {
        fc4_program(&[
            I4::Load { addr: 0 },
            I4::AddImm { imm: 1 },
            I4::Store { addr: 1 },
            I4::NandImm { imm: 0 },
            I4::Branch { target: 4 },
        ])
    }

    #[test]
    fn packed_lanes_match_serial_runs() {
        let program = echo_plus_one();
        let mut driver = PackedDriver::new(1_000);
        for v in 0..8u8 {
            driver.push(
                Fc4Core::new(program.clone()),
                ScriptedInput::new(vec![v]),
                RecordingOutput::new(),
                NoFaults,
            );
        }
        driver.run_to_completion();
        assert_eq!(driver.running(), 0);
        for (v, lane) in driver.into_lanes().into_iter().enumerate() {
            let mut core = AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, program.clone());
            let mut input = ScriptedInput::new(vec![v as u8]);
            let mut output = RecordingOutput::new();
            let serial = core.run(&mut input, &mut output, 1_000).unwrap();
            assert_eq!(lane.status, LaneStatus::Done(serial));
            assert_eq!(lane.output.values(), output.values());
        }
    }

    #[test]
    fn active_mask_tracks_lane_retirement() {
        let spin = fc4_program(&[I4::NandImm { imm: 0 }, I4::Branch { target: 0 }]);
        // lanes must share a program; per-lane fuel retires lane 1 early
        let mut driver = PackedDriver::new(1_000);
        driver.push(
            Fc4Core::new(spin.clone()),
            ConstInput::new(0),
            RecordingOutput::new(),
            NoFaults,
        );
        driver.push_with_fuel(
            Fc4Core::new(spin),
            ConstInput::new(0),
            RecordingOutput::new(),
            NoFaults,
            10,
        );
        assert_eq!(driver.active_mask(), 0b11);
        driver.run_to_completion();
        assert_eq!(driver.active_mask(), 0);
        let lanes = driver.lanes();
        assert!(matches!(&lanes[0].status, LaneStatus::Hung(r) if r.cycles == 1_000));
        assert!(matches!(&lanes[1].status, LaneStatus::Hung(r) if r.cycles == 10));
    }

    #[test]
    fn fetch_corrupting_lane_diverges_from_the_cache() {
        // a FetchBus stuck-at flips LOAD into something else on one lane
        // only; the clean lane must still see the cached clean decode
        let program = echo_plus_one();
        let plane = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::FetchBus,
            bit: 0,
            kind: FaultKind::StuckAt1,
        }]);
        let mut driver = PackedDriver::new(1_000);
        driver.push(
            Fc4Core::new(program.clone()),
            ScriptedInput::new(vec![3]),
            RecordingOutput::new(),
            FaultPlane::new(),
        );
        driver.push(
            Fc4Core::new(program.clone()),
            ScriptedInput::new(vec![3]),
            RecordingOutput::new(),
            plane.clone(),
        );
        driver.run_to_completion();
        let lanes = driver.into_lanes();

        // oracle: serial engine with the same hooks
        for (lane, mut hook) in lanes.into_iter().zip([FaultPlane::new(), plane]) {
            let mut core = AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, program.clone());
            let mut input = ScriptedInput::new(vec![3]);
            let mut output = RecordingOutput::new();
            let serial = core.run_with(&mut input, &mut output, 1_000, &mut hook);
            match serial {
                Ok(r) if r.halted() => assert_eq!(lane.status, LaneStatus::Done(r)),
                Ok(r) => assert_eq!(lane.status, LaneStatus::Hung(r)),
                Err(e) => assert_eq!(lane.status, LaneStatus::Faulted(e)),
            }
            assert_eq!(lane.output.values(), output.values());
        }
    }

    #[test]
    fn non_fetch_fault_lanes_share_the_cache_and_match_multicore() {
        // an ACC stuck-at is ACTIVE but not fetch-corrupting: the packed
        // path must take the cache and still equal the generic driver
        let program = echo_plus_one();
        let plane = FaultPlane::with_faults(vec![ArchFault {
            element: StateElement::Acc,
            bit: 1,
            kind: FaultKind::StuckAt1,
        }]);
        assert!(!plane.corrupts_fetch());

        let mut packed = PackedDriver::new(1_000);
        let mut multi = MultiCoreDriver::new(1_000);
        for v in 0..4u8 {
            packed.push(
                Fc4Core::new(program.clone()),
                ScriptedInput::new(vec![v]),
                RecordingOutput::new(),
                plane.clone(),
            );
            multi.push(
                AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, program.clone()),
                ScriptedInput::new(vec![v]),
                RecordingOutput::new(),
                plane.clone(),
            );
        }
        packed.run_to_completion();
        multi.run_to_completion();
        for (p, m) in packed.into_lanes().into_iter().zip(multi.into_lanes()) {
            assert_eq!(p.status, m.status);
            assert_eq!(p.output.values(), m.output.values());
        }
    }

    #[test]
    fn run_packed_lanes_scatters_mixed_dialects_in_order() {
        let fc4 = echo_plus_one();
        // FlexiCore8 uses a different encoding; just spin-halt it
        let fc8 = Program::from_bytes(vec![0x00]); // whatever decodes, budget-bounded
        let mut batch = Vec::new();
        for v in 0..3u8 {
            batch.push((
                AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, fc4.clone()),
                ScriptedInput::new(vec![v]),
                RecordingOutput::new(),
                FaultPlane::new(),
            ));
            batch.push((
                AnyCore::for_dialect(Dialect::Fc8, FeatureSet::BASE, fc8.clone()),
                ScriptedInput::new(vec![v]),
                RecordingOutput::new(),
                FaultPlane::new(),
            ));
        }
        let results = run_packed_lanes(batch, 100);
        assert_eq!(results.len(), 6);
        // oracle: serial runs in the same interleaved order
        for (i, (status, output)) in results.iter().enumerate() {
            let v = (i / 2) as u8;
            let (dialect, program) = if i % 2 == 0 {
                (Dialect::Fc4, fc4.clone())
            } else {
                (Dialect::Fc8, fc8.clone())
            };
            let mut core = AnyCore::for_dialect(dialect, FeatureSet::BASE, program);
            let mut input = ScriptedInput::new(vec![v]);
            let mut out = RecordingOutput::new();
            let mut hook = FaultPlane::new();
            match core.run_with(&mut input, &mut out, 100, &mut hook) {
                Ok(r) if r.halted() => assert_eq!(status, &LaneStatus::Done(r)),
                Ok(r) => assert_eq!(status, &LaneStatus::Hung(r)),
                Err(e) => assert_eq!(status, &LaneStatus::Faulted(e)),
            }
            assert_eq!(output.values(), out.values());
        }
    }

    #[test]
    fn chunking_past_64_lanes_preserves_order() {
        let program = echo_plus_one();
        let batch: Vec<_> = (0..150u8)
            .map(|v| {
                (
                    AnyCore::for_dialect(Dialect::Fc4, FeatureSet::BASE, program.clone()),
                    ScriptedInput::new(vec![v & 0xF]),
                    RecordingOutput::new(),
                    NoFaults,
                )
            })
            .collect();
        let results = run_packed_lanes(batch, 1_000);
        assert_eq!(results.len(), 150);
        for (v, (status, output)) in results.into_iter().enumerate() {
            assert!(matches!(status, LaneStatus::Done(_)));
            assert_eq!(output.values(), vec![((v as u8 & 0xF) + 1) & 0xF]);
        }
    }
}

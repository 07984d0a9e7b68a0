//! Exact hang fast-forward inside the one drain loop,
//! [`Core::resume_with`].
//!
//! A core is a deterministic machine. Under a steady fault hook
//! ([`FaultHook::is_steady`]) and a stationary input port
//! ([`InputPort::position`]), its next state is a function of its
//! architectural state and the port's position alone, so once that pair
//! repeats, the run is periodic from there to the watchdog. [`drain`]
//! finds the repeat and computes the rest of the run instead of
//! simulating it.
//!
//! * **Detection** (Brent): the run steps to power-of-two checkpoints of
//!   the watchdog budget spent. At each checkpoint, if the hook is
//!   steady and the port stationary, the state is anchored; until the
//!   next checkpoint every step compares the PC with the anchor's and,
//!   on a match, the full architectural state (MMU, halt flag and
//!   dialect registers, compared in place) plus the port position. Before the first checkpoint the loop does no extra work
//!   per step.
//! * **The jump**: one more period steps with the output port tee'd to
//!   capture its writes. Then `k` whole periods are skipped: the run
//!   accounting advances by `k` times one period's deltas, and the
//!   captured writes are handed to [`OutputPort::repeat`] to replay
//!   `k` times, each copy stamped one period's cycles later than the
//!   last. The final partial period steps normally.
//!
//! The resulting [`RunResult`](crate::sim::RunResult), output stream and
//! core state equal the plain run-to-watchdog bit for bit (the
//! `hang_forward` oracle tests hold both paths equal); the stream does
//! for every port whose `repeat` replays, as the default does.

use crate::error::SimError;
use crate::io::{InputPort, OutputPort};
use crate::sim::fault::FaultHook;
use crate::sim::RunResult;

use super::{Core, Engine, Snapshot};

/// The first checkpoint, in budget units. Runs that halt before it pay
/// nothing for detection; the kernel suite's fault-free runs take a few
/// hundred units.
const FIRST_CHECKPOINT: u64 = 1 << 10;

/// Drive `engine` until the halt idiom or until `budget` is spent, each
/// step visiting the fetch bus only when `fetch_faults` is set. Exactly
/// equivalent to `while !halted && spent < budget { step()? }`.
///
/// Inlined into [`Core::resume_with`], with the step inlined into its
/// plain loop, so the hot loop compiles like the hand-written one it
/// replaced (out of line, it cost `inject-sweep` about 7 % of its trials
/// per second).
///
/// # Errors
///
/// The first error a step returns.
#[inline(always)]
pub(crate) fn drain<C, I, O, F>(
    engine: &mut Engine<'_, C, F>,
    input: &mut I,
    output: &mut O,
    budget: u64,
    fetch_faults: bool,
) -> Result<(), SimError>
where
    C: Core,
    I: InputPort,
    O: OutputPort,
    F: FaultHook,
{
    let mut checkpoint = spent(engine.core)
        .checked_add(1)
        .and_then(u64::checked_next_power_of_two)
        .unwrap_or(u64::MAX)
        .max(FIRST_CHECKPOINT);
    loop {
        while runs(engine.core, checkpoint.min(budget)) {
            engine.step_latched(input, output, fetch_faults)?;
        }
        if !runs(engine.core, budget) {
            return Ok(());
        }
        checkpoint = checkpoint.saturating_mul(2);
        if let (true, Some(position)) = (engine.faults.is_steady(), input.position()) {
            let anchor = Anchor {
                snap: engine.core.snapshot(),
                position,
                spent: spent(engine.core),
            };
            let bound = checkpoint.min(budget);
            if let Some(steps) = search(engine, input, output, bound, &anchor, fetch_faults)? {
                forward(engine, input, output, budget, &anchor, steps, fetch_faults)?;
                // after a jump only the plain tail is left
                checkpoint = u64::MAX;
            }
        }
    }
}

/// Step until `bound`, comparing each step's state with `anchor`:
/// the number of steps to the first repeat, if one comes. Kept out of
/// line, like [`forward`], so that the plain loop is the only inlined
/// copy of the step in [`drain`]'s caller.
#[inline(never)]
fn search<C, I, O, F>(
    engine: &mut Engine<'_, C, F>,
    input: &mut I,
    output: &mut O,
    bound: u64,
    anchor: &Anchor,
    fetch_faults: bool,
) -> Result<Option<u64>, SimError>
where
    C: Core,
    I: InputPort,
    O: OutputPort,
    F: FaultHook,
{
    let mut steps = 0u64;
    while runs(engine.core, bound) {
        engine.step_latched(input, output, fetch_faults)?;
        steps += 1;
        if anchor.matches(engine.core, input) {
            return Ok(Some(steps));
        }
    }
    Ok(None)
}

/// Watchdog budget spent so far (cycles or instructions, per dialect).
pub(super) fn spent<C: Core>(core: &C) -> u64 {
    C::budget_spent(core.state())
}

/// The plain loop's condition.
fn runs<C: Core>(core: &C, bound: u64) -> bool {
    !core.state().halted && spent(core) < bound
}

/// The state a checkpoint anchored: core plus input position, and the
/// budget spent when it was taken.
struct Anchor {
    snap: Snapshot,
    position: u64,
    spent: u64,
}

impl Anchor {
    /// Whether the core and port are back in the anchored state. The PC
    /// goes first: it is the one compare most steps fail.
    fn matches<C: Core, I: InputPort>(&self, core: &C, input: &I) -> bool {
        let state = core.state();
        state.pc == self.snap.pc
            && state.mmu == self.snap.mmu
            && state.halted == self.snap.halted
            && core.same_regs(&self.snap)
            && input.position() == Some(self.position)
    }
}

/// An output port that forwards every write and keeps a copy.
struct Tee<'a, O> {
    inner: &'a mut O,
    writes: Vec<(u64, u8)>,
}

impl<O: OutputPort> OutputPort for Tee<'_, O> {
    fn write(&mut self, cycle: u64, value: u8) {
        self.writes.push((cycle, value));
        self.inner.write(cycle, value);
    }
}

/// The core has just returned to `anchor` after `steps` steps: run one
/// more period with the output tee'd, then skip as many whole periods
/// as the budget holds. A budget with room for fewer than two more
/// periods is left to the caller's plain loop.
#[inline(never)]
fn forward<C, I, O, F>(
    engine: &mut Engine<'_, C, F>,
    input: &mut I,
    output: &mut O,
    budget: u64,
    anchor: &Anchor,
    steps: u64,
    fetch_faults: bool,
) -> Result<(), SimError>
where
    C: Core,
    I: InputPort,
    O: OutputPort,
    F: FaultHook,
{
    let period = spent(engine.core) - anchor.spent;
    if budget.saturating_sub(spent(engine.core)) / period < 2 {
        return Ok(());
    }
    let before = engine.core.state().run_result();
    let mut tee = Tee {
        inner: output,
        writes: Vec::new(),
    };
    for _ in 0..steps {
        engine.step_latched(input, &mut tee, fetch_faults)?;
    }
    let core = &mut *engine.core;
    debug_assert!(anchor.matches(core, input), "a period repeats exactly");
    let after = core.state().run_result();
    let writes = tee.writes;
    let k = (budget - spent(core)) / period;
    let skipped =
        |counter: fn(&RunResult) -> u64| (counter(&after) - counter(&before)).saturating_mul(k);
    let state = core.state_mut();
    state.cycle = state.cycle.saturating_add(skipped(|r| r.cycles));
    state.instructions = state
        .instructions
        .saturating_add(skipped(|r| r.instructions));
    state.taken_branches = state
        .taken_branches
        .saturating_add(skipped(|r| r.taken_branches));
    state.fetched_bytes = state
        .fetched_bytes
        .saturating_add(skipped(|r| r.fetched_bytes));
    output.repeat(&writes, after.cycles - before.cycles, k);
    Ok(())
}

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
//!   dialect registers, compared in place) plus the port position.
//!   Before the first checkpoint the loop does no extra work per step.
//!   The first checkpoint depends on the hook the drain runs: 64 units
//!   ([`FIRST_CHECKPOINT`]) while a fault can still act, 1 024
//!   ([`FAULT_FREE_CHECKPOINT`]) on the fault-free code, which runs
//!   fault-free runs, quiet stretches and the rest of a run once its
//!   last flip has fired. When a checkpoint is taken never changes a
//!   result, only how many steps are simulated before a jump.
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

use super::{step, Core, Fetch, Progress, Snapshot};

/// The first checkpoint, in budget units, of a drain whose hook can
/// still act. Runs that halt before it pay nothing for detection; runs
/// that go on past it pay an anchor per checkpoint crossed and a PC
/// compare per step. Hung stuck-at kernel runs enter their loop after a
/// median 25 units, with a median period of 16, so most hangs are
/// caught within a few periods of it (DESIGN.md §16.2).
const FIRST_CHECKPOINT: u64 = 1 << 6;

/// The first checkpoint of a fault-free drain, above every kernel's
/// fault-free run. A drain on the fault-free code almost never hangs
/// (10 hangs in 17 309 executed `inject-sweep` trials at seed 7), so
/// it skips what a 64-unit checkpoint costs every run that halts after
/// 64 units: about 8 % of replaying those trials, whose runs average
/// about 105 units (DESIGN.md §16.2).
const FAULT_FREE_CHECKPOINT: u64 = 1 << 10;

/// Drive `core` under `faults` until the halt idiom or until `budget`
/// is spent, each step taking its instruction as `fetch` says. Exactly
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
pub(crate) fn drain<C, F, I, O>(
    core: &mut C,
    faults: &mut F,
    input: &mut I,
    output: &mut O,
    budget: u64,
    fetch: Fetch<'_, C::Insn>,
) -> Result<(), SimError>
where
    C: Core,
    F: FaultHook,
    I: InputPort,
    O: OutputPort,
{
    let first = if F::ACTIVE {
        FIRST_CHECKPOINT
    } else {
        FAULT_FREE_CHECKPOINT
    };
    let mut checkpoint = spent(core)
        .checked_add(1)
        .and_then(u64::checked_next_power_of_two)
        .unwrap_or(u64::MAX)
        .max(first);
    loop {
        steps(core, faults, input, output, checkpoint.min(budget), fetch)?;
        if !runs(core, budget) {
            return Ok(());
        }
        checkpoint = checkpoint.saturating_mul(2);
        if let (true, Some(position)) = (faults.is_steady(), input.position()) {
            let anchor = Anchor {
                snap: core.snapshot(),
                position,
                spent: spent(core),
            };
            let bound = checkpoint.min(budget);
            if let Some(steps) = search(core, faults, input, output, bound, &anchor, fetch)? {
                forward(core, faults, input, output, budget, &anchor, steps, fetch)?;
                // after a jump only the plain tail is left
                checkpoint = u64::MAX;
            }
        }
    }
}

/// The plain loop: step until the halt idiom or until `bound` is spent.
/// The PC and the run accounting live in a local for the whole loop and
/// are written back to the core on every exit, errors included.
#[inline(always)]
fn steps<C, F, I, O>(
    core: &mut C,
    faults: &mut F,
    input: &mut I,
    output: &mut O,
    bound: u64,
    fetch: Fetch<'_, C::Insn>,
) -> Result<(), SimError>
where
    C: Core,
    F: FaultHook,
    I: InputPort,
    O: OutputPort,
{
    let mut at = core.state().at;
    let mut ended = Ok(());
    while !at.halted && C::budget_spent(&at) < bound {
        if let Err(error) = step(core, faults, &mut at, input, output, fetch) {
            ended = Err(error);
            break;
        }
    }
    core.state_mut().at = at;
    ended
}

/// Step until `bound`, comparing each step's state with `anchor`:
/// the number of steps to the first repeat, if one comes. Kept out of
/// line, like [`forward`], so that the plain loop holds the only copy
/// of the step each [`drain`] call inlines. It keeps the PC and the
/// accounting in a local as the plain loop does.
#[inline(never)]
fn search<C, F, I, O>(
    core: &mut C,
    faults: &mut F,
    input: &mut I,
    output: &mut O,
    bound: u64,
    anchor: &Anchor,
    fetch: Fetch<'_, C::Insn>,
) -> Result<Option<u64>, SimError>
where
    C: Core,
    F: FaultHook,
    I: InputPort,
    O: OutputPort,
{
    let mut at = core.state().at;
    let mut steps = 0u64;
    let found = loop {
        if at.halted || C::budget_spent(&at) >= bound {
            break Ok(None);
        }
        if let Err(error) = step(core, faults, &mut at, input, output, fetch) {
            break Err(error);
        }
        steps += 1;
        if anchor.matches(core, &at, input) {
            break Ok(Some(steps));
        }
    };
    core.state_mut().at = at;
    found
}

/// Watchdog budget spent so far (cycles or instructions, per dialect).
pub(super) fn spent<C: Core>(core: &C) -> u64 {
    C::budget_spent(&core.state().at)
}

/// The plain loop's condition.
pub(super) fn runs<C: Core>(core: &C, bound: u64) -> bool {
    !core.state().at.halted && spent(core) < bound
}

/// The state a checkpoint anchored: core plus input position, and the
/// budget spent when it was taken.
struct Anchor {
    snap: Snapshot,
    position: u64,
    spent: u64,
}

impl Anchor {
    /// Whether the core, whose PC and accounting are `at`, and the port
    /// are back in the anchored state. The PC goes first: it is the one
    /// compare most steps fail.
    fn matches<C: Core, I: InputPort>(&self, core: &C, at: &Progress, input: &I) -> bool {
        at.pc == self.snap.pc
            && core.state().mmu == self.snap.mmu
            && at.halted == self.snap.halted
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
/// periods is left to the caller's plain loop. The period steps keep
/// the PC and the accounting in a local, written back before the skip
/// and on an error.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn forward<C, F, I, O>(
    core: &mut C,
    faults: &mut F,
    input: &mut I,
    output: &mut O,
    budget: u64,
    anchor: &Anchor,
    steps: u64,
    fetch: Fetch<'_, C::Insn>,
) -> Result<(), SimError>
where
    C: Core,
    F: FaultHook,
    I: InputPort,
    O: OutputPort,
{
    let period = spent(core) - anchor.spent;
    if budget.saturating_sub(spent(core)) / period < 2 {
        return Ok(());
    }
    let before = core.state().run_result();
    let mut tee = Tee {
        inner: output,
        writes: Vec::new(),
    };
    let mut at = core.state().at;
    let mut ended = Ok(());
    for _ in 0..steps {
        if let Err(error) = step(core, faults, &mut at, input, &mut tee, fetch) {
            ended = Err(error);
            break;
        }
    }
    core.state_mut().at = at;
    ended?;
    debug_assert!(anchor.matches(core, &at, input), "a period repeats exactly");
    let after = core.state().run_result();
    let writes = tee.writes;
    let k = (budget - spent(core)) / period;
    let skipped =
        |counter: fn(&RunResult) -> u64| (counter(&after) - counter(&before)).saturating_mul(k);
    let at = &mut core.state_mut().at;
    at.cycle = at.cycle.saturating_add(skipped(|r| r.cycles));
    at.instructions = at.instructions.saturating_add(skipped(|r| r.instructions));
    at.taken_branches = at
        .taken_branches
        .saturating_add(skipped(|r| r.taken_branches));
    at.fetched_bytes = at
        .fetched_bytes
        .saturating_add(skipped(|r| r.fetched_bytes));
    output.repeat(&writes, after.cycles - before.cycles, k);
    Ok(())
}

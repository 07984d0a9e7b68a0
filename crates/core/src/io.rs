//! Input/output bus peripherals.
//!
//! FlexiCore4 has two four-bit IO buses (one input, one output) that are
//! memory-mapped to data-memory addresses 0 and 1 (§3.3); FlexiCore8's buses
//! are eight bits wide. The simulator models peripherals through the
//! [`InputPort`] and [`OutputPort`] traits. Values are carried in `u8` and
//! masked by the core to its datapath width.

use std::borrow::Cow;

/// A device driving the core's input bus.
///
/// `read` is called once per architectural read of the IPORT address with
/// the current cycle number, letting time-varying peripherals (sensors,
/// user input) present fresh data.
pub trait InputPort {
    /// Sample the bus. The core masks the returned value to its width.
    fn read(&mut self, cycle: u64) -> u8;

    /// Where the port stands in its input stream, for ports that can
    /// promise their future reads depend on this value alone — never on
    /// the cycle stamp, and never on anything else that changes. Two
    /// equal positions of one port therefore promise identical futures.
    ///
    /// The engine's hang fast-forward arms only on ports answering
    /// `Some`. The default `None` ("time-varying, or unknown") keeps it
    /// off, which is always sound.
    fn position(&self) -> Option<u64> {
        None
    }
}

/// A device observing the core's output bus.
pub trait OutputPort {
    /// Observe a value driven on the bus at the given cycle.
    fn write(&mut self, cycle: u64, value: u8);

    /// Observe `times` more copies of `period`'s writes, the `r`-th copy
    /// (counting from 1) stamped `shift × r` cycles later, saturating at
    /// `u64::MAX`. The engine's hang fast-forward calls it once, with
    /// the writes of one loop period, for the whole periods it skips
    /// (DESIGN.md §16.3). The default replays the copies through
    /// [`write`](Self::write), in order; a port may override it to do
    /// the same faster, or to skip a replay its owner never reads.
    fn repeat(&mut self, period: &[(u64, u8)], shift: u64, times: u64) {
        replay(self, period, shift, times);
    }
}

/// The default [`OutputPort::repeat`]: every copy through `write`.
fn replay<O: OutputPort + ?Sized>(port: &mut O, period: &[(u64, u8)], shift: u64, times: u64) {
    if period.is_empty() {
        return;
    }
    for r in 1..=times {
        let offset = shift.saturating_mul(r);
        for &(cycle, value) in period {
            port.write(cycle.saturating_add(offset), value);
        }
    }
}

impl<T: InputPort + ?Sized> InputPort for &mut T {
    fn read(&mut self, cycle: u64) -> u8 {
        (**self).read(cycle)
    }

    fn position(&self) -> Option<u64> {
        (**self).position()
    }
}

impl<T: OutputPort + ?Sized> OutputPort for &mut T {
    fn write(&mut self, cycle: u64, value: u8) {
        (**self).write(cycle, value);
    }

    fn repeat(&mut self, period: &[(u64, u8)], shift: u64, times: u64) {
        (**self).repeat(period, shift, times);
    }
}

/// An input bus held at a constant value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConstInput {
    value: u8,
}

impl ConstInput {
    /// Hold the bus at `value`.
    #[must_use]
    pub fn new(value: u8) -> Self {
        ConstInput { value }
    }
}

impl InputPort for ConstInput {
    fn read(&mut self, _cycle: u64) -> u8 {
        self.value
    }

    fn position(&self) -> Option<u64> {
        Some(0)
    }
}

/// An input bus that presents a scripted sequence of values, one per read.
///
/// After the sequence is exhausted the bus holds the final value (or 0 for
/// an empty script). This models a peripheral that the program polls at its
/// own pace — e.g. the Calculator kernel reading operands and an operation.
///
/// The script is owned ([`new`](Self::new)) or borrowed
/// ([`borrowed`](Self::borrowed)); both are the one port type, so a run
/// over a borrowed script copies nothing and compiles no second drain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScriptedInput<'a> {
    values: Cow<'a, [u8]>,
    next: usize,
}

impl ScriptedInput<'static> {
    /// Present `values` in order, one per IPORT read.
    #[must_use]
    pub fn new(values: Vec<u8>) -> Self {
        ScriptedInput {
            values: Cow::Owned(values),
            next: 0,
        }
    }
}

impl<'a> ScriptedInput<'a> {
    /// Present the borrowed `values` in order, one per IPORT read.
    #[must_use]
    pub fn borrowed(values: &'a [u8]) -> Self {
        ScriptedInput {
            values: Cow::Borrowed(values),
            next: 0,
        }
    }

    /// Number of reads already served.
    #[must_use]
    pub fn reads(&self) -> usize {
        self.next
    }
}

impl InputPort for ScriptedInput<'_> {
    fn read(&mut self, _cycle: u64) -> u8 {
        let v = self
            .values
            .get(self.next)
            .or(self.values.last())
            .copied()
            .unwrap_or(0);
        if self.next < self.values.len() {
            self.next += 1;
        }
        v
    }

    /// The read cursor: it stops at the end of the script, where every
    /// later read repeats the final value.
    fn position(&self) -> Option<u64> {
        Some(self.next as u64)
    }
}

/// An output bus that records every value written, with its cycle stamp.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecordingOutput {
    writes: Vec<(u64, u8)>,
}

impl RecordingOutput {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        RecordingOutput::default()
    }

    /// All `(cycle, value)` writes observed so far.
    #[must_use]
    pub fn writes(&self) -> &[(u64, u8)] {
        &self.writes
    }

    /// Just the written values, in order.
    #[must_use]
    pub fn values(&self) -> Vec<u8> {
        self.writes.iter().map(|&(_, v)| v).collect()
    }

    /// The most recent value, if any.
    #[must_use]
    pub fn last(&self) -> Option<u8> {
        self.writes.last().map(|&(_, v)| v)
    }

    /// Number of writes observed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// `true` if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Room for `times` copies of a `len`-write period plus one more:
    /// after a fast-forward's replay the engine steps at most one
    /// partial period, so that copy's writes need no regrowth either. A
    /// reservation too large to honour is ignored.
    fn reserve_periods(&mut self, len: usize, times: u64) {
        let total = times.saturating_add(1).saturating_mul(len as u64);
        let _ = self
            .writes
            .try_reserve_exact(usize::try_from(total).unwrap_or(usize::MAX));
    }
}

impl OutputPort for RecordingOutput {
    fn write(&mut self, cycle: u64, value: u8) {
        self.writes.push((cycle, value));
    }

    /// Reserves exactly, then replays every copy: a fast-forwarded
    /// hang's recording holds all its writes with no doubling slack.
    fn repeat(&mut self, period: &[(u64, u8)], shift: u64, times: u64) {
        self.reserve_periods(period.len(), times);
        replay(self, period, shift, times);
    }
}

/// An output bus that discards everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NullOutput;

impl NullOutput {
    /// A sink.
    #[must_use]
    pub fn new() -> Self {
        NullOutput
    }
}

impl OutputPort for NullOutput {
    fn write(&mut self, _cycle: u64, _value: u8) {}

    fn repeat(&mut self, _period: &[(u64, u8)], _shift: u64, _times: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_input_is_constant() {
        let mut p = ConstInput::new(9);
        assert_eq!(p.read(0), 9);
        assert_eq!(p.read(100), 9);
    }

    #[test]
    fn scripted_input_advances_per_read_and_latches_last() {
        let mut p = ScriptedInput::new(vec![1, 2, 3]);
        assert_eq!(p.read(0), 1);
        assert_eq!(p.read(0), 2);
        assert_eq!(p.read(0), 3);
        assert_eq!(p.read(0), 3);
        assert_eq!(p.reads(), 3);
    }

    #[test]
    fn scripted_position_is_the_cursor_and_stops_at_the_end() {
        let mut p = ScriptedInput::new(vec![1, 2]);
        assert_eq!(p.position(), Some(0));
        p.read(0);
        assert_eq!(p.position(), Some(1));
        p.read(0);
        p.read(0);
        assert_eq!(p.position(), Some(2), "exhausted script stays put");
        assert_eq!(ConstInput::new(3).position(), Some(0));
        let by_ref: &mut ScriptedInput<'_> = &mut p;
        assert_eq!(by_ref.position(), Some(2), "&mut forwards");
    }

    #[test]
    fn a_borrowed_script_reads_as_an_owned_one() {
        let script = [4, 5];
        let mut borrowed = ScriptedInput::borrowed(&script);
        let mut owned = ScriptedInput::new(script.to_vec());
        for _ in 0..3 {
            assert_eq!(borrowed.read(0), owned.read(0));
            assert_eq!(borrowed.position(), owned.position());
        }
    }

    #[test]
    fn empty_script_reads_zero() {
        let mut p = ScriptedInput::new(vec![]);
        assert_eq!(p.read(0), 0);
    }

    #[test]
    fn recording_output_collects() {
        let mut o = RecordingOutput::new();
        o.write(5, 0xA);
        o.write(9, 0xB);
        assert_eq!(o.values(), vec![0xA, 0xB]);
        assert_eq!(o.last(), Some(0xB));
        assert_eq!(o.writes(), &[(5, 0xA), (9, 0xB)]);
        assert_eq!(o.len(), 2);
    }

    /// A port with only `write`, so `repeat` is the trait default.
    #[derive(Default)]
    struct Plain(Vec<(u64, u8)>);

    impl OutputPort for Plain {
        fn write(&mut self, cycle: u64, value: u8) {
            self.0.push((cycle, value));
        }
    }

    #[test]
    fn repeat_equals_a_write_loop_and_saturates() {
        let period = [(u64::MAX - 40, 3), (u64::MAX - 25, 9), (u64::MAX - 5, 1)];
        for (shift, times) in [(0, 3), (1, 1), (7, 4), (20, 5), (u64::MAX, 2)] {
            let mut by_hand = Vec::new();
            for r in 1..=times {
                for &(cycle, value) in &period {
                    by_hand.push((cycle.saturating_add(shift.saturating_mul(r)), value));
                }
            }
            let mut plain = Plain::default();
            plain.repeat(&period, shift, times);
            let mut rec = RecordingOutput::new();
            rec.repeat(&period, shift, times);
            assert_eq!(plain.0, by_hand, "default, shift {shift} x {times}");
            assert_eq!(
                rec.writes(),
                &by_hand[..],
                "override, shift {shift} x {times}"
            );
        }
        let mut rec = RecordingOutput::new();
        rec.repeat(&period, 20, 5);
        assert_eq!(
            rec.writes()[12..],
            [(u64::MAX, 3), (u64::MAX, 9), (u64::MAX, 1)]
        );
    }

    #[test]
    fn repeat_zero_times_or_an_empty_period_writes_nothing() {
        let mut plain = Plain::default();
        let mut rec = RecordingOutput::new();
        plain.repeat(&[(5, 1), (6, 2)], 4, 0);
        rec.repeat(&[(5, 1), (6, 2)], 4, 0);
        // an empty period returns at once, whatever the count
        plain.repeat(&[], 4, u64::MAX);
        rec.repeat(&[], 4, u64::MAX);
        NullOutput.repeat(&[(5, 1)], 4, u64::MAX);
        assert!(plain.0.is_empty());
        assert!(rec.is_empty());
    }

    #[test]
    fn mut_ref_forwards_repeat() {
        /// Counts `repeat` calls and fails on any write.
        #[derive(Default)]
        struct Counting(usize);

        impl OutputPort for Counting {
            fn write(&mut self, _cycle: u64, _value: u8) {
                panic!("repeat was not forwarded");
            }

            fn repeat(&mut self, _period: &[(u64, u8)], _shift: u64, _times: u64) {
                self.0 += 1;
            }
        }

        fn replay_through<O: OutputPort>(mut port: O) {
            port.repeat(&[(1, 2)], 3, 4);
        }
        let mut counting = Counting::default();
        replay_through(&mut counting);
        assert_eq!(counting.0, 1);
        let mut rec = RecordingOutput::new();
        replay_through(&mut rec);
        assert_eq!(rec.writes(), &[(4, 2), (7, 2), (10, 2), (13, 2)]);
        assert_eq!(rec.writes.capacity(), 5, "the override reserved");
    }

    #[test]
    fn reservation_too_large_to_honour_is_ignored() {
        let mut o = RecordingOutput::new();
        o.reserve_periods(1, u64::MAX);
        o.reserve_periods(usize::MAX, 2);
        o.reserve_periods(usize::MAX / 2, 1);
        assert!(o.is_empty());
        assert_eq!(o.writes.capacity(), 0);
        o.reserve_periods(3, 4);
        assert_eq!(o.writes.capacity(), 15, "exact: five copies of three");
    }

    #[test]
    fn trait_objects_usable() {
        let mut rec = RecordingOutput::new();
        {
            let out: &mut dyn OutputPort = &mut rec;
            let borrowed = &mut *out;
            borrowed.write(0, 1);
        }
        assert_eq!(rec.last(), Some(1));
    }
}

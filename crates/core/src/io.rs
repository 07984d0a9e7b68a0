//! Input/output bus peripherals.
//!
//! FlexiCore4 has two four-bit IO buses (one input, one output) that are
//! memory-mapped to data-memory addresses 0 and 1 (§3.3); FlexiCore8's buses
//! are eight bits wide. The simulator models peripherals through the
//! [`InputPort`] and [`OutputPort`] traits. Values are carried in `u8` and
//! masked by the core to its datapath width.

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

    /// A hint that about `writes` more writes are coming: the engine's
    /// hang fast-forward calls it before replaying a loop's writes, so a
    /// recording port can size its buffer once. The default ignores it.
    fn reserve(&mut self, writes: usize) {
        let _ = writes;
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

    fn reserve(&mut self, writes: usize) {
        (**self).reserve(writes);
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
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScriptedInput {
    values: Vec<u8>,
    next: usize,
}

impl ScriptedInput {
    /// Present `values` in order, one per IPORT read.
    #[must_use]
    pub fn new(values: Vec<u8>) -> Self {
        ScriptedInput { values, next: 0 }
    }

    /// Number of reads already served.
    #[must_use]
    pub fn reads(&self) -> usize {
        self.next
    }
}

impl InputPort for ScriptedInput {
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

/// An input bus that *holds* each scripted value for a fixed number of
/// reads before advancing — a simple model of a sampled sensor stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamInput {
    values: Vec<u8>,
    holds: usize,
    served: usize,
}

impl StreamInput {
    /// Present each of `values` for `holds` consecutive reads.
    ///
    /// # Panics
    ///
    /// Panics if `holds` is zero.
    #[must_use]
    pub fn new(values: Vec<u8>, holds: usize) -> Self {
        assert!(holds > 0, "holds must be positive");
        StreamInput {
            values,
            holds,
            served: 0,
        }
    }
}

impl InputPort for StreamInput {
    fn read(&mut self, _cycle: u64) -> u8 {
        let idx = self.served / self.holds;
        let v = self
            .values
            .get(idx)
            .or(self.values.last())
            .copied()
            .unwrap_or(0);
        self.served += 1;
        v
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
}

impl OutputPort for RecordingOutput {
    fn write(&mut self, cycle: u64, value: u8) {
        self.writes.push((cycle, value));
    }

    /// Reserves exactly, so a fast-forwarded hang's recording carries
    /// no doubling slack; a hint too large to honour is ignored.
    fn reserve(&mut self, writes: usize) {
        let _ = self.writes.try_reserve_exact(writes);
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
        assert_eq!(StreamInput::new(vec![1], 1).position(), None);
        let by_ref: &mut ScriptedInput = &mut p;
        assert_eq!(by_ref.position(), Some(2), "&mut forwards");
    }

    #[test]
    fn empty_script_reads_zero() {
        let mut p = ScriptedInput::new(vec![]);
        assert_eq!(p.read(0), 0);
    }

    #[test]
    fn stream_input_holds_values() {
        let mut p = StreamInput::new(vec![7, 8], 2);
        assert_eq!([p.read(0), p.read(0), p.read(0), p.read(0)], [7, 7, 8, 8]);
        assert_eq!(p.read(0), 8); // latches last
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

    #[test]
    fn recording_reserve_is_forwarded_and_never_panics() {
        fn hint<O: OutputPort>(mut port: O) {
            port.reserve(1_000);
        }
        let mut o = RecordingOutput::new();
        hint(&mut o);
        assert!(o.writes.capacity() >= 1_000, "&mut forwards");
        o.reserve(usize::MAX); // too large to honour: ignored
        assert!(o.is_empty());
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

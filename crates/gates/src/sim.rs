//! Compiled netlist simulation with 64 parallel lanes.
//!
//! Every net carries one `u64` — one bit per *lane*. All lanes see the
//! same stimulus; they differ only in injected stuck-at faults — the
//! classic parallel-pattern single-fault-propagation trick, which is what
//! makes testing every die of a simulated wafer against 100 000-cycle
//! vector sets tractable (§4.1): 64 faulty die variants run in one pass.
//!
//! [`BatchSim::new`] compiles the netlist once into a flat *tape*: one
//! step per combinational cell, in levelized order, holding an opcode
//! and the dense indices of its operand and output nets. BUF and INV
//! variants fold to one opcode each, and flip-flops stay off the tape.
//! [`settle`](BatchSim::settle) is then one pass over the tape with a
//! single `match` per step. Stuck-at faults live in a short mask table
//! whose entry 0 is the clean mask: each step names the entry for its
//! output net and applies `(raw & !sa0) | sa1` unconditionally, and
//! injecting or clearing faults only marks the table for re-pointing at
//! the next settle. A clock edge copies every flop's D into a reusable
//! buffer, then every buffered value into its Q, so all flops capture
//! before any updates.
//!
//! The per-cell truth tables therefore exist twice: in
//! [`CellKind::eval`](crate::cell::CellKind::eval) and in the tape's
//! opcodes. The `compiled_oracle` test keeps them together by running a
//! per-cell interpreter over `eval` beside this simulator on random
//! netlists and fault sets. The slice algebra consumers use on the lane
//! words (golden-lane comparison, lane gathers) lives in
//! [`crate::slice`].

use crate::cell::CellKind;
use crate::netlist::{Net, Netlist, NetlistError};
use crate::slice::BitSlice64;

/// Per-net stuck-at masks (bit set ⇒ that lane holds the fault).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultMask {
    /// Lanes where the net is stuck at 0.
    pub sa0: u64,
    /// Lanes where the net is stuck at 1.
    pub sa1: u64,
}

impl FaultMask {
    #[inline]
    fn apply(self, v: u64) -> u64 {
        BitSlice64(v).stuck(self.sa0, self.sa1).0
    }

    /// Whether any lane carries a fault.
    #[must_use]
    pub fn is_clean(self) -> bool {
        self.sa0 == 0 && self.sa1 == 0
    }
}

/// A tape step's boolean function (one per distinct truth table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Op {
    Buf,
    Inv,
    Nand2,
    Nand3,
    Nor2,
    Nor3,
    Xor2,
    Xnor2,
    /// `a ? b : c`.
    Mux2,
}

impl Op {
    /// The opcode of a combinational cell; `None` for flip-flops.
    fn of(kind: CellKind) -> Option<Op> {
        Some(match kind {
            CellKind::BufX1 | CellKind::BufX2 => Op::Buf,
            CellKind::InvX1 | CellKind::InvX2 => Op::Inv,
            CellKind::Nand2 => Op::Nand2,
            CellKind::Nand3 => Op::Nand3,
            CellKind::Nor2 => Op::Nor2,
            CellKind::Nor3 => Op::Nor3,
            CellKind::Xor2 => Op::Xor2,
            CellKind::Xnor2 => Op::Xnor2,
            CellKind::Mux2 => Op::Mux2,
            CellKind::Dff | CellKind::DffR => return None,
        })
    }
}

/// One combinational cell on the tape:
/// `values[out] = masks[mask].apply(op(values[a], values[b], values[c]))`.
/// Operand slots a cell does not use repeat `a`.
#[derive(Debug, Clone, Copy)]
struct Step {
    op: Op,
    mask: u32,
    a: u32,
    b: u32,
    c: u32,
    out: u32,
}

/// One flip-flop: Q takes `masks[mask].apply(D)` on every clock edge.
#[derive(Debug, Clone, Copy)]
struct Flop {
    d: u32,
    q: u32,
    mask: u32,
}

/// What drives a net, for pointing its fault mask at the right place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    /// A primary input, the constant-0 net or an undriven placeholder.
    None,
    /// The tape step at this index.
    Step(u32),
    /// The flip-flop at this index.
    Flop(u32),
}

/// A lane-parallel simulator over a frozen netlist.
#[derive(Debug, Clone)]
pub struct BatchSim<'a> {
    netlist: &'a Netlist,
    tape: Vec<Step>,
    flops: Vec<Flop>,
    drivers: Vec<Driver>,
    const0: Option<usize>,
    values: Vec<u64>,
    /// Each flop's D as sampled at the current clock edge.
    captured: Vec<u64>,
    /// The injected masks, per net.
    faults: Vec<FaultMask>,
    faulty_nets: Vec<usize>,
    /// The mask table the tape and the flops index; entry 0 is clean.
    masks: Vec<FaultMask>,
    /// Faulty nets no tape step drives (inputs, constant 0, flop
    /// outputs, placeholders), with their mask-table entry: they are
    /// re-pinned at the start of every settle.
    pinned: Vec<(usize, u32)>,
    /// Whether `masks` lags behind `faults`.
    dirty: bool,
}

impl<'a> BatchSim<'a> {
    /// Freeze `netlist` for simulation, compiling it to a tape.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] integrity failures.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        let cells = netlist.cells();
        let mut drivers = vec![Driver::None; netlist.net_count()];
        let mut tape = Vec::with_capacity(cells.len());
        for ci in netlist.levelize()? {
            let cell = &cells[ci];
            let op = Op::of(cell.kind).expect("levelize orders combinational cells only");
            let operand = |k: usize| cell.inputs.get(k).unwrap_or(&cell.inputs[0]).0;
            drivers[cell.output.index()] = Driver::Step(tape.len() as u32);
            tape.push(Step {
                op,
                mask: 0,
                a: operand(0),
                b: operand(1),
                c: operand(2),
                out: cell.output.0,
            });
        }
        let mut flops = Vec::new();
        for cell in cells.iter().filter(|c| c.kind.spec().sequential) {
            drivers[cell.output.index()] = Driver::Flop(flops.len() as u32);
            flops.push(Flop {
                d: cell.inputs[0].0,
                q: cell.output.0,
                mask: 0,
            });
        }
        Ok(BatchSim {
            netlist,
            tape,
            captured: vec![0; flops.len()],
            flops,
            drivers,
            const0: netlist.const0_net().map(Net::index),
            values: vec![0; netlist.net_count()],
            faults: vec![FaultMask::default(); netlist.net_count()],
            faulty_nets: Vec::new(),
            masks: vec![FaultMask::default()],
            pinned: Vec::new(),
            dirty: false,
        })
    }

    /// Reset all nets and flip-flops to 0 (power-on state).
    pub fn reset(&mut self) {
        self.values.fill(0);
        for &net in &self.faulty_nets {
            self.values[net] = self.faults[net].apply(0);
        }
    }

    /// Inject a stuck-at fault on `net` in the given lanes.
    pub fn inject(&mut self, net: Net, stuck_at_one: bool, lanes: u64) {
        let m = &mut self.faults[net.index()];
        if m.is_clean() {
            self.faulty_nets.push(net.index());
        }
        if stuck_at_one {
            m.sa1 |= lanes;
        } else {
            m.sa0 |= lanes;
        }
        self.dirty = true;
    }

    /// Remove all injected faults.
    pub fn clear_faults(&mut self) {
        for &net in &self.faulty_nets {
            self.faults[net] = FaultMask::default();
        }
        self.faulty_nets.clear();
        self.dirty = true;
    }

    /// Rebuild the mask table from the injected faults and point every
    /// step and flop at its output's entry.
    fn repoint_masks(&mut self) {
        for step in &mut self.tape {
            step.mask = 0;
        }
        for flop in &mut self.flops {
            flop.mask = 0;
        }
        self.masks.truncate(1);
        self.pinned.clear();
        for &net in &self.faulty_nets {
            let mask = self.faults[net];
            if mask.is_clean() {
                continue;
            }
            let entry = self.masks.len() as u32;
            self.masks.push(mask);
            match self.drivers[net] {
                Driver::Step(i) => self.tape[i as usize].mask = entry,
                Driver::Flop(i) => {
                    self.flops[i as usize].mask = entry;
                    self.pinned.push((net, entry));
                }
                Driver::None => self.pinned.push((net, entry)),
            }
        }
        self.dirty = false;
    }

    /// Drive an input bus with `value` on the lanes selected by `lanes`
    /// (other lanes keep their previous drive).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn set_input_value(&mut self, name: &str, value: u64, lanes: u64) {
        let nets = self
            .netlist
            .input_ports()
            .get(name)
            .unwrap_or_else(|| panic!("unknown input port `{name}`"));
        for (bit, net) in nets.iter().enumerate() {
            let word = &mut self.values[net.index()];
            *word = BitSlice64(*word).drive((value >> bit) & 1 == 1, lanes).0;
        }
    }

    /// Evaluate the combinational fabric (inputs and flop outputs held).
    pub fn settle(&mut self) {
        if self.dirty {
            self.repoint_masks();
        }
        if let Some(c0) = self.const0 {
            self.values[c0] = 0;
        }
        // pin faults on nets the tape does not drive; driven nets are
        // masked as their step writes them
        for &(net, entry) in &self.pinned {
            self.values[net] = self.masks[entry as usize].apply(self.values[net]);
        }
        let values = &mut self.values;
        for step in &self.tape {
            let a = values[step.a as usize];
            let raw = match step.op {
                Op::Buf => a,
                Op::Inv => !a,
                Op::Nand2 => !(a & values[step.b as usize]),
                Op::Nand3 => !(a & values[step.b as usize] & values[step.c as usize]),
                Op::Nor2 => !(a | values[step.b as usize]),
                Op::Nor3 => !(a | values[step.b as usize] | values[step.c as usize]),
                Op::Xor2 => a ^ values[step.b as usize],
                Op::Xnor2 => !(a ^ values[step.b as usize]),
                Op::Mux2 => (a & values[step.b as usize]) | (!a & values[step.c as usize]),
            };
            values[step.out as usize] = self.masks[step.mask as usize].apply(raw);
        }
    }

    /// Settle, then clock every flip-flop (capture D into Q).
    pub fn clock(&mut self) {
        self.settle();
        // capture all D values before updating any Q (two-phase, like real
        // edge-triggered flops)
        for (d, flop) in self.captured.iter_mut().zip(&self.flops) {
            *d = self.values[flop.d as usize];
        }
        for (&d, flop) in self.captured.iter().zip(&self.flops) {
            self.values[flop.q as usize] = self.masks[flop.mask as usize].apply(d);
        }
    }

    /// Read a single net's lane vector.
    #[must_use]
    pub fn net_value(&self, net: Net) -> u64 {
        self.values[net.index()]
    }

    /// Read a single net's packed slice.
    #[must_use]
    pub fn net_slice(&self, net: Net) -> BitSlice64 {
        BitSlice64(self.values[net.index()])
    }

    /// Read an output bus as an integer for one lane.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `lane >= 64`.
    #[must_use]
    pub fn output_value(&self, name: &str, lane: u32) -> u64 {
        BitSlice64::gather(&self.output_slices(name), lane)
    }

    /// Read an output bus as 64 lane values at once (bit `b` of lane `l`
    /// is bit `l` of element `b`).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    #[must_use]
    pub fn output_lanes(&self, name: &str) -> Vec<u64> {
        self.output_slices(name).into_iter().map(|s| s.0).collect()
    }

    /// Read an output bus as packed slices, little-endian by bus bit
    /// (`result[b]` carries bit `b` of every lane).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    #[must_use]
    pub fn output_slices(&self, name: &str) -> Vec<BitSlice64> {
        let nets = self
            .netlist
            .output_ports()
            .get(name)
            .unwrap_or_else(|| panic!("unknown output port `{name}`"));
        nets.iter().map(|&n| self.net_slice(n)).collect()
    }

    /// The underlying netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder4() -> Netlist {
        let mut n = Netlist::new();
        let a = n.inputs("a", 4);
        let b = n.inputs("b", 4);
        let zero = n.const0();
        let (sum, carry) = n.ripple_adder(&a, &b, zero);
        n.outputs("sum", &sum);
        n.output("carry", carry);
        n
    }

    #[test]
    fn adder_matches_integer_addition() {
        let n = adder4();
        let mut sim = BatchSim::new(&n).unwrap();
        for a in 0..16u64 {
            for b in 0..16u64 {
                sim.set_input_value("a", a, !0);
                sim.set_input_value("b", b, !0);
                sim.settle();
                assert_eq!(sim.output_value("sum", 0), (a + b) & 0xF);
                assert_eq!(sim.output_value("carry", 0), (a + b) >> 4);
            }
        }
    }

    #[test]
    fn register_holds_and_loads() {
        let mut n = Netlist::new();
        let d = n.inputs("d", 4);
        let we = n.input("we");
        let q = n.register(&d, we);
        n.outputs("q", &q);
        let mut sim = BatchSim::new(&n).unwrap();
        sim.reset();
        sim.set_input_value("d", 0xA, !0);
        sim.set_input_value("we", 1, !0);
        sim.clock();
        assert_eq!(sim.output_value("q", 0), 0xA);
        sim.set_input_value("d", 0x5, !0);
        sim.set_input_value("we", 0, !0);
        sim.clock();
        assert_eq!(sim.output_value("q", 0), 0xA, "we=0 holds");
        sim.set_input_value("we", 1, !0);
        sim.clock();
        assert_eq!(sim.output_value("q", 0), 0x5);
    }

    #[test]
    fn stuck_at_fault_diverges_one_lane() {
        let n = adder4();
        let mut sim = BatchSim::new(&n).unwrap();
        // stuck-at-1 on bit 0 of input a, lane 7 only
        let a0 = n.input_ports()["a"][0];
        sim.inject(a0, true, 1 << 7);
        sim.set_input_value("a", 0, !0);
        sim.set_input_value("b", 2, !0);
        sim.settle();
        assert_eq!(sim.output_value("sum", 0), 2, "clean lane");
        assert_eq!(sim.output_value("sum", 7), 3, "faulty lane sees a=1");
    }

    #[test]
    fn fault_on_internal_net() {
        let n = adder4();
        let mut sim = BatchSim::new(&n).unwrap();
        // force the carry-out net low in lane 3
        let carry = n.output_ports()["carry"][0];
        sim.inject(carry, false, 1 << 3);
        sim.set_input_value("a", 15, !0);
        sim.set_input_value("b", 1, !0);
        sim.settle();
        assert_eq!(sim.output_value("carry", 0), 1);
        assert_eq!(sim.output_value("carry", 3), 0);
    }

    #[test]
    fn clear_faults_restores_clean_behaviour() {
        let n = adder4();
        let mut sim = BatchSim::new(&n).unwrap();
        let carry = n.output_ports()["carry"][0];
        sim.inject(carry, true, !0);
        sim.set_input_value("a", 0, !0);
        sim.set_input_value("b", 0, !0);
        sim.settle();
        assert_eq!(sim.output_value("carry", 0), 1);
        sim.clear_faults();
        sim.settle();
        assert_eq!(sim.output_value("carry", 0), 0);
    }

    #[test]
    fn const1_is_one() {
        let mut n = Netlist::new();
        let one = n.const1();
        n.output("one", one);
        let mut sim = BatchSim::new(&n).unwrap();
        sim.settle();
        assert_eq!(sim.output_value("one", 0), 1);
        assert_eq!(sim.output_value("one", 63), 1);
    }

    #[test]
    fn slice_accessors_agree_with_lane_reads() {
        let n = adder4();
        let mut sim = BatchSim::new(&n).unwrap();
        let a0 = n.input_ports()["a"][0];
        sim.inject(a0, true, 1 << 7);
        sim.set_input_value("a", 0, !0);
        sim.set_input_value("b", 2, !0);
        sim.settle();
        let slices = sim.output_slices("sum");
        for lane in [0u32, 7, 63] {
            assert_eq!(
                BitSlice64::gather(&slices, lane),
                sim.output_value("sum", lane)
            );
        }
        assert_eq!(sim.net_slice(a0).0, sim.net_value(a0));
        // the divergence mask folds over every output bit
        let diverged = slices
            .iter()
            .fold(0u64, |acc, s| acc | s.lanes_differing_from(0));
        assert_eq!(diverged, 1 << 7);
    }
}

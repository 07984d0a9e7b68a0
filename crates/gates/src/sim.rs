//! Compiled netlist simulation with 64 parallel lanes.
//!
//! Every net carries one `u64` — one bit per *lane*. All lanes see the
//! same stimulus; they differ only in injected stuck-at faults — the
//! classic parallel-pattern single-fault-propagation trick, which is what
//! makes testing every die of a simulated wafer against 100 000-cycle
//! vector sets tractable (§4.1): 64 faulty die variants run in one pass.
//!
//! [`BatchSim::new`] compiles the netlist once into a flat *tape* of
//! steps that all share one branch-free form:
//!
//! ```text
//! values[out] = ((mux(values[a], values[b] ^ inv_b, values[c] ^ inv_c) ^ inv_out) & keep) | set
//! mux(s, x, y) = (s & (x ^ y)) ^ y        // s ? x : y, lane by lane
//! ```
//!
//! Every combinational cell is one such step: BUF is `(x, x, x)` and INV
//! the same with `inv_out`; NAND2 is `(x, y, x)` and NOR2 `(x, x, y)`,
//! both with `inv_out`; XOR2 is `(x, y, y)` with `inv_b` and XNOR2 the
//! same with `inv_c`; MUX2 is `(s, p, q)`. NAND3 and NOR3 take two steps,
//! an AND or an OR of their first two inputs into a scratch word placed
//! after the last net, then a NAND2 or NOR2 of that word with the third.
//! The two steps stay adjacent, so one scratch word serves every such
//! cell. Flip-flops stay off the tape. [`settle`](BatchSim::settle) is one pass
//! over the tape with no per-step dispatch.
//!
//! The tape runs in *level order*: cells are sorted stably by logic depth
//! (primary inputs, constants and flop outputs are depth 0), so steps of
//! one level, which never read each other, sit next to each other rather
//! than in dependent chains. Fault sites are drawn by netlist cell index,
//! never by tape position, so the order moves no defect.
//!
//! Stuck-at faults live inline. `keep` is `!sa0` and `set` is `sa1` of
//! the step's output net (all-ones and zero on a clean net), so a
//! stuck-at-1 wins a contradictory double injection, and the pass has no
//! fault branch. Flip-flops carry the same pair for their Q. Injecting or
//! clearing faults only marks the masks for rewriting at the next settle.
//! Nets no step drives (ports, the constant 0, flop outputs) are re-pinned
//! from a list of their faulty masks before the pass. A clock edge copies
//! every flop's D into a reusable buffer, then every buffered value
//! through its Q's masks, so all flops capture before any updates.
//!
//! Inputs are driven through [`BatchSim::drive`] on a bus's nets;
//! [`set_input_value`](BatchSim::set_input_value) looks a port up by name
//! first, so a loop that drives the same ports every cycle resolves them
//! once and calls `drive`.
//!
//! The per-cell truth tables therefore exist twice: in
//! [`CellKind::eval`](crate::cell::CellKind::eval) and in the step
//! encodings. The `compiled_oracle` test keeps them together by running a
//! per-cell interpreter over `eval` beside this simulator on random
//! netlists and fault sets, and this module's
//! `every_cell_kind_compiles_to_its_truth_table` test checks each cell
//! exhaustively. The slice algebra consumers use on the lane words
//! (golden-lane comparison, lane gathers) lives in [`crate::slice`].

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

/// One tape step:
/// `values[out] = ((mux(values[a], values[b] ^ inv_b, values[c] ^ inv_c) ^ inv_out) & keep) | set`,
/// with `keep = !sa0` and `set = sa1` of the output net.
#[derive(Debug, Clone, Copy)]
struct Step {
    a: u32,
    b: u32,
    c: u32,
    out: u32,
    inv_b: u64,
    inv_c: u64,
    inv_out: u64,
    keep: u64,
    set: u64,
}

impl Step {
    /// `out = a ? b : c`, clean.
    fn mux(a: u32, b: u32, c: u32, out: u32) -> Step {
        Step {
            a,
            b,
            c,
            out,
            inv_b: 0,
            inv_c: 0,
            inv_out: 0,
            keep: !0,
            set: 0,
        }
    }

    /// This step with its output inverted.
    fn inverted(self) -> Step {
        Step {
            inv_out: !0,
            ..self
        }
    }

    /// Append the steps computing combinational cell `kind` over operand
    /// nets `[x, y, z]` (slots past the cell's arity repeat `x`) into
    /// `out`; NAND3 and NOR3 pass through `scratch`.
    fn compile(kind: CellKind, [x, y, z]: [u32; 3], out: u32, scratch: u32, tape: &mut Vec<Step>) {
        match kind {
            CellKind::BufX1 | CellKind::BufX2 => tape.push(Step::mux(x, x, x, out)),
            CellKind::InvX1 | CellKind::InvX2 => tape.push(Step::mux(x, x, x, out).inverted()),
            CellKind::Nand2 => tape.push(Step::mux(x, y, x, out).inverted()),
            CellKind::Nor2 => tape.push(Step::mux(x, x, y, out).inverted()),
            CellKind::Xor2 => tape.push(Step {
                inv_b: !0,
                ..Step::mux(x, y, y, out)
            }),
            CellKind::Xnor2 => tape.push(Step {
                inv_c: !0,
                ..Step::mux(x, y, y, out)
            }),
            CellKind::Mux2 => tape.push(Step::mux(x, y, z, out)),
            CellKind::Nand3 => {
                tape.push(Step::mux(x, y, x, scratch));
                tape.push(Step::mux(scratch, z, scratch, out).inverted());
            }
            CellKind::Nor3 => {
                tape.push(Step::mux(x, x, y, scratch));
                tape.push(Step::mux(scratch, scratch, z, out).inverted());
            }
            CellKind::Dff | CellKind::DffR => unreachable!("flip-flops stay off the tape"),
        }
    }
}

/// One flip-flop: Q takes `(D & keep) | set` on every clock edge.
#[derive(Debug, Clone, Copy)]
struct Flop {
    d: u32,
    q: u32,
    keep: u64,
    set: u64,
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
    /// One word per net, then the scratch word of NAND3 and NOR3.
    values: Vec<u64>,
    /// Each flop's D as sampled at the current clock edge.
    captured: Vec<u64>,
    /// The injected masks, per net.
    faults: Vec<FaultMask>,
    faulty_nets: Vec<usize>,
    /// Faulty nets no tape step drives (inputs, constant 0, flop
    /// outputs, placeholders), with their masks: they are re-pinned at
    /// the start of every settle.
    pinned: Vec<(usize, FaultMask)>,
    /// Whether the steps' and flops' masks lag behind `faults`.
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
        let scratch = netlist.net_count() as u32;
        // logic depth per net: 0 for everything no combinational cell
        // drives, one past the deepest operand otherwise
        let mut depth = vec![0u32; netlist.net_count()];
        let mut order = netlist.levelize()?;
        for &ci in &order {
            let cell = &cells[ci];
            let deepest = cell.inputs.iter().map(|n| depth[n.index()]).max();
            depth[cell.output.index()] = deepest.unwrap_or(0) + 1;
        }
        order.sort_by_key(|&ci| depth[cells[ci].output.index()]);
        let mut drivers = vec![Driver::None; netlist.net_count()];
        let mut tape = Vec::with_capacity(cells.len());
        for ci in order {
            let cell = &cells[ci];
            let operand = |k: usize| cell.inputs.get(k).unwrap_or(&cell.inputs[0]).0;
            let operands = [operand(0), operand(1), operand(2)];
            Step::compile(cell.kind, operands, cell.output.0, scratch, &mut tape);
            drivers[cell.output.index()] = Driver::Step(tape.len() as u32 - 1);
        }
        let mut flops = Vec::new();
        for cell in cells.iter().filter(|c| c.kind.spec().sequential) {
            drivers[cell.output.index()] = Driver::Flop(flops.len() as u32);
            flops.push(Flop {
                d: cell.inputs[0].0,
                q: cell.output.0,
                keep: !0,
                set: 0,
            });
        }
        Ok(BatchSim {
            netlist,
            tape,
            captured: vec![0; flops.len()],
            flops,
            drivers,
            const0: netlist.const0_net().map(Net::index),
            values: vec![0; netlist.net_count() + 1],
            faults: vec![FaultMask::default(); netlist.net_count()],
            faulty_nets: Vec::new(),
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

    /// Rewrite every step's and flop's `keep` and `set` from the injected
    /// faults, and rebuild the pinned list.
    fn repoint_masks(&mut self) {
        for step in &mut self.tape {
            (step.keep, step.set) = (!0, 0);
        }
        for flop in &mut self.flops {
            (flop.keep, flop.set) = (!0, 0);
        }
        self.pinned.clear();
        for &net in &self.faulty_nets {
            let mask = self.faults[net];
            if mask.is_clean() {
                continue;
            }
            match self.drivers[net] {
                Driver::Step(i) => {
                    let step = &mut self.tape[i as usize];
                    (step.keep, step.set) = (!mask.sa0, mask.sa1);
                }
                Driver::Flop(i) => {
                    let flop = &mut self.flops[i as usize];
                    (flop.keep, flop.set) = (!mask.sa0, mask.sa1);
                    self.pinned.push((net, mask));
                }
                Driver::None => self.pinned.push((net, mask)),
            }
        }
        self.dirty = false;
    }

    /// Drive a bus of nets, least significant bit first, with `value` on
    /// the lanes selected by `lanes` (other lanes keep their previous
    /// drive). Meant for input-port nets, resolved once by a caller that
    /// drives the same bus every cycle.
    pub fn drive(&mut self, nets: &[Net], value: u64, lanes: u64) {
        for (bit, net) in nets.iter().enumerate() {
            let word = &mut self.values[net.index()];
            *word = BitSlice64(*word).drive((value >> bit) & 1 == 1, lanes).0;
        }
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
        self.drive(nets, value, lanes);
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
        for &(net, mask) in &self.pinned {
            self.values[net] = mask.apply(self.values[net]);
        }
        let values = &mut self.values;
        for step in &self.tape {
            let s = values[step.a as usize];
            let x = values[step.b as usize] ^ step.inv_b;
            let y = values[step.c as usize] ^ step.inv_c;
            let raw = ((s & (x ^ y)) ^ y) ^ step.inv_out;
            values[step.out as usize] = (raw & step.keep) | step.set;
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
            self.values[flop.q as usize] = (d & flop.keep) | flop.set;
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
    pub fn netlist(&self) -> &'a Netlist {
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

    /// Every cell kind, alone in a netlist: its 2^k input combinations
    /// ride lanes `l % 2^k`, and every lane of the output must equal
    /// `CellKind::eval`, clean and under stuck-at-0 and stuck-at-1 on
    /// overlapping lanes, where stuck-at-1 wins.
    #[test]
    fn every_cell_kind_compiles_to_its_truth_table() {
        let (sa0, sa1) = (0x00FF_00FF_F0F0_3C3C, 0x0F0F_0FF0_FF00_3333);
        assert_ne!(sa0 & sa1, 0, "the masks overlap");
        for kind in CellKind::ALL {
            let arity = kind.spec().inputs;
            let mut n = Netlist::new();
            let ins = n.inputs("i", arity);
            let out = n.cell(kind, &ins);
            n.output("y", out);
            let combos = 1u64 << arity;
            let words: Vec<u64> = (0..arity)
                .map(|bit| {
                    (0..64)
                        .filter(|l| (l % combos) >> bit & 1 == 1)
                        .fold(0, |w, l| w | 1 << l)
                })
                .collect();
            let clean = kind.eval(&words);
            let mut sim = BatchSim::new(&n).unwrap();
            for faulted in [false, true] {
                if faulted {
                    sim.inject(out, false, sa0);
                    sim.inject(out, true, sa1);
                }
                sim.reset();
                for combo in 0..combos {
                    let lanes = (0..64)
                        .filter(|l| l % combos == combo)
                        .fold(0, |w, l| w | 1 << l);
                    sim.set_input_value("i", combo, lanes);
                }
                if kind.spec().sequential {
                    sim.clock();
                } else {
                    sim.settle();
                }
                let want = if faulted { (clean & !sa0) | sa1 } else { clean };
                assert_eq!(sim.net_value(out), want, "{kind:?}, faulted {faulted}");
            }
        }
    }
}

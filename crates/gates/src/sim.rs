//! Compiled netlist simulation with 64 parallel lanes.
//!
//! Every net carries one `u64` — one bit per *lane*. All lanes see the
//! same stimulus; they differ only in injected stuck-at faults — the
//! classic parallel-pattern single-fault-propagation trick, which is what
//! makes testing every die of a simulated wafer against 100 000-cycle
//! vector sets tractable (§4.1): 64 faulty die variants run in one pass.
//!
//! [`BatchSim`] compiles the netlist, under the faults injected so far,
//! into a flat *tape* of steps, a *copy list* and the flip-flops. Every
//! combinational cell is first a *gate* of one form,
//!
//! ```text
//! out = mux(a, b ^ inv_b, c ^ inv_c) ^ inv_out
//! mux(s, x, y) = (s & (x ^ y)) ^ y        // s ? x : y, lane by lane
//! ```
//!
//! BUF is `(x, x, x)` and INV the same with `inv_out`; NAND2 is
//! `(x, y, x)` and NOR2 `(x, x, y)`, both with `inv_out`; XOR2 is
//! `(x, y, y)` with `inv_b` and XNOR2 the same with `inv_c`; MUX2 is
//! `(s, p, q)`. NAND3 and NOR3 take two gates, an AND or an OR of their
//! first two inputs into a scratch word placed after the last net, then a
//! NAND2 or NOR2 of that word with the third. The two stay adjacent, so
//! one scratch word serves every such cell. Flip-flops stay off the tape.
//!
//! A BUF or INV whose output carries no fault in any lane is *folded*: it
//! emits no step, and its output becomes an alias of its input, a source
//! net plus a polarity (a chain of them composes into one alias). Every
//! other gate reads its operands through the aliases: an inverted `b` or
//! `c` operand flips `inv_b` or `inv_c`, and an inverted select swaps `b`
//! and `c` with their flags. Each remaining gate then folds its
//! inversions and its output's stuck-at masks into three words,
//!
//! ```text
//! k1  = inv_b ^ inv_c
//! and = !(sa0 | sa1)
//! xor = ((inv_c ^ inv_out) & and) | sa1
//! values[out] = (((values[a] & (values[b] ^ values[c] ^ k1)) ^ values[c]) & and) ^ xor
//! ```
//!
//! which is the gate's value on clean lanes, 1 on stuck-at-1 lanes and 0
//! on the other stuck-at-0 lanes, so a stuck-at-1 wins a contradictory
//! double injection and the pass has no fault branch.
//! [`settle`](BatchSim::settle) is one pass over the tape with no
//! per-step dispatch, followed by the copy list: every folded net takes
//! its source's word, inverted if its polarity says so. Every read
//! (`net_value`, the output ports, flop D capture) therefore sees a
//! folded net exactly as if its cell had run, and between settles (after
//! a [`reset`](BatchSim::reset), or a [`drive`](BatchSim::drive) with no
//! settle yet) it holds what the cell last wrote, as any other net does.
//!
//! The tape runs in *level order*: cells are sorted stably by logic depth
//! (primary inputs, constants and flop outputs are depth 0), so steps of
//! one level, which never read each other, sit next to each other rather
//! than in dependent chains. Fault sites are drawn by netlist cell index,
//! never by tape position, so the order moves no defect.
//!
//! Injecting or clearing faults only marks the simulator for a recompile
//! at the next settle: which cells fold, and every step's and flop's
//! masks, depend on the fault set. A compile walks the level-ordered
//! cells once, so a caller reusing one simulator across fault sets pays
//! a few hundred cells per set. Flip-flops carry `keep = !sa0` and
//! `set = sa1` of their Q. Nets no step drives (ports, the constant 0,
//! flop outputs) are re-pinned from a list of their faulty masks before
//! the pass. A clock edge copies every flop's D into a reusable buffer,
//! then every buffered value through its Q's masks, so all flops capture
//! before any updates.
//!
//! Inputs are driven through [`BatchSim::drive`] on a bus's nets;
//! [`set_input_value`](BatchSim::set_input_value) looks a port up by name
//! first, so a loop that drives the same ports every cycle resolves them
//! once and calls `drive`.
//!
//! The per-cell truth tables therefore exist twice: in
//! [`CellKind::eval`](crate::cell::CellKind::eval) and in the gate
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

/// `bit` in every lane.
fn word(bit: bool) -> u64 {
    BitSlice64::splat(bit).0
}

/// One combinational gate before compilation:
/// `out = mux(a, b ^ inv_b, c ^ inv_c) ^ inv_out`.
#[derive(Debug, Clone, Copy)]
struct Gate {
    a: u32,
    b: u32,
    c: u32,
    out: u32,
    inv_b: bool,
    inv_c: bool,
    inv_out: bool,
}

impl Gate {
    /// `out = a ? b : c`.
    fn mux(a: u32, b: u32, c: u32, out: u32) -> Gate {
        Gate {
            a,
            b,
            c,
            out,
            inv_b: false,
            inv_c: false,
            inv_out: false,
        }
    }

    /// This gate with its output inverted.
    fn inverted(self) -> Gate {
        Gate {
            inv_out: true,
            ..self
        }
    }

    /// The gates computing combinational cell `kind` over operand nets
    /// `[x, y, z]` (slots past the cell's arity repeat `x`) into `out`:
    /// the last one writes `out`, and NAND3 and NOR3 first write
    /// `scratch`.
    fn compile(
        kind: CellKind,
        [x, y, z]: [u32; 3],
        out: u32,
        scratch: u32,
    ) -> (Option<Gate>, Gate) {
        match kind {
            CellKind::BufX1 | CellKind::BufX2 => (None, Gate::mux(x, x, x, out)),
            CellKind::InvX1 | CellKind::InvX2 => (None, Gate::mux(x, x, x, out).inverted()),
            CellKind::Nand2 => (None, Gate::mux(x, y, x, out).inverted()),
            CellKind::Nor2 => (None, Gate::mux(x, x, y, out).inverted()),
            CellKind::Xor2 => (
                None,
                Gate {
                    inv_b: true,
                    ..Gate::mux(x, y, y, out)
                },
            ),
            CellKind::Xnor2 => (
                None,
                Gate {
                    inv_c: true,
                    ..Gate::mux(x, y, y, out)
                },
            ),
            CellKind::Mux2 => (None, Gate::mux(x, y, z, out)),
            CellKind::Nand3 => (
                Some(Gate::mux(x, y, x, scratch)),
                Gate::mux(scratch, z, scratch, out).inverted(),
            ),
            CellKind::Nor3 => (
                Some(Gate::mux(x, x, y, scratch)),
                Gate::mux(scratch, scratch, z, out).inverted(),
            ),
            CellKind::Dff | CellKind::DffR => unreachable!("flip-flops stay off the tape"),
        }
    }

    /// This gate reading its operands through `alias` (per net: the net
    /// its word comes from and whether it comes inverted).
    fn through(self, alias: &[(u32, bool)]) -> Gate {
        let (a, inv_a) = alias[self.a as usize];
        let read = |net: u32, inv: bool| {
            let (src, flip) = alias[net as usize];
            (src, inv ^ flip)
        };
        let (mut b, mut c) = (read(self.b, self.inv_b), read(self.c, self.inv_c));
        if inv_a {
            // !s ? x : y is s ? y : x
            std::mem::swap(&mut b, &mut c);
        }
        Gate {
            a,
            b: b.0,
            c: c.0,
            inv_b: b.1,
            inv_c: c.1,
            ..self
        }
    }

    /// The tape step of this gate under its output's `mask`.
    fn step(self, mask: FaultMask) -> Step {
        let and = !(mask.sa0 | mask.sa1);
        Step {
            a: self.a,
            b: self.b,
            c: self.c,
            out: self.out,
            k1: word(self.inv_b ^ self.inv_c),
            and,
            xor: (word(self.inv_c ^ self.inv_out) & and) | mask.sa1,
        }
    }
}

/// One tape step:
/// `values[out] = (((values[a] & (values[b] ^ values[c] ^ k1)) ^ values[c]) & and) ^ xor`.
#[derive(Debug, Clone, Copy)]
struct Step {
    a: u32,
    b: u32,
    c: u32,
    out: u32,
    k1: u64,
    and: u64,
    xor: u64,
}

/// One folded net: `values[dst] = values[src] ^ inv` after every pass.
#[derive(Debug, Clone, Copy)]
struct Fold {
    dst: u32,
    src: u32,
    inv: u64,
}

/// One flip-flop: Q takes `(D & keep) | set` on every clock edge.
#[derive(Debug, Clone, Copy)]
struct Flop {
    d: u32,
    q: u32,
    keep: u64,
    set: u64,
}

/// A lane-parallel simulator over a frozen netlist.
#[derive(Debug, Clone)]
pub struct BatchSim<'a> {
    netlist: &'a Netlist,
    /// The combinational cells' indices in level order.
    order: Vec<u32>,
    /// Whether a combinational cell drives the net.
    comb_driven: Vec<bool>,
    tape: Vec<Step>,
    copies: Vec<Fold>,
    flops: Vec<Flop>,
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
    /// Whether the tape, copies and flop masks lag behind `faults`.
    dirty: bool,
}

impl<'a> BatchSim<'a> {
    /// Freeze `netlist` for simulation; the first settle compiles it.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] integrity failures.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        let cells = netlist.cells();
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
        let mut comb_driven = vec![false; netlist.net_count()];
        for &ci in &order {
            comb_driven[cells[ci].output.index()] = true;
        }
        let flops: Vec<Flop> = cells
            .iter()
            .filter(|c| c.kind.spec().sequential)
            .map(|cell| Flop {
                d: cell.inputs[0].0,
                q: cell.output.0,
                keep: !0,
                set: 0,
            })
            .collect();
        Ok(BatchSim {
            netlist,
            order: order.into_iter().map(|ci| ci as u32).collect(),
            comb_driven,
            tape: Vec::with_capacity(cells.len()),
            copies: Vec::new(),
            captured: vec![0; flops.len()],
            flops,
            const0: netlist.const0_net().map(Net::index),
            values: vec![0; netlist.net_count() + 1],
            faults: vec![FaultMask::default(); netlist.net_count()],
            faulty_nets: Vec::new(),
            pinned: Vec::new(),
            dirty: true,
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

    /// Compile the level-ordered cells under the injected faults into the
    /// tape, the copy list and the flops' masks, and rebuild the pinned
    /// list.
    fn compile(&mut self) {
        let cells = self.netlist.cells();
        let scratch = self.netlist.net_count() as u32;
        // per net and the scratch word: the net its word comes from and
        // whether inverted; a net maps to itself unless its cell folds
        let mut alias: Vec<(u32, bool)> = (0..=scratch).map(|n| (n, false)).collect();
        self.tape.clear();
        self.copies.clear();
        for &ci in &self.order {
            let cell = &cells[ci as usize];
            let out = cell.output.0;
            let mask = self.faults[out as usize];
            let inverting = match cell.kind {
                CellKind::BufX1 | CellKind::BufX2 => Some(false),
                CellKind::InvX1 | CellKind::InvX2 => Some(true),
                _ => None,
            };
            if let (Some(inv), true) = (inverting, mask.is_clean()) {
                let (src, pol) = alias[cell.inputs[0].index()];
                alias[out as usize] = (src, pol ^ inv);
                self.copies.push(Fold {
                    dst: out,
                    src,
                    inv: word(pol ^ inv),
                });
                continue;
            }
            let operand = |k: usize| cell.inputs.get(k).unwrap_or(&cell.inputs[0]).0;
            let operands = [operand(0), operand(1), operand(2)];
            let (first, last) = Gate::compile(cell.kind, operands, out, scratch);
            if let Some(first) = first {
                self.tape
                    .push(first.through(&alias).step(FaultMask::default()));
            }
            self.tape.push(last.through(&alias).step(mask));
        }
        for flop in &mut self.flops {
            let mask = self.faults[flop.q as usize];
            (flop.keep, flop.set) = (!mask.sa0, mask.sa1);
        }
        self.pinned.clear();
        for &net in &self.faulty_nets {
            let mask = self.faults[net];
            if !mask.is_clean() && !self.comb_driven[net] {
                self.pinned.push((net, mask));
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
            self.compile();
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
            let b = values[step.b as usize];
            let c = values[step.c as usize];
            let t = (s & (b ^ c ^ step.k1)) ^ c;
            values[step.out as usize] = (t & step.and) ^ step.xor;
        }
        for copy in &self.copies {
            values[copy.dst as usize] = values[copy.src as usize] ^ copy.inv;
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

    /// A clean BUF/INV chain emits no step: its nets become copies of
    /// their source, and a fault on one of them puts that cell back on
    /// the tape until the faults are cleared.
    #[test]
    fn clean_buffers_and_inverters_fold_into_copies() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let not_a = n.cell(CellKind::InvX1, &[a]);
        let buf = n.cell(CellKind::BufX1, &[not_a]);
        let again = n.cell(CellKind::InvX2, &[buf]);
        let y = n.cell(CellKind::Nand2, &[buf, b]);
        n.output("y", y);
        n.output("again", again);
        let mut sim = BatchSim::new(&n).unwrap();
        sim.set_input_value("a", 1, !0);
        sim.set_input_value("b", 1, !0);
        sim.settle();
        assert_eq!((sim.tape.len(), sim.copies.len()), (1, 3));
        let words = |sim: &BatchSim<'_>| [buf, again, y].map(|net| sim.net_value(net));
        assert_eq!(words(&sim), [0, !0, !0]);
        sim.inject(buf, true, 1 << 5);
        sim.settle();
        assert_eq!((sim.tape.len(), sim.copies.len()), (2, 2));
        assert_eq!(words(&sim), [1 << 5, !(1 << 5), !(1 << 5)]);
        sim.clear_faults();
        sim.settle();
        assert_eq!((sim.tape.len(), sim.copies.len()), (1, 3));
        assert_eq!(words(&sim), [0, !0, !0]);
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

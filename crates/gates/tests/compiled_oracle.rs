//! Differential oracle for `BatchSim`'s compiled tape.
//!
//! `Interpreter` below is the per-cell evaluator `BatchSim` ran before it
//! compiled netlists: it walks the levelized cell order, gathers each
//! cell's input words and dispatches on `CellKind::eval`, masks every
//! faulty net it writes, and captures flops through a fresh buffer. It
//! lives on only here, as the reference the tape is held to.
//!
//! The property drives both over random levelizable netlists built from
//! all thirteen cells (constants and flop feedback included) through a
//! random script of stuck-at injections on any net, `clear_faults`,
//! lane-masked input drives, settles, clocks and resets, and asserts
//! every net's word equal after each settle, clock and reset.
//!
//! A second property holds the tape to lane independence, the invariant
//! the wafer tester rests on when it gives a defect-free die zero
//! mismatches without simulating it: a lane that carries no fault and
//! has seen lane 0's drives since the last reset holds lane 0's bit on
//! every net, whatever faults the other lanes carry.

use flexgate::cell::CellKind;
use flexgate::netlist::{Net, Netlist};
use flexgate::sim::BatchSim;
use flexgate::BitSlice64;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The per-cell interpreter: `BatchSim`'s semantics, cell by cell.
struct Interpreter<'a> {
    netlist: &'a Netlist,
    order: Vec<usize>,
    seq: Vec<usize>,
    const0: Option<Net>,
    values: Vec<u64>,
    /// `(sa0, sa1)` lane masks per net.
    faults: Vec<(u64, u64)>,
    faulty_nets: Vec<usize>,
    faulty: bool,
}

impl<'a> Interpreter<'a> {
    fn new(netlist: &'a Netlist, const0: Option<Net>) -> Self {
        let seq = netlist
            .cells()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.spec().sequential)
            .map(|(i, _)| i)
            .collect();
        Interpreter {
            netlist,
            order: netlist.levelize().expect("generated netlists levelize"),
            seq,
            const0,
            values: vec![0; netlist.net_count()],
            faults: vec![(0, 0); netlist.net_count()],
            faulty_nets: Vec::new(),
            faulty: false,
        }
    }

    fn mask(&self, net: usize, v: u64) -> u64 {
        let (sa0, sa1) = self.faults[net];
        BitSlice64(v).stuck(sa0, sa1).0
    }

    fn reset(&mut self) {
        self.values.fill(0);
        if self.faulty {
            for net in 0..self.values.len() {
                self.values[net] = self.mask(net, self.values[net]);
            }
        }
    }

    fn inject(&mut self, net: Net, stuck_at_one: bool, lanes: u64) {
        let m = &mut self.faults[net.index()];
        if *m == (0, 0) {
            self.faulty_nets.push(net.index());
        }
        if stuck_at_one {
            m.1 |= lanes;
        } else {
            m.0 |= lanes;
        }
        self.faulty = true;
    }

    fn clear_faults(&mut self) {
        for &net in &self.faulty_nets {
            self.faults[net] = (0, 0);
        }
        self.faulty_nets.clear();
        self.faulty = false;
    }

    fn set_input_value(&mut self, name: &str, value: u64, lanes: u64) {
        let nets = self.netlist.input_ports()[name].clone();
        for (bit, net) in nets.iter().enumerate() {
            let idx = net.index();
            self.values[idx] = BitSlice64(self.values[idx])
                .drive((value >> bit) & 1 == 1, lanes)
                .0;
        }
    }

    fn settle(&mut self) {
        if let Some(c0) = self.const0 {
            self.values[c0.index()] = self.mask(c0.index(), 0);
        }
        if self.faulty {
            for i in 0..self.faulty_nets.len() {
                let net = self.faulty_nets[i];
                self.values[net] = self.mask(net, self.values[net]);
            }
        }
        for &ci in &self.order {
            let cell = &self.netlist.cells()[ci];
            let ins: Vec<u64> = cell.inputs.iter().map(|n| self.values[n.index()]).collect();
            let raw = cell.kind.eval(&ins);
            let out = cell.output.index();
            self.values[out] = if self.faulty {
                self.mask(out, raw)
            } else {
                raw
            };
        }
    }

    fn clock(&mut self) {
        self.settle();
        let captured: Vec<u64> = self
            .seq
            .iter()
            .map(|&ci| self.values[self.netlist.cells()[ci].inputs[0].index()])
            .collect();
        for (&ci, d) in self.seq.iter().zip(captured) {
            let out = self.netlist.cells()[ci].output.index();
            self.values[out] = if self.faulty { self.mask(out, d) } else { d };
        }
    }
}

/// A random netlist and the handles the script needs.
struct Design {
    netlist: Netlist,
    /// Every net, in creation order.
    nets: Vec<Net>,
    /// Input ports and their widths.
    ports: Vec<(&'static str, usize)>,
    const0: Option<Net>,
    /// Outputs of sequential cells.
    flop_outputs: Vec<Net>,
}

/// A netlist of up to `cells` random cells drawn from all thirteen kinds.
/// Cells read only nets that already exist, so the combinational part is
/// acyclic; placeholders are readable from the start and most are later
/// driven by a resettable flop, closing feedback loops through state.
fn random_design(rng: &mut StdRng, cells: usize) -> Design {
    let mut n = Netlist::new();
    let mut nets = Vec::new();
    let mut ports = Vec::new();
    for name in ["a", "b", "c"].into_iter().take(rng.gen_range(1..=3usize)) {
        let width = rng.gen_range(1..=4usize);
        nets.extend(n.inputs(name, width));
        ports.push((name, width));
    }
    let const0 = if rng.gen_bool(0.8) {
        let zero = n.const0();
        nets.push(zero);
        if rng.gen_bool(0.6) {
            nets.push(n.const1());
        }
        Some(zero)
    } else {
        None
    };
    let placeholders: Vec<Net> = (0..rng.gen_range(0..4)).map(|_| n.placeholder()).collect();
    nets.extend(&placeholders);
    let mut flop_outputs = Vec::new();
    for _ in 0..cells {
        let kind = CellKind::ALL[rng.gen_range(0..CellKind::ALL.len())];
        let inputs: Vec<Net> = (0..kind.spec().inputs)
            .map(|_| nets[rng.gen_range(0..nets.len())])
            .collect();
        let out = n.cell(kind, &inputs);
        if kind.spec().sequential {
            flop_outputs.push(out);
        }
        nets.push(out);
    }
    for &q in &placeholders {
        // an undriven placeholder simulates as a floating 0
        if rng.gen_bool(0.8) {
            n.drive_dff_r(nets[rng.gen_range(0..nets.len())], q);
            flop_outputs.push(q);
        }
    }
    let observed: Vec<Net> = (0..rng.gen_range(1..6))
        .map(|_| nets[rng.gen_range(0..nets.len())])
        .collect();
    n.outputs("y", &observed);
    assert_eq!(nets.len(), n.net_count(), "every net is tracked");
    Design {
        netlist: n,
        nets,
        ports,
        const0,
        flop_outputs,
    }
}

/// A lane mask: all lanes, one lane, or a sparse or dense random set.
fn lanes(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4) {
        0 => !0,
        1 => 1u64 << rng.gen_range(0..64u32),
        2 => rng.gen::<u64>() & rng.gen::<u64>(),
        _ => rng.gen(),
    }
}

/// A fault site biased toward the nets the tape does not drive: primary
/// inputs, the constant-0 net and flop outputs, besides any net at all.
fn fault_net(rng: &mut StdRng, d: &Design) -> Net {
    match rng.gen_range(0..4) {
        0 if !d.flop_outputs.is_empty() => d.flop_outputs[rng.gen_range(0..d.flop_outputs.len())],
        1 if d.const0.is_some() => d.const0.unwrap(),
        2 => d.nets[rng.gen_range(0..d.ports.iter().map(|p| p.1).sum::<usize>())],
        _ => d.nets[rng.gen_range(0..d.nets.len())],
    }
}

/// Every net's word in both simulators, or the first net that differs.
fn compare(sim: &BatchSim<'_>, oracle: &Interpreter<'_>, d: &Design) -> Result<(), String> {
    for &net in &d.nets {
        let (got, want) = (sim.net_value(net), oracle.values[net.index()]);
        if got != want {
            return Err(format!("net {net:?}: tape {got:#x}, oracle {want:#x}"));
        }
    }
    let slices = sim.output_slices("y");
    for (slice, net) in slices.iter().zip(&d.netlist.output_ports()["y"]) {
        if slice.0 != oracle.values[net.index()] {
            return Err(format!("output net {net:?} read back differently"));
        }
    }
    Ok(())
}

/// Run one random script against both simulators.
fn run_script(seed: u64, cells: usize, ops: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = random_design(&mut rng, cells);
    let mut sim = BatchSim::new(&d.netlist).map_err(|e| e.to_string())?;
    let mut oracle = Interpreter::new(&d.netlist, d.const0);
    for step in 0..ops {
        let op = rng.gen_range(0..10);
        match op {
            0 | 1 => {
                let (net, one, l) = (fault_net(&mut rng, &d), rng.gen_bool(0.5), lanes(&mut rng));
                sim.inject(net, one, l);
                oracle.inject(net, one, l);
                if rng.gen_bool(0.3) {
                    // the other polarity on overlapping lanes
                    let other = l | lanes(&mut rng);
                    sim.inject(net, !one, other);
                    oracle.inject(net, !one, other);
                }
            }
            2 => {
                sim.clear_faults();
                oracle.clear_faults();
            }
            3 | 4 => {
                let (name, width) = d.ports[rng.gen_range(0..d.ports.len())];
                let value = rng.gen_range(0..1u64 << width);
                let l = lanes(&mut rng);
                sim.set_input_value(name, value, l);
                oracle.set_input_value(name, value, l);
            }
            5 | 6 => {
                sim.settle();
                oracle.settle();
            }
            7 | 8 => {
                sim.clock();
                oracle.clock();
            }
            _ => {
                sim.reset();
                oracle.reset();
            }
        }
        if op >= 5 {
            compare(&sim, &oracle, &d).map_err(|e| format!("after op {step} ({op}): {e}"))?;
        }
    }
    Ok(())
}

/// Run one random script on `BatchSim` alone, with faults kept off lane
/// 0, and check lane independence after every settle, clock and reset.
/// A lane is *tainted* once it may have diverged from lane 0 since the
/// last reset: it carries a fault, carried one since that reset, or took
/// a drive lane 0 did not (or missed one lane 0 took). Every untainted
/// lane must hold lane 0's bit on every net. Returns how many checks
/// found a lane differing from lane 0 on some net while it carried a
/// fault and some lane besides lane 0 was untainted, so the caller can
/// tell the property was not vacuous.
fn run_lane_script(seed: u64, cells: usize, ops: usize) -> Result<usize, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = random_design(&mut rng, cells);
    let mut sim = BatchSim::new(&d.netlist).map_err(|e| e.to_string())?;
    let (mut faulty, mut tainted) = (0u64, 0u64);
    let mut contrasted = 0;
    for step in 0..ops {
        let op = rng.gen_range(0..10);
        match op {
            0 | 1 => {
                let (net, one, l) = (fault_net(&mut rng, &d), rng.gen_bool(0.5), lanes(&mut rng));
                let l = l & !1;
                sim.inject(net, one, l);
                faulty |= l;
                tainted |= l;
            }
            2 => {
                sim.clear_faults();
                faulty = 0;
            }
            3 | 4 => {
                let (name, width) = d.ports[rng.gen_range(0..d.ports.len())];
                let value = rng.gen_range(0..1u64 << width);
                let l = lanes(&mut rng);
                sim.set_input_value(name, value, l);
                // lanes on the other side of the mask from lane 0
                tainted |= if l & 1 == 1 { !l } else { l };
            }
            5 | 6 => sim.settle(),
            7 | 8 => sim.clock(),
            _ => {
                sim.reset();
                tainted = faulty;
            }
        }
        if op >= 5 {
            let mut differing = 0;
            for &net in &d.nets {
                let word = sim.net_value(net);
                let golden = 0u64.wrapping_sub(word & 1);
                let diff = word ^ golden;
                if diff & !tainted != 0 {
                    return Err(format!(
                        "after op {step} ({op}): net {net:?} word {word:#x} splits untainted lanes \
                         {:#x} from lane 0",
                        diff & !tainted
                    ));
                }
                differing |= diff;
            }
            contrasted += usize::from(differing & faulty != 0 && !tainted & !1 != 0);
        }
    }
    Ok(contrasted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compiled_tape_matches_the_per_cell_interpreter(
        seed in any::<u64>(),
        cells in 1usize..96,
        ops in 1usize..80,
    ) {
        let verdict = run_script(seed, cells, ops);
        prop_assert!(verdict.is_ok(), "seed {seed}, {cells} cells: {}", verdict.unwrap_err());
    }

    #[test]
    fn fault_free_lanes_hold_lane_0s_bit_on_every_net(
        seed in any::<u64>(),
        cells in 1usize..96,
        ops in 1usize..80,
    ) {
        let verdict = run_lane_script(seed, cells, ops);
        prop_assert!(verdict.is_ok(), "seed {seed}, {cells} cells: {}", verdict.unwrap_err());
    }
}

/// The lane-independence property is not vacuous: across fixed seeds,
/// many checks see a faulty lane that really differs from lane 0 while
/// the untainted lanes still match it.
#[test]
fn lane_independence_checks_see_faulty_lanes_diverge() {
    let contrasted: usize = (0..64)
        .map(|seed| run_lane_script(seed, 64, 80).expect("lane independence"))
        .sum();
    assert!(
        contrasted > 300,
        "only {contrasted} checks saw a divergent lane"
    );
}

/// The generator reaches what the property claims to cover: all
/// thirteen cells, both constants, flop feedback and undriven nets.
#[test]
fn generator_covers_every_cell_and_net_class() {
    let mut seen = std::collections::BTreeSet::new();
    let (mut const0, mut const1, mut feedback) = (false, false, false);
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = random_design(&mut rng, 64);
        seen.extend(d.netlist.cells().iter().map(|c| c.kind));
        const0 |= d.const0.is_some();
        const1 |= d
            .netlist
            .cells()
            .iter()
            .any(|c| c.kind == CellKind::InvX1 && Some(c.inputs[0]) == d.const0);
        // a flop whose output an earlier cell already read: a placeholder
        feedback |= d.netlist.cells().iter().enumerate().any(|(i, f)| {
            f.kind == CellKind::DffR
                && d.netlist.cells()[..i]
                    .iter()
                    .any(|c| c.inputs.contains(&f.output))
        });
    }
    assert_eq!(seen.len(), CellKind::ALL.len(), "cells reached: {seen:?}");
    assert!(const0 && const1 && feedback);
}

/// The buffers and inverters a folding chain is built from.
const CHAIN_CELLS: [CellKind; 4] = [
    CellKind::BufX1,
    CellKind::BufX2,
    CellKind::InvX1,
    CellKind::InvX2,
];

/// The cells chains feed: every operand slot of these reads through one.
const CHAIN_FED: [CellKind; 9] = [
    CellKind::Mux2,
    CellKind::Xor2,
    CellKind::Xnor2,
    CellKind::Nand2,
    CellKind::Nor2,
    CellKind::Nand3,
    CellKind::Nor3,
    CellKind::Dff,
    CellKind::DffR,
];

/// A net to read: usually the end of a fresh chain of 1–4 buffers and
/// inverters over an existing net, otherwise an existing net itself.
/// Chain nets are added to `nets` and to `chained`.
fn chained_operand(
    rng: &mut StdRng,
    n: &mut Netlist,
    nets: &mut Vec<Net>,
    chained: &mut Vec<Net>,
) -> Net {
    let mut net = nets[rng.gen_range(0..nets.len())];
    if rng.gen_bool(0.75) {
        for _ in 0..rng.gen_range(1..=4usize) {
            net = n.cell(CHAIN_CELLS[rng.gen_range(0..CHAIN_CELLS.len())], &[net]);
            nets.push(net);
            chained.push(net);
        }
    }
    net
}

/// A random netlist heavy in buffer and inverter chains, the cells the
/// simulator folds while they carry no fault. Chains feed mux selects and
/// data inputs, XOR/XNOR and NAND/NOR operands, flop D inputs (feedback
/// through placeholders too) and the output port. Returns the design and
/// every chain net.
fn chain_design(rng: &mut StdRng, cells: usize) -> (Design, Vec<Net>) {
    let mut n = Netlist::new();
    let mut nets = Vec::new();
    let mut chained = Vec::new();
    let mut ports = Vec::new();
    for name in ["a", "b", "c"].into_iter().take(rng.gen_range(1..=3usize)) {
        let width = rng.gen_range(1..=4usize);
        nets.extend(n.inputs(name, width));
        ports.push((name, width));
    }
    let const0 = rng.gen_bool(0.7).then(|| {
        let zero = n.const0();
        nets.push(zero);
        if rng.gen_bool(0.5) {
            nets.push(n.const1());
        }
        zero
    });
    let placeholders: Vec<Net> = (0..rng.gen_range(0..4)).map(|_| n.placeholder()).collect();
    nets.extend(&placeholders);
    let mut flop_outputs = Vec::new();
    for _ in 0..cells {
        let kind = CHAIN_FED[rng.gen_range(0..CHAIN_FED.len())];
        let inputs: Vec<Net> = (0..kind.spec().inputs)
            .map(|_| chained_operand(rng, &mut n, &mut nets, &mut chained))
            .collect();
        let out = n.cell(kind, &inputs);
        if kind.spec().sequential {
            flop_outputs.push(out);
        }
        nets.push(out);
    }
    for &q in &placeholders {
        if rng.gen_bool(0.8) {
            let d = chained_operand(rng, &mut n, &mut nets, &mut chained);
            n.drive_dff_r(d, q);
            flop_outputs.push(q);
        }
    }
    let observed: Vec<Net> = (0..rng.gen_range(1..6))
        .map(|_| chained_operand(rng, &mut n, &mut nets, &mut chained))
        .collect();
    n.outputs("y", &observed);
    assert_eq!(nets.len(), n.net_count(), "every net is tracked");
    let design = Design {
        netlist: n,
        nets,
        ports,
        const0,
        flop_outputs,
    };
    (design, chained)
}

/// Run one random script over a chain-heavy netlist against both
/// simulators, comparing every net after every operation: after a reset,
/// after a drive with no settle yet, and after injections and clears
/// before the settle that recompiles, as well as after settles and
/// clocks. Most injections land on chain nets, so buffers and inverters
/// fold, unfold when faulted and fold again once cleared.
fn run_chain_script(seed: u64, cells: usize, ops: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (d, chained) = chain_design(&mut rng, cells);
    let mut sim = BatchSim::new(&d.netlist).map_err(|e| e.to_string())?;
    let mut oracle = Interpreter::new(&d.netlist, d.const0);
    for step in 0..ops {
        let op = rng.gen_range(0..10);
        match op {
            0 | 1 => {
                let net = if !chained.is_empty() && rng.gen_bool(0.7) {
                    chained[rng.gen_range(0..chained.len())]
                } else {
                    fault_net(&mut rng, &d)
                };
                let (one, l) = (rng.gen_bool(0.5), lanes(&mut rng));
                sim.inject(net, one, l);
                oracle.inject(net, one, l);
            }
            2 => {
                sim.clear_faults();
                oracle.clear_faults();
            }
            3 | 4 => {
                let (name, width) = d.ports[rng.gen_range(0..d.ports.len())];
                let value = rng.gen_range(0..1u64 << width);
                let l = lanes(&mut rng);
                sim.set_input_value(name, value, l);
                oracle.set_input_value(name, value, l);
            }
            5 | 6 => {
                sim.settle();
                oracle.settle();
            }
            7 | 8 => {
                sim.clock();
                oracle.clock();
            }
            _ => {
                sim.reset();
                oracle.reset();
            }
        }
        compare(&sim, &oracle, &d).map_err(|e| format!("after op {step} ({op}): {e}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn folded_buffer_and_inverter_chains_match_the_per_cell_interpreter(
        seed in any::<u64>(),
        cells in 1usize..48,
        ops in 1usize..80,
    ) {
        let verdict = run_chain_script(seed, cells, ops);
        prop_assert!(verdict.is_ok(), "seed {seed}, {cells} cells: {}", verdict.unwrap_err());
    }
}

/// The chain generator reaches what the folding property claims: a
/// chain into a mux select, a mux data input, an XOR/XNOR operand, a
/// NAND/NOR operand, a flop's D and the output port, with inverters on
/// the way.
#[test]
fn chain_generator_feeds_every_operand_slot() {
    let mut reached = [false; 6];
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (d, chained) = chain_design(&mut rng, 32);
        let is_chained = |net: &Net| chained.contains(net);
        for cell in d.netlist.cells() {
            let slots: &[usize] = match cell.kind {
                CellKind::Mux2 => {
                    reached[0] |= is_chained(&cell.inputs[0]);
                    reached[1] |= cell.inputs[1..].iter().any(is_chained);
                    &[]
                }
                CellKind::Xor2 | CellKind::Xnor2 => &[2],
                CellKind::Nand2 | CellKind::Nor2 | CellKind::Nand3 | CellKind::Nor3 => &[3],
                CellKind::Dff | CellKind::DffR => &[4],
                _ => &[],
            };
            for &slot in slots {
                reached[slot] |= cell.inputs.iter().any(is_chained);
            }
        }
        reached[5] |= d.netlist.output_ports()["y"].iter().any(is_chained);
    }
    assert_eq!(
        reached, [true; 6],
        "mux select, mux data, xor, nand/nor, flop d, output"
    );
}

//! The FlexiCore4 gate-level netlist (paper Figure 3).
//!
//! Single-cycle accumulator machine:
//!
//! * **decoder** — there barely is one: instruction bit 7 selects the
//!   branch format, bit 6 drives the ALU input multiplexer, bits 5:4 drive
//!   the ALU output multiplexer directly (§3.3). A handful of gates derive
//!   the load/store/branch strobes.
//! * **alu** — one 4-bit ripple-carry adder whose per-bit XOR (propagate)
//!   and NAND terms are exported as side effects; NAND costs "only four
//!   inverters" beyond the adder's internal AND terms (§3.4).
//! * **mem** — eight 4-bit words: word 0 *is* the input bus (no storage),
//!   word 1 is the output-port latch, words 2–7 are general purpose; one
//!   shared read port (a 8:1 mux tree) and a write decoder.
//! * **pc** — 7-bit counter with a half-adder incrementer, branch-target
//!   mux, and pad drivers for the external instruction-address bus.
//! * **acc** — the 4-bit accumulator.
//!
//! Ports: inputs `instr[7:0]`, `iport[3:0]`; outputs `pc[6:0]`,
//! `oport[3:0]`.

use flexgate::netlist::{Net, Netlist};
use flexgate::CellKind;

/// Data-path width.
pub const WIDTH: usize = 4;
/// Number of data-memory words.
pub const MEM_WORDS: usize = 8;

/// Build the FlexiCore4 netlist.
#[must_use]
pub fn build_fc4() -> Netlist {
    let mut n = Netlist::new();
    let instr = n.inputs("instr", 8);
    let iport = n.inputs("iport", WIDTH);

    // ---- decoder --------------------------------------------------------
    n.push_module("decoder");
    let is_branch = instr[7];
    let not_branch = n.not(is_branch);
    let imm_mode = instr[6];
    let op0 = instr[4];
    let op1 = instr[5];
    let is_transfer = n.and(op0, op1);
    let not_imm = n.not(imm_mode);
    let t_and_nb = n.and(is_transfer, not_branch);
    // the load strobe exists physically but the datapath routes LOAD
    // through the ALU output mux, so only its gates matter for area
    let is_load = n.and(t_and_nb, not_imm);
    let _ = is_load;
    let is_store = n.and(t_and_nb, imm_mode);
    // acc write strobe: every non-branch, non-store instruction
    let not_store = n.not(is_store);
    let acc_we = n.and(not_branch, not_store);
    n.pop_module();

    // ---- accumulator (declared early: feedback into ALU) -----------------
    // build with explicit feedback nets so the ALU can read ACC
    let acc_q: Vec<Net> = (0..WIDTH).map(|_| n.placeholder()).collect();

    // ---- memory ----------------------------------------------------------
    n.push_module("mem");
    let addr = [instr[0], instr[1], instr[2]];
    // word 1: output-port latch; words 2..7: general registers
    let dec = n.decoder(&addr);
    let mut words: Vec<Vec<Net>> = Vec::with_capacity(MEM_WORDS);
    words.push(iport); // word 0 reads the live input bus
    let mut stored_words: Vec<Vec<Net>> = Vec::new();
    for d in dec
        .iter()
        .skip(1)
        .take(MEM_WORDS - 1)
        .copied()
        .collect::<Vec<_>>()
    {
        let we = n.and(is_store, d);
        let q = n.register(&acc_q, we);
        words.push(q.clone());
        stored_words.push(q);
    }
    let mem_read = n.mux_tree(&addr, &words);
    n.pop_module();

    // ---- ALU -------------------------------------------------------------
    n.push_module("alu");
    let imm = [instr[0], instr[1], instr[2], instr[3]];
    let operand: Vec<Net> = (0..WIDTH)
        .map(|i| n.mux(imm_mode, imm[i], mem_read[i]))
        .collect();
    let zero = n.const0();
    let (sum, _carry, xors, ands) = n.ripple_adder_with_terms(&acc_q, &operand, zero);
    // NAND as a side effect of the adder's generate terms (§3.4: four
    // inverters)
    let nands: Vec<Net> = ands.iter().map(|&g| n.not(g)).collect();
    // output mux: op 00 -> ADD, 01 -> NAND, 10 -> XOR, 11 -> operand
    // (the transfer format: LOAD passes the memory operand through)
    let alu_out: Vec<Net> = (0..WIDTH)
        .map(|i| {
            let lo = n.mux(op0, nands[i], sum[i]);
            let hi = n.mux(op0, operand[i], xors[i]);
            n.mux(op1, hi, lo)
        })
        .collect();
    n.pop_module();

    // ---- accumulator -----------------------------------------------------
    n.push_module("acc");
    for (i, &q) in acc_q.iter().enumerate() {
        let d = n.mux(acc_we, alu_out[i], q);
        n.drive_dff_r(d, q);
    }
    n.pop_module();

    // ---- program counter ---------------------------------------------------
    n.push_module("pc");
    let pc_q: Vec<Net> = (0..7).map(|_| n.placeholder()).collect();
    let one = n.const1();
    let pc_inc = n.incrementer(&pc_q, one);
    let taken = n.and(is_branch, acc_q[WIDTH - 1]);
    let target = [
        instr[0], instr[1], instr[2], instr[3], instr[4], instr[5], instr[6],
    ];
    let pc_next = (0..7)
        .map(|i| n.mux(taken, target[i], pc_inc[i]))
        .collect::<Vec<_>>();
    for (i, &q) in pc_q.iter().enumerate() {
        n.drive_dff_r(pc_next[i], q);
    }
    // pad drivers for the external instruction-address bus
    let pc_out: Vec<Net> = pc_q
        .iter()
        .map(|&q| {
            let b = n.cell(CellKind::BufX2, &[q]);
            n.cell(CellKind::BufX2, &[b])
        })
        .collect();
    n.pop_module();

    // ---- output port -------------------------------------------------------
    // the oport latch is mem word 1; buffer it to the pads
    n.push_module("mem");
    let oport: Vec<Net> = stored_words[0]
        .iter()
        .map(|&q| n.cell(CellKind::BufX2, &[q]))
        .collect();
    n.pop_module();

    n.outputs("pc", &pc_out);
    n.outputs("oport", &oport);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgate::report::Report;
    use flexgate::sim::BatchSim;

    #[test]
    fn netlist_is_well_formed() {
        let n = build_fc4();
        assert!(n.levelize().is_ok());
    }

    #[test]
    fn gate_and_device_counts_near_paper() {
        // paper: 336 gates, 2104 devices, ~801 NAND2-equivalent area
        let n = build_fc4();
        let r = Report::of(&n);
        assert!(
            (250..=450).contains(&r.total.cells),
            "cells = {}",
            r.total.cells
        );
        assert!(
            (1600..=2600).contains(&(r.total.devices as usize)),
            "devices = {}",
            r.total.devices
        );
        assert!(
            (550.0..=1000.0).contains(&r.total.area()),
            "area = {} NAND2",
            r.total.area()
        );
    }

    #[test]
    fn memory_dominates_area_as_in_table2() {
        let n = build_fc4();
        let r = Report::of(&n);
        let mem = r.area_share("mem");
        let pc = r.area_share("pc");
        let alu = r.area_share("alu");
        let acc = r.area_share("acc");
        let dec = r.area_share("decoder");
        assert!(
            mem > pc && pc > alu && alu > acc && acc > dec,
            "mem {mem:.2} pc {pc:.2} alu {alu:.2} acc {acc:.2} dec {dec:.2}"
        );
        assert!((0.45..0.70).contains(&mem), "mem share {mem}");
        assert!(dec < 0.05, "decoder share {dec}");
    }

    #[test]
    fn executes_add_store_sequence() {
        use flexicore::isa::fc4::Instruction as I;
        let n = build_fc4();
        let mut sim = BatchSim::new(&n).unwrap();
        sim.reset();
        let program = [
            I::AddImm { imm: 5 }.encode(),
            I::AddImm { imm: 3 }.encode(),
            I::Store { addr: 1 }.encode(),
        ];
        for insn in program {
            let pc = sim.output_value("pc", 0);
            let _ = pc;
            sim.set_input_value("instr", u64::from(insn[0]), !0);
            sim.set_input_value("iport", 0, !0);
            sim.clock();
        }
        sim.settle();
        assert_eq!(sim.output_value("oport", 0), 8);
        assert_eq!(sim.output_value("pc", 0), 3);
    }

    #[test]
    fn branch_taken_on_negative_acc() {
        use flexicore::isa::fc4::Instruction as I;
        let n = build_fc4();
        let mut sim = BatchSim::new(&n).unwrap();
        sim.reset();
        // acc = 0xF (negative) then branch to 0x15
        for insn in [
            I::NandImm { imm: 0 }.encode(),
            I::Branch { target: 0x15 }.encode(),
        ] {
            sim.set_input_value("instr", u64::from(insn[0]), !0);
            sim.set_input_value("iport", 0, !0);
            sim.clock();
        }
        sim.settle();
        assert_eq!(sim.output_value("pc", 0), 0x15);
    }
}

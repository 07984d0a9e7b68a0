//! The fabricated FlexiCore gate-level netlists — FlexiCore4 (paper
//! Figure 3), FlexiCore8 (§3.3–3.4) and FlexiCore4+ (§6.1) — from one
//! builder, [`build`].
//!
//! Single-cycle accumulator machine:
//!
//! * **decoder** — there barely is one: instruction bit 7 selects the
//!   branch format, bit 6 drives the ALU input multiplexer, bits 5:4 drive
//!   the ALU output multiplexer directly (§3.3). A handful of gates derive
//!   the load/store/branch strobes.
//! * **alu** — one ripple-carry adder whose per-bit XOR (propagate) and
//!   NAND terms are exported as side effects; NAND costs "only four
//!   inverters" beyond the adder's internal AND terms (§3.4).
//! * **mem** — 32 bits of data words: word 0 *is* the input bus (no
//!   storage), word 1 is the output-port latch, the rest are general
//!   purpose; one shared read port (a mux tree) and a write decoder.
//! * **pc** — 7-bit counter with a half-adder incrementer, branch-target
//!   mux, and pad drivers for the external instruction-address bus.
//! * **acc** — the accumulator.
//!
//! FlexiCore8 is this machine at eight bits ([`mem_words`],
//! [`has_load_byte`]): four octets behind a 2-bit address instead of eight
//! nibbles behind a 3-bit one, 4-bit immediates sign-extended to the
//! datapath, and the two-byte `LOAD BYTE`. That instruction is the single
//! piece of controller state: a flag flip-flop set when the opcode byte
//! `0x08` is decoded — while it is set, the incoming program byte is data
//! to load into the accumulator, not an instruction (§3.4). FlexiCore4+
//! adds the hardware of its two features ([`crate::fc4plus`]): a barrel
//! shifter on the ALU output and nzp branch flags.
//!
//! Ports: inputs `instr[7:0]`, `iport[W-1:0]`; outputs `pc[6:0]`,
//! `oport[W-1:0]`.

use crate::fc4plus::{nzp_condition, right_shifter};
use flexgate::netlist::{Net, Netlist};
use flexgate::CellKind;
use flexicore::isa::fc4::{has_load_byte, mem_words};
use flexicore::isa::features::{Feature, FeatureSet};

/// Build the netlist of the fabricated core with a `width`-bit datapath
/// and the ISA extensions `features`.
///
/// The cell order is part of the yield contract: fault sites are drawn
/// in [`Netlist::cells`] order, so it fixes every die's defects.
///
/// # Panics
///
/// Unless (`width`, `features`) is one of the three taped-out points:
/// FlexiCore4 (4, [`FeatureSet::BASE`]), FlexiCore8 (8, `BASE`) and
/// FlexiCore4+ (4, [`FeatureSet::fc4_plus`]).
#[must_use]
pub fn build(width: u32, features: FeatureSet) -> Netlist {
    let fabricated = match width {
        4 => features.is_base() || features == FeatureSet::fc4_plus(),
        8 => features.is_base(),
        _ => false,
    };
    assert!(
        fabricated,
        "no FlexiCore was fabricated at width {width} with features {features}"
    );
    let w = width as usize;
    let mut n = Netlist::new();
    let instr = n.inputs("instr", 8);
    let iport = n.inputs("iport", w);

    // ---- decoder / controller --------------------------------------------
    n.push_module("decoder");
    let is_branch = instr[7];
    let not_branch = n.not(is_branch);
    let imm_mode = instr[6];
    let op0 = instr[4];
    let op1 = instr[5];
    // LOAD BYTE: `prefix` detects instr == 0b0000_1000, and the flag is
    // set for exactly one cycle after the prefix byte
    let load_byte = has_load_byte(width).then(|| {
        let mut prefix = instr[3];
        for (bit, &net) in instr.iter().enumerate() {
            if bit != 3 {
                let nb = n.not(net);
                prefix = n.and(prefix, nb);
            }
        }
        let flag = n.placeholder();
        let not_flag = n.not(flag);
        let next = n.and(prefix, not_flag);
        n.drive_dff_r(next, flag);
        (prefix, flag, not_flag)
    });
    let is_transfer = n.and(op0, op1);
    let not_imm = n.not(imm_mode);
    let t_and_nb = n.and(is_transfer, not_branch);
    // Order quirk 2: the base cores carry a load strobe whose gate only
    // costs area (the datapath routes LOAD through the ALU output mux);
    // FlexiCore4+ has none. Like quirk 1 below, it stays because moving
    // a cell moves every die's defect draw.
    if features.is_base() {
        let _is_load = n.and(t_and_nb, not_imm);
    }
    let mut is_store = n.and(t_and_nb, imm_mode);
    let mut branch_en = is_branch;
    if let Some((_, _, not_flag)) = load_byte {
        // while the flag is up, the incoming byte is pure data: suppress
        // all strobes
        is_store = n.and(is_store, not_flag);
        branch_en = n.and(is_branch, not_flag);
    }
    // reserved encodings (bit 3 high in the *memory* formats — I-type
    // immediates legitimately use bit 3) select the shifter
    let is_shift = features.contains(Feature::BarrelShifter).then(|| {
        let nb_bit3 = n.and(not_branch, instr[3]);
        let not_transfer = n.not(is_transfer);
        let mem_reserved = n.and(nb_bit3, not_transfer);
        n.and(mem_reserved, not_imm)
    });
    // acc write strobe: every non-branch, non-store instruction
    let not_store = n.not(is_store);
    let acc_we = match load_byte {
        None => n.and(not_branch, not_store),
        Some((prefix, flag, _)) => {
            // ACC holds during the prefix byte and loads the byte after it
            let not_branch_en = n.not(branch_en);
            let normal = n.and(not_branch_en, not_store);
            let not_prefix = n.not(prefix);
            let held = n.and(normal, not_prefix);
            n.or(held, flag)
        }
    };
    n.pop_module();

    // ---- accumulator (declared early: feedback into ALU) -----------------
    let acc_q: Vec<Net> = (0..w).map(|_| n.placeholder()).collect();

    // ---- memory ----------------------------------------------------------
    n.push_module("mem");
    let words = mem_words(width);
    let addr = &instr[..words.trailing_zeros() as usize];
    let dec = n.decoder(addr);
    // word 0 reads the live input bus; word 1 is the output-port latch
    let mut mem = vec![iport];
    for &d in &dec[1..words] {
        let we = n.and(is_store, d);
        mem.push(n.register(&acc_q, we));
    }
    let mem_read = n.mux_tree(addr, &mem);
    n.pop_module();

    // ---- ALU -------------------------------------------------------------
    n.push_module("alu");
    // the 4-bit immediate, sign-extended to the datapath
    let operand: Vec<Net> = (0..w)
        .map(|i| n.mux(imm_mode, instr[i.min(3)], mem_read[i]))
        .collect();
    let zero = n.const0();
    let (sum, _carry, xors, ands) = n.ripple_adder_with_terms(&acc_q, &operand, zero);
    // NAND as a side effect of the adder's generate terms (§3.4: four
    // inverters)
    let nands: Vec<Net> = ands.iter().map(|&g| n.not(g)).collect();
    // output mux: op 00 -> ADD, 01 -> NAND, 10 -> XOR, 11 -> operand
    // (the transfer format: LOAD passes the memory operand through)
    let mut alu_out: Vec<Net> = (0..w)
        .map(|i| {
            let lo = n.mux(op0, nands[i], sum[i]);
            let hi = n.mux(op0, operand[i], xors[i]);
            n.mux(op1, hi, lo)
        })
        .collect();
    if let Some((_, flag, _)) = load_byte {
        // when the flag is up, the raw instruction byte is the result
        alu_out = (0..w).map(|i| n.mux(flag, instr[i], alu_out[i])).collect();
    }
    n.pop_module();

    if let Some(is_shift) = is_shift {
        // barrel shifter: right shift by instr[1:0], arithmetic when instr[2]
        n.push_module("shifter");
        let shifted = right_shifter(&mut n, &acc_q, [instr[0], instr[1]], instr[2]);
        for (out, shifted) in alu_out.iter_mut().zip(shifted) {
            *out = n.mux(is_shift, shifted, *out);
        }
        n.pop_module();
    }

    // ---- accumulator -----------------------------------------------------
    n.push_module("acc");
    for (&out, &q) in alu_out.iter().zip(&acc_q) {
        let d = n.mux(acc_we, out, q);
        n.drive_dff_r(d, q);
    }
    n.pop_module();

    // ---- program counter -------------------------------------------------
    n.push_module("pc");
    let pc_q: Vec<Net> = (0..7).map(|_| n.placeholder()).collect();
    let one = n.const1();
    let pc_inc = n.incrementer(&pc_q, one);
    let mut target = instr[..7].to_vec();
    let taken = if features.contains(Feature::BranchFlags) {
        // condition flags over the accumulator; the nzp mask bits ride in
        // instr[6:4] of the branch format
        let flags = nzp_condition(&mut n, &acc_q, [instr[4], instr[5], instr[6]]);
        let taken = n.and(branch_en, flags);
        // branch target: low bits of the instruction plus held target
        // register bits (approximating the second byte of the two-byte
        // branch with a 3-bit target-extension register)
        for bit in &mut target[4..] {
            let q = n.placeholder();
            n.drive_dff_r(*bit, q);
            *bit = q;
        }
        taken
    } else {
        n.and(branch_en, acc_q[w - 1])
    };
    // Order quirk 1: FlexiCore4 emits all seven PC muxes before their
    // flops; FlexiCore8 and FlexiCore4+ interleave them. Kept for the
    // defect draws, as quirk 2.
    let muxes_first = width == 4 && features.is_base();
    let mut pending = Vec::new();
    for ((&t, &inc), &q) in target.iter().zip(&pc_inc).zip(&pc_q) {
        let d = n.mux(taken, t, inc);
        if muxes_first {
            pending.push((d, q));
        } else {
            n.drive_dff_r(d, q);
        }
    }
    for (d, q) in pending {
        n.drive_dff_r(d, q);
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

    // ---- output port -----------------------------------------------------
    // the oport latch is mem word 1; buffer it to the pads
    n.push_module("mem");
    let oport: Vec<Net> = mem[1]
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
        let n = build(4, FeatureSet::BASE);
        assert!(n.levelize().is_ok());
    }

    #[test]
    fn gate_and_device_counts_near_paper() {
        // paper: 336 gates, 2104 devices, ~801 NAND2-equivalent area
        let n = build(4, FeatureSet::BASE);
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
        let n = build(4, FeatureSet::BASE);
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
        use flexicore::isa::acc::Instruction as I;
        use flexicore::isa::Dialect;
        let n = build(4, FeatureSet::BASE);
        let mut sim = BatchSim::new(&n).unwrap();
        sim.reset();
        let program = [
            I::AddImm { imm: 5 }.encode(Dialect::Fc4),
            I::AddImm { imm: 3 }.encode(Dialect::Fc4),
            I::Store { m: 1 }.encode(Dialect::Fc4),
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
        use flexicore::isa::acc::{Cond, Instruction as I};
        use flexicore::isa::Dialect;
        let n = build(4, FeatureSet::BASE);
        let mut sim = BatchSim::new(&n).unwrap();
        sim.reset();
        // acc = 0xF (negative) then branch to 0x15
        for insn in [
            I::NandImm { imm: 0 }.encode(Dialect::Fc4),
            I::Br {
                cond: Cond::N,
                target: 0x15,
            }
            .encode(Dialect::Fc4),
        ] {
            sim.set_input_value("instr", u64::from(insn[0]), !0);
            sim.set_input_value("iport", 0, !0);
            sim.clock();
        }
        sim.settle();
        assert_eq!(sim.output_value("pc", 0), 0x15);
    }

    #[test]
    fn fc8_netlist_is_well_formed() {
        let n = build(8, FeatureSet::BASE);
        assert!(n.levelize().is_ok());
    }

    #[test]
    fn slightly_larger_than_fc4_as_in_table4() {
        // paper: FlexiCore8 has ~9 % more gates than FlexiCore4
        let fc4 = Report::of(&build(4, FeatureSet::BASE)).total;
        let fc8 = Report::of(&build(8, FeatureSet::BASE)).total;
        let ratio = fc8.area() / fc4.area();
        assert!(
            (1.0..1.35).contains(&ratio),
            "area ratio fc8/fc4 = {ratio:.3}"
        );
    }

    #[test]
    fn load_byte_loads_the_following_byte() {
        let n = build(8, FeatureSet::BASE);
        let mut sim = BatchSim::new(&n).unwrap();
        sim.reset();
        for byte in [0x08u8, 0xAB] {
            sim.set_input_value("instr", u64::from(byte), !0);
            sim.set_input_value("iport", 0, !0);
            sim.clock();
        }
        // store acc to the output latch
        let store =
            flexicore::isa::acc::Instruction::Store { m: 1 }.encode(flexicore::isa::Dialect::Fc8);
        sim.set_input_value("instr", u64::from(store[0]), !0);
        sim.clock();
        sim.settle();
        assert_eq!(sim.output_value("oport", 0), 0xAB);
    }

    #[test]
    fn eight_bit_alu_and_branch() {
        use flexicore::isa::acc::{Cond, Instruction as I};
        use flexicore::isa::Dialect;
        let n = build(8, FeatureSet::BASE);
        let mut sim = BatchSim::new(&n).unwrap();
        sim.reset();
        let feed = |sim: &mut BatchSim, bytes: &[u8]| {
            for &b in bytes {
                sim.set_input_value("instr", u64::from(b), !0);
                sim.set_input_value("iport", 0x30, !0);
                sim.clock();
            }
        };
        // acc = input (0x30), add itself via mem
        feed(&mut sim, &I::Load { m: 0 }.encode(Dialect::Fc4));
        feed(&mut sim, &I::Store { m: 2 }.encode(Dialect::Fc4));
        feed(&mut sim, &I::Add { m: 2 }.encode(Dialect::Fc4));
        feed(&mut sim, &I::Store { m: 1 }.encode(Dialect::Fc4));
        sim.settle();
        assert_eq!(sim.output_value("oport", 0), 0x60);
        // branch on negative: acc = 0x60 positive -> not taken
        let pc_before = sim.output_value("pc", 0);
        feed(
            &mut sim,
            &I::Br {
                cond: Cond::N,
                target: 0x40,
            }
            .encode(Dialect::Fc4),
        );
        sim.settle();
        assert_eq!(sim.output_value("pc", 0), pc_before + 1);
        // make acc negative and branch
        feed(&mut sim, &I::NandImm { imm: 0 }.encode(Dialect::Fc4));
        feed(
            &mut sim,
            &I::Br {
                cond: Cond::N,
                target: 0x40,
            }
            .encode(Dialect::Fc4),
        );
        sim.settle();
        assert_eq!(sim.output_value("pc", 0), 0x40);
    }

    #[test]
    #[should_panic(expected = "no FlexiCore was fabricated")]
    fn refuses_fc4_plus_features_at_eight_bits() {
        let _ = build(8, FeatureSet::fc4_plus());
    }

    #[test]
    #[should_panic(expected = "no FlexiCore was fabricated")]
    fn refuses_an_unfabricated_feature() {
        let _ = build(4, FeatureSet::only(Feature::AddWithCarry));
    }

    #[test]
    #[should_panic(expected = "no FlexiCore was fabricated")]
    fn refuses_an_unfabricated_width() {
        let _ = build(16, FeatureSet::BASE);
    }
}

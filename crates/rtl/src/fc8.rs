//! The FlexiCore8 gate-level netlist (§3.3–3.4).
//!
//! Structurally FlexiCore4 with an 8-bit datapath, a four-word octet
//! memory (2-bit address), 4-bit immediates sign-extended to the datapath,
//! and the two-byte `LOAD BYTE` instruction. `LOAD BYTE` is the single
//! piece of controller state: a flag flip-flop set when the opcode byte
//! `0x08` is decoded — while it is set, the incoming program byte is data
//! to load into the accumulator, not an instruction (§3.4).
//!
//! Ports: inputs `instr[7:0]`, `iport[7:0]`; outputs `pc[6:0]`,
//! `oport[7:0]`.

use flexgate::netlist::{Net, Netlist};
use flexgate::CellKind;

/// Data-path width.
pub const WIDTH: usize = 8;
/// Number of data-memory words.
pub const MEM_WORDS: usize = 4;

/// Build the FlexiCore8 netlist.
#[must_use]
pub fn build_fc8() -> Netlist {
    let mut n = Netlist::new();
    let instr = n.inputs("instr", 8);
    let iport = n.inputs("iport", WIDTH);

    // ---- decoder / controller --------------------------------------------
    n.push_module("decoder");
    let is_branch = instr[7];
    let not_branch = n.not(is_branch);
    let imm_mode = instr[6];
    let op0 = instr[4];
    let op1 = instr[5];

    // LOAD BYTE detect: instr == 0b0000_1000
    let mut eq = instr[3];
    for (bit, &net) in instr.iter().enumerate() {
        if bit == 3 {
            continue;
        }
        let nb = n.not(net);
        eq = n.and(eq, nb);
    }
    // ldb flag: set for exactly one cycle after the prefix byte
    let ldb_q = n.placeholder();
    let not_ldb = n.not(ldb_q);
    let ldb_next = n.and(eq, not_ldb);
    n.drive_dff_r(ldb_next, ldb_q);

    let is_transfer = n.and(op0, op1);
    let not_imm = n.not(imm_mode);
    let t_and_nb = n.and(is_transfer, not_branch);
    let is_load = n.and(t_and_nb, not_imm);
    let _ = is_load;
    let store_raw = n.and(t_and_nb, imm_mode);
    // while the flag is up, the incoming byte is pure data: suppress all
    // strobes and write ACC from the raw byte
    let is_store = n.and(store_raw, not_ldb);
    let branch_en = n.and(is_branch, not_ldb);
    let not_store = n.not(is_store);
    let nb2 = n.not(branch_en);
    let acc_we_normal = n.and(nb2, not_store);
    // during the prefix byte itself (eq high) ACC must not change
    let not_eq = n.not(eq);
    let acc_we_pre = n.and(acc_we_normal, not_eq);
    let acc_we = n.or(acc_we_pre, ldb_q);
    n.pop_module();

    let acc_q: Vec<Net> = (0..WIDTH).map(|_| n.placeholder()).collect();

    // ---- memory ------------------------------------------------------------
    n.push_module("mem");
    let addr = [instr[0], instr[1]];
    let dec = n.decoder(&addr);
    let mut words: Vec<Vec<Net>> = Vec::with_capacity(MEM_WORDS);
    words.push(iport);
    let mut stored: Vec<Vec<Net>> = Vec::new();
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
        stored.push(q);
    }
    let mem_read = n.mux_tree(&addr, &words);
    n.pop_module();

    // ---- ALU -----------------------------------------------------------------
    n.push_module("alu");
    // imm4 sign-extended to 8 bits
    let imm = [
        instr[0], instr[1], instr[2], instr[3], instr[3], instr[3], instr[3], instr[3],
    ];
    let operand: Vec<Net> = (0..WIDTH)
        .map(|i| n.mux(imm_mode, imm[i], mem_read[i]))
        .collect();
    let zero = n.const0();
    let (sum, _carry, xors, ands) = n.ripple_adder_with_terms(&acc_q, &operand, zero);
    let nands: Vec<Net> = ands.iter().map(|&g| n.not(g)).collect();
    let alu_normal: Vec<Net> = (0..WIDTH)
        .map(|i| {
            let lo = n.mux(op0, nands[i], sum[i]);
            let hi = n.mux(op0, operand[i], xors[i]);
            n.mux(op1, hi, lo)
        })
        .collect();
    // when the ldb flag is up, the raw instruction byte is the result
    let alu_out: Vec<Net> = (0..WIDTH)
        .map(|i| n.mux(ldb_q, instr[i], alu_normal[i]))
        .collect();
    n.pop_module();

    // ---- accumulator ----------------------------------------------------------
    n.push_module("acc");
    for (i, &q) in acc_q.iter().enumerate() {
        let d = n.mux(acc_we, alu_out[i], q);
        n.drive_dff_r(d, q);
    }
    n.pop_module();

    // ---- program counter --------------------------------------------------------
    n.push_module("pc");
    let pc_q: Vec<Net> = (0..7).map(|_| n.placeholder()).collect();
    let one = n.const1();
    let pc_inc = n.incrementer(&pc_q, one);
    let taken = n.and(branch_en, acc_q[WIDTH - 1]);
    let target = [
        instr[0], instr[1], instr[2], instr[3], instr[4], instr[5], instr[6],
    ];
    for (i, &q) in pc_q.iter().enumerate() {
        let d = n.mux(taken, target[i], pc_inc[i]);
        n.drive_dff_r(d, q);
    }
    let pc_out: Vec<Net> = pc_q
        .iter()
        .map(|&q| {
            let b = n.cell(CellKind::BufX2, &[q]);
            n.cell(CellKind::BufX2, &[b])
        })
        .collect();
    n.pop_module();

    n.push_module("mem");
    let oport: Vec<Net> = stored[0]
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
        let n = build_fc8();
        assert!(n.levelize().is_ok());
    }

    #[test]
    fn slightly_larger_than_fc4_as_in_table4() {
        // paper: FlexiCore8 has ~9 % more gates than FlexiCore4
        let fc4 = Report::of(&crate::build_fc4()).total;
        let fc8 = Report::of(&build_fc8()).total;
        let ratio = fc8.area() / fc4.area();
        assert!(
            (1.0..1.35).contains(&ratio),
            "area ratio fc8/fc4 = {ratio:.3}"
        );
    }

    #[test]
    fn load_byte_loads_the_following_byte() {
        let n = build_fc8();
        let mut sim = BatchSim::new(&n).unwrap();
        sim.reset();
        for byte in [0x08u8, 0xAB] {
            sim.set_input_value("instr", u64::from(byte), !0);
            sim.set_input_value("iport", 0, !0);
            sim.clock();
        }
        // store acc to the output latch
        let store = flexicore::isa::fc4::Instruction::Store { addr: 1 }.encode();
        sim.set_input_value("instr", u64::from(store[0]), !0);
        sim.clock();
        sim.settle();
        assert_eq!(sim.output_value("oport", 0), 0xAB);
    }

    #[test]
    fn eight_bit_alu_and_branch() {
        use flexicore::isa::fc4::Instruction as I;
        let n = build_fc8();
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
        feed(&mut sim, &I::Load { addr: 0 }.encode());
        feed(&mut sim, &I::Store { addr: 2 }.encode());
        feed(&mut sim, &I::AddMem { src: 2 }.encode());
        feed(&mut sim, &I::Store { addr: 1 }.encode());
        sim.settle();
        assert_eq!(sim.output_value("oport", 0), 0x60);
        // branch on negative: acc = 0x60 positive -> not taken
        let pc_before = sim.output_value("pc", 0);
        feed(&mut sim, &I::Branch { target: 0x40 }.encode());
        sim.settle();
        assert_eq!(sim.output_value("pc", 0), pc_before + 1);
        // make acc negative and branch
        feed(&mut sim, &I::NandImm { imm: 0 }.encode());
        feed(&mut sim, &I::Branch { target: 0x40 }.encode());
        sim.settle();
        assert_eq!(sim.output_value("pc", 0), 0x40);
    }
}

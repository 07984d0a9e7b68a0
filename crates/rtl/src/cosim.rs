//! RTL-vs-ISA co-simulation.
//!
//! Drives a gate-level netlist with a program image — playing the role
//! of the external program memory — and checks the program counter and
//! output port against an architectural simulator of `flexicore`, step
//! for step. One function serves every fabricated core: the caller pairs a
//! netlist with the [`AnyCore`] it should match. This is the same
//! methodology as the paper's §4.1 chip test ("zero measured differences
//! between its output and the expected output as determined by RTL
//! simulation"), with our ISA simulator standing in for the Verilog model.

use flexgate::netlist::Netlist;
use flexgate::sim::BatchSim;
use flexicore::exec::AnyCore;
use flexicore::io::{ConstInput, InputPort, NullOutput};

/// A divergence between RTL and the architectural model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// RTL clock at which the diverging instruction's fetch began.
    pub cycle: u64,
    /// What differed (`"pc"` or `"oport"`).
    pub signal: &'static str,
    /// Architectural-model value.
    pub expected: u64,
    /// RTL value.
    pub actual: u64,
}

/// Outcome of a co-simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosimResult {
    /// RTL clocks run: one per fetched byte, the sum of the model's
    /// per-instruction cycles.
    pub cycles: u64,
    /// All mismatches (empty ⇒ cycle-exact equivalence).
    pub mismatches: Vec<Mismatch>,
}

impl CosimResult {
    /// `true` when RTL matched the architectural model on every cycle.
    #[must_use]
    pub fn is_equivalent(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Co-simulate `netlist` against the architectural model `core` while
/// fewer than `cycles` RTL clocks have run (or until the model halts or
/// faults). Like the model's own watchdog, the bound is checked before
/// each instruction, so one that straddles it completes.
///
/// The netlist plays the chip and `core` the golden model: before each
/// fetch their in-page program counters must agree; the model then
/// executes one instruction and the netlist is clocked once per byte the
/// model fetched (one on FlexiCore4, two for a FlexiCore8 `LOAD BYTE`),
/// after which the output ports must agree. `input` is sampled once per
/// instruction with the clock its fetch begins on and drives both sides;
/// the netlist sees it masked to its `iport` width. The netlist must
/// expose the `instr` and `iport` inputs and the `pc` and `oport`
/// outputs, as every netlist in [`crate`] does.
///
/// # Panics
///
/// Panics if `netlist` is malformed or lacks one of those ports.
pub fn cosim<I>(netlist: &Netlist, mut core: AnyCore, input: &mut I, cycles: u64) -> CosimResult
where
    I: InputPort,
{
    let mut rtl = BatchSim::new(netlist).expect("cosim netlist is well-formed");
    rtl.reset();
    let mut mismatches = Vec::new();
    let mut clocks = 0;

    while clocks < cycles {
        // in-page program counters must agree before each fetch; the
        // off-chip MMU (simulated inside the ISA model, shared by both —
        // it is one physical board) supplies the page bits
        let isa_pc = u64::from(core.pc());
        let rtl_pc = rtl.output_value("pc", 0);
        if rtl_pc != isa_pc {
            mismatches.push(Mismatch {
                cycle: clocks,
                signal: "pc",
                expected: isa_pc,
                actual: rtl_pc,
            });
            break;
        }
        let bus = input.read(clocks);
        // the ISA model steps first; its StepEvent reports the full
        // (page-extended) fetch address, which is exactly what the board's
        // program memory would return to the chip
        let Ok(event) = core.step(&mut ConstInput::new(bus), &mut NullOutput) else {
            break;
        };
        let start = clocks;
        clocks += event.cycles;
        for offset in 0..event.cycles {
            let byte = core
                .program()
                .fetch(event.address + offset as u32)
                .expect("the ISA model fetched these bytes successfully");
            rtl.set_input_value("instr", u64::from(byte), !0);
            rtl.set_input_value("iport", u64::from(bus), !0);
            rtl.clock();
        }
        rtl.settle();

        let rtl_oport = rtl.output_value("oport", 0);
        let isa_oport = u64::from(core.mem(1).expect("OPORT is a valid address"));
        if rtl_oport != isa_oport {
            mismatches.push(Mismatch {
                cycle: start,
                signal: "oport",
                expected: isa_oport,
                actual: rtl_oport,
            });
            break;
        }
        if core.is_halted() {
            break;
        }
    }
    CosimResult {
        cycles: clocks,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexasm::{Assembler, Target};
    use flexicore::isa::features::FeatureSet;

    fn core_for(target: Target, src: &str) -> AnyCore {
        let program = Assembler::new(target).assemble(src).unwrap().into_program();
        AnyCore::for_dialect(target.dialect, target.features, program)
    }

    #[test]
    fn fc4_rtl_matches_isa_on_a_directed_program() {
        let src = "
            load  r0
            addi  3
            store r2
            load  r2
            xori  0xF
            store r1
            nand  r2
            store r3
            halt
        ";
        let core = core_for(Target::fc4(), src);
        let r = cosim(
            &crate::build(4, FeatureSet::BASE),
            core,
            &mut ConstInput::new(0x6),
            200,
        );
        assert!(r.is_equivalent(), "{:?}", r.mismatches);
        assert!(r.cycles > 8);
    }

    #[test]
    fn fc8_rtl_matches_isa_including_load_byte() {
        let src = "
            ldb   0xA5
            store r2
            load  r0
            add   r2
            store r1
            halt
        ";
        let core = core_for(Target::fc8(), src);
        let r = cosim(
            &crate::build(8, FeatureSet::BASE),
            core,
            &mut ConstInput::new(0x11),
            200,
        );
        assert!(r.is_equivalent(), "{:?}", r.mismatches);
    }

    #[test]
    fn a_netlist_that_disagrees_is_reported_as_a_mismatch() {
        // FlexiCore8's two-byte LOAD BYTE means something else to the
        // FlexiCore4 chip: co-simulation must flag the first divergence and
        // stop there, not report equivalence
        let src = "
            ldb   0xA5
            store r1
            halt
        ";
        let core = core_for(Target::fc8(), src);
        let r = cosim(
            &crate::build(4, FeatureSet::BASE),
            core,
            &mut ConstInput::new(0),
            200,
        );
        assert!(!r.is_equivalent());
        assert_eq!(r.mismatches.len(), 1, "{:?}", r.mismatches);
        let m = &r.mismatches[0];
        assert_ne!(m.expected, m.actual, "{m:?}");
        assert!(m.cycle < 3, "{m:?}");
    }
}

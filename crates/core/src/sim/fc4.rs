//! The fabricated cores: FlexiCore4, and FlexiCore8, which is
//! FlexiCore4 at eight bits.
//!
//! Both are the one accumulator core, [`AccCore`], at their datapath
//! width: it derives the width mask, the sign bit the branch tests, the
//! word count and address mask, the fetch window and whether `LOAD BYTE`
//! decodes from the width, and carries the base feature set.

use crate::isa::features::FeatureSet;
use crate::program::Program;
use crate::sim::acc::{AccCore, Fab};

/// The fabricated 4-bit FlexiCore4 (Figure 2a).
pub type Fc4Core = AccCore<Fab<4>>;
/// The fabricated 8-bit FlexiCore8 (Figure 2b).
pub type Fc8Core = AccCore<Fab<8>>;

impl<const W: u32> AccCore<Fab<W>> {
    /// A core reset to power-on state with `program` in its external memory.
    #[must_use]
    pub fn new(program: Program) -> Self {
        AccCore::with_features(FeatureSet::BASE, program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::exec::Core;
    use crate::io::{ConstInput, NullOutput, RecordingOutput, ScriptedInput};
    use crate::isa::acc::Cond;
    use crate::isa::acc::Instruction as I;
    use crate::isa::Dialect;
    use crate::sim::StopReason;

    fn assemble(insns: &[I]) -> Program {
        let mut bytes = Vec::new();
        for i in insns {
            i.encode_into(Dialect::Fc4, &mut bytes);
        }
        Program::from_bytes(bytes)
    }

    /// A spin-forever tail: set ACC negative, branch to self.
    fn halt_tail(at: u8) -> [I; 2] {
        [
            I::NandImm { imm: 0 }, // ACC = 0xF, negative
            I::Br {
                cond: Cond::N,
                target: at + 1,
            },
        ]
    }

    #[test]
    fn add_immediate_wraps_mod_16() {
        let mut prog = vec![
            I::AddImm { imm: 9 },
            I::AddImm { imm: 9 },
            I::Store { m: 2 },
        ];
        prog.extend(halt_tail(3));
        let mut core = Fc4Core::new(assemble(&prog));
        let r = core
            .run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert!(r.halted());
        assert_eq!(core.mem(2), Some(2)); // 18 mod 16
    }

    #[test]
    fn load_from_iport_and_store_to_oport() {
        let mut prog = vec![I::Load { m: 0 }, I::AddImm { imm: 1 }, I::Store { m: 1 }];
        prog.extend(halt_tail(3));
        let mut core = Fc4Core::new(assemble(&prog));
        let mut out = RecordingOutput::new();
        core.run(&mut ConstInput::new(0x7), &mut out, 100).unwrap();
        assert_eq!(out.values(), vec![0x8]);
    }

    #[test]
    fn branch_taken_only_when_negative() {
        // ACC = 3 (positive): branch must fall through, then ACC = 0xF and
        // the next branch is taken.
        let prog = assemble(&[
            I::AddImm { imm: 3 },
            I::Br {
                cond: Cond::N,
                target: 1,
            }, // not taken (would spin)
            I::NandImm { imm: 0 },
            I::Br {
                cond: Cond::N,
                target: 3,
            }, // taken: halt
        ]);
        let mut core = Fc4Core::new(prog);
        let r = core
            .run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert!(r.halted());
        assert_eq!(r.instructions, 4);
        assert_eq!(r.taken_branches, 1);
    }

    #[test]
    fn store_then_load_roundtrips_memory() {
        let mut prog = vec![
            I::AddImm { imm: 5 },
            I::Store { m: 3 },
            I::XorImm { imm: 0xF },
            I::Load { m: 3 },
        ];
        prog.extend(halt_tail(4));
        let mut core = Fc4Core::new(assemble(&prog));
        core.run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert_eq!(core.mem(3), Some(5));
        assert_eq!(core.acc(), 0xF, "final NAND result, after reload was 5");
    }

    #[test]
    fn store_to_iport_is_ignored() {
        let mut prog = vec![
            I::AddImm { imm: 7 },
            I::Store { m: 0 },
            I::Load { m: 0 },
            I::Store { m: 3 },
        ];
        prog.extend(halt_tail(4));
        let mut core = Fc4Core::new(assemble(&prog));
        // input reads 2; the store to address 0 must not shadow the bus
        core.run(&mut ConstInput::new(2), &mut NullOutput::new(), 100)
            .unwrap();
        assert_eq!(core.mem(3), Some(2));
    }

    #[test]
    fn oport_reads_back_last_written_value() {
        let mut prog = vec![
            I::AddImm { imm: 6 },
            I::Store { m: 1 },
            I::AddImm { imm: 1 },
            I::Load { m: 1 },
            I::Store { m: 2 },
        ];
        prog.extend(halt_tail(5));
        let mut core = Fc4Core::new(assemble(&prog));
        core.run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert_eq!(core.mem(2), Some(6));
    }

    #[test]
    fn fetch_past_end_is_error() {
        let prog = assemble(&[I::AddImm { imm: 1 }]);
        let mut core = Fc4Core::new(prog);
        core.step(&mut ConstInput::new(0), &mut NullOutput::new())
            .unwrap();
        let err = core
            .step(&mut ConstInput::new(0), &mut NullOutput::new())
            .unwrap_err();
        assert!(matches!(err, SimError::FetchOutOfBounds { address: 1, .. }));
    }

    #[test]
    fn cycle_limit_stops_nonhalting_program() {
        // infinite loop that is not the halt idiom (two-instruction cycle)
        let prog = assemble(&[
            I::NandImm { imm: 0 },
            I::Br {
                cond: Cond::N,
                target: 0,
            }, // jumps back to 0, never to itself
        ]);
        let mut core = Fc4Core::new(prog);
        let r = core
            .run(&mut ConstInput::new(0), &mut NullOutput::new(), 50)
            .unwrap();
        assert_eq!(r.stop, StopReason::CycleLimit);
        assert_eq!(r.cycles, 50);
    }

    #[test]
    fn mmu_page_switch_via_oport() {
        // page 0: write 0xE, 0xD, 1 to OPORT, then branch to 0 — which is
        // now page 1 offset 0. Page 1 holds the halt tail.
        let mut image = Vec::new();
        let page0 = [
            I::NandImm { imm: 0 },  // acc = 0xF
            I::AddImm { imm: 0xF }, // acc = 0xE
            I::Store { m: 1 },      // escape 1
            I::XorImm { imm: 0x3 }, // 0xE ^ 3 = 0xD
            I::Store { m: 1 },      // escape 2
            I::AddImm { imm: 4 },   // 0xD + 4 = 0x11 & 0xF = 1
            I::Store { m: 1 },      // page = 1
            I::NandImm { imm: 0 },  // acc negative for the jump
            I::Br {
                cond: Cond::N,
                target: 0,
            }, // lands at page 1, offset 0
        ];
        for i in page0 {
            i.encode_into(Dialect::Fc4, &mut image);
        }
        image.resize(128, 0); // pad page 0
        let page1 = [
            I::NandImm { imm: 0 },
            I::Br {
                cond: Cond::N,
                target: 1,
            },
        ];
        for i in page1 {
            i.encode_into(Dialect::Fc4, &mut image);
        }
        let mut core = Fc4Core::new(Program::from_bytes(image));
        let mut out = RecordingOutput::new();
        let r = core.run(&mut ConstInput::new(0), &mut out, 1000).unwrap();
        assert!(r.halted());
        assert_eq!(core.state().page(), 1);
        assert_eq!(out.values(), vec![0xE, 0xD, 0x1]);
    }

    #[test]
    fn scripted_input_consumed_in_order() {
        let mut prog = vec![
            I::Load { m: 0 },
            I::Store { m: 2 },
            I::Load { m: 0 },
            I::Add { m: 2 },
            I::Store { m: 1 },
        ];
        prog.extend(halt_tail(5));
        let mut core = Fc4Core::new(assemble(&prog));
        let mut input = ScriptedInput::new(vec![3, 4]);
        let mut out = RecordingOutput::new();
        core.run(&mut input, &mut out, 100).unwrap();
        assert_eq!(out.values(), vec![7]);
    }

    #[test]
    fn reset_and_reprogram() {
        let mut prog = vec![I::AddImm { imm: 5 }];
        prog.extend(halt_tail(1));
        let mut core = Fc4Core::new(assemble(&prog));
        core.run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert!(core.state().is_halted());
        core.reset();
        assert!(!core.state().is_halted());
        assert_eq!(core.state().pc(), 0);
        assert_eq!(core.acc(), 0);

        let mut prog2 = vec![I::AddImm { imm: 2 }];
        prog2.extend(halt_tail(1));
        core.reprogram(assemble(&prog2));
        core.run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert_eq!(core.acc(), 0xF, "halt tail NANDs to 0xF");
        assert_eq!(core.mem(2), Some(0));
    }

    #[test]
    fn out_of_range_mem_access_is_none() {
        let core = Fc4Core::new(assemble(&[I::AddImm { imm: 1 }]));
        assert_eq!(core.mem(7), Some(0));
        assert_eq!(core.mem(8), None);
    }

    #[test]
    fn load_byte_loads_full_octet_and_costs_two_cycles() {
        let prog = assemble(&[
            I::LoadByte { imm: 0xAB },
            I::Store { m: 2 },
            I::LoadByte { imm: 0x80 },
            I::Br {
                cond: Cond::N,
                target: 5,
            }, // byte address 5 is this branch itself
        ]);
        let mut core = Fc8Core::new(prog);
        let r = core
            .run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert!(r.halted());
        assert_eq!(core.mem(2), Some(0xAB));
        // 2 + 1 + 2 + 1 cycles
        assert_eq!(r.cycles, 6);
        assert_eq!(r.instructions, 4);
    }

    #[test]
    fn immediates_are_sign_extended() {
        let prog = assemble(&[
            I::LoadByte { imm: 0x10 },
            I::AddImm { imm: 0xD }, // -3
            I::Store { m: 2 },
            I::LoadByte { imm: 0x80 },
            I::Br {
                cond: Cond::N,
                target: 6,
            },
        ]);
        let mut core = Fc8Core::new(prog);
        core.run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert_eq!(core.mem(2), Some(0x0D));
    }

    #[test]
    fn branch_tests_bit_seven() {
        // byte layout: 0-1 LOAD BYTE, 2 branch (self), 3-4 LOAD BYTE,
        // 5 branch (self)
        let prog = assemble(&[
            I::LoadByte { imm: 0x7F }, // bytes 0-1
            I::Br {
                cond: Cond::N,
                target: 2,
            }, // byte 2: self-target, not taken
            I::LoadByte { imm: 0xFF }, // bytes 3-4
            I::Br {
                cond: Cond::N,
                target: 5,
            }, // byte 5: self-target, taken: halt
        ]);
        let mut core = Fc8Core::new(prog);
        let r = core
            .run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert!(r.halted());
        assert_eq!(r.taken_branches, 1);
    }

    #[test]
    fn eight_bit_io_roundtrip() {
        let prog = assemble(&[
            I::Load { m: 0 },
            I::Add { m: 0 }, // doubles the input
            I::Store { m: 1 },
            I::LoadByte { imm: 0x80 },
            I::Br {
                cond: Cond::N,
                target: 5,
            },
        ]);
        let mut core = Fc8Core::new(prog);
        let mut out = RecordingOutput::new();
        core.run(&mut ConstInput::new(0x55), &mut out, 100).unwrap();
        assert_eq!(out.values(), vec![0xAA]);
    }

    #[test]
    fn truncated_load_byte_is_error() {
        let prog = Program::from_bytes(vec![0x08]);
        let mut core = Fc8Core::new(prog);
        let err = core
            .step(&mut ConstInput::new(0), &mut NullOutput::new())
            .unwrap_err();
        assert!(matches!(err, SimError::TruncatedInstruction { address: 0 }));
    }

    #[test]
    fn only_four_memory_words() {
        let prog = assemble(&[
            I::LoadByte { imm: 0x42 },
            I::Store { m: 3 },
            I::LoadByte { imm: 0x80 },
            I::Br {
                cond: Cond::N,
                target: 5,
            },
        ]);
        let mut core = Fc8Core::new(prog);
        core.run(&mut ConstInput::new(0), &mut NullOutput::new(), 100)
            .unwrap();
        assert_eq!(core.mem(3), Some(0x42));
        assert_eq!(core.mem(2), Some(0));
        assert_eq!(core.mem(4), None);
    }
}

//! Does the generic execution engine cost anything?
//!
//! `flexicore::exec::Engine` hosts the fetch/decode/execute/commit loop
//! for all four dialects; before the refactor each simulator carried its
//! own monomorphic copy. This benchmark pits the engine-backed
//! [`Fc4Core`] against `DirectFc4` — a faithful transcription of the
//! pre-refactor fc4 step loop — on the same XorShift8 image, so a
//! regression in the shared abstraction shows up as a gap between the
//! two (the acceptance bar is ≤5%, recorded in EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion};
use flexasm::Target;
use flexicore::io::{ConstInput, InputPort, NullOutput, OutputPort};
use flexicore::isa::fc4::{Instruction, IPORT_ADDR, MEM_WORDS, OPORT_ADDR};
use flexicore::mmu::Mmu;
use flexicore::program::Program;
use flexicore::sim::fc4::Fc4Core;
use flexicore::sim::{RunResult, StopReason};
use flexicore::trace::StepEvent;
use flexicore::SimError;
use flexkernels::Kernel;

const WIDTH_MASK: u8 = 0xF;
const PC_MASK: u8 = 0x7F;
const SIGN_BIT: u8 = 0x8;
const BUDGET: u64 = 100_000;

/// The fc4 simulator exactly as it looked before the `exec` refactor:
/// its own fetch/decode/execute/commit loop, no shared engine.
struct DirectFc4 {
    program: Program,
    mmu: Mmu,
    pc: u8,
    acc: u8,
    mem: [u8; MEM_WORDS],
    cycle: u64,
    instructions: u64,
    taken_branches: u64,
    halted: bool,
}

impl DirectFc4 {
    fn new(program: Program) -> Self {
        DirectFc4 {
            program,
            mmu: Mmu::new(),
            pc: 0,
            acc: 0,
            mem: [0; MEM_WORDS],
            cycle: 0,
            instructions: 0,
            taken_branches: 0,
            halted: false,
        }
    }

    fn read_operand<I: InputPort>(&mut self, addr: u8, input: &mut I) -> u8 {
        if addr == IPORT_ADDR {
            input.read(self.cycle) & WIDTH_MASK
        } else {
            self.mem[usize::from(addr & 0x7)]
        }
    }

    fn step<I: InputPort, O: OutputPort>(
        &mut self,
        input: &mut I,
        output: &mut O,
    ) -> Result<StepEvent, SimError> {
        self.mmu.tick();
        let address = self.mmu.extend(self.pc);
        let byte = self
            .program
            .fetch(address)
            .ok_or(SimError::FetchOutOfBounds {
                address,
                program_len: self.program.len(),
            })?;
        let insn = Instruction::decode(byte).map_err(|_| SimError::IllegalInstruction {
            raw: byte.into(),
            address,
        })?;
        let start_cycle = self.cycle;
        let mut taken = false;
        let mut next_pc = (self.pc + 1) & PC_MASK;
        match insn {
            Instruction::AddImm { imm } => self.acc = self.acc.wrapping_add(imm) & WIDTH_MASK,
            Instruction::NandImm { imm } => self.acc = !(self.acc & imm) & WIDTH_MASK,
            Instruction::XorImm { imm } => self.acc = (self.acc ^ imm) & WIDTH_MASK,
            Instruction::AddMem { src } => {
                let v = self.read_operand(src, input);
                self.acc = self.acc.wrapping_add(v) & WIDTH_MASK;
            }
            Instruction::NandMem { src } => {
                let v = self.read_operand(src, input);
                self.acc = !(self.acc & v) & WIDTH_MASK;
            }
            Instruction::XorMem { src } => {
                let v = self.read_operand(src, input);
                self.acc = (self.acc ^ v) & WIDTH_MASK;
            }
            Instruction::Load { addr } => self.acc = self.read_operand(addr, input),
            Instruction::Store { addr } => {
                if addr != IPORT_ADDR {
                    self.mem[usize::from(addr & 0x7)] = self.acc;
                }
                if addr == OPORT_ADDR {
                    output.write(self.cycle, self.acc);
                    self.mmu.observe(self.acc);
                }
            }
            Instruction::Branch { target } => {
                if self.acc & SIGN_BIT != 0 {
                    taken = true;
                    if target == self.pc {
                        self.halted = true;
                    }
                    next_pc = target;
                }
            }
        }
        self.pc = next_pc;
        self.cycle += 1;
        self.instructions += 1;
        if taken {
            self.taken_branches += 1;
        }
        Ok(StepEvent {
            cycle: start_cycle,
            address,
            next_pc: self.pc,
            acc: self.acc,
            cycles: 1,
            taken_branch: taken,
            halted: self.halted,
        })
    }

    fn run<I: InputPort, O: OutputPort>(
        &mut self,
        input: &mut I,
        output: &mut O,
        max_cycles: u64,
    ) -> Result<RunResult, SimError> {
        while !self.halted && self.cycle < max_cycles {
            self.step(input, output)?;
        }
        Ok(RunResult {
            cycles: self.cycle,
            instructions: self.instructions,
            taken_branches: self.taken_branches,
            fetched_bytes: self.instructions,
            stop: if self.halted {
                StopReason::Halted
            } else {
                StopReason::CycleLimit
            },
        })
    }
}

fn xorshift_image() -> Program {
    Kernel::XorShift8
        .assemble(Target::fc4())
        .unwrap()
        .into_program()
}

fn bench_engine_vs_direct(c: &mut Criterion) {
    let program = xorshift_image();
    let mut group = c.benchmark_group("engine_vs_direct");
    group.bench_function("direct_fc4_xorshift", |b| {
        b.iter(|| {
            let mut core = DirectFc4::new(program.clone());
            core.run(&mut ConstInput::new(0x5), &mut NullOutput::new(), BUDGET)
                .unwrap()
                .instructions
        });
    });
    group.bench_function("engine_fc4_xorshift", |b| {
        b.iter(|| {
            let mut core = Fc4Core::new(program.clone());
            core.run(&mut ConstInput::new(0x5), &mut NullOutput::new(), BUDGET)
                .unwrap()
                .instructions
        });
    });
    group.finish();
}

criterion_group!(benches, bench_engine_vs_direct);
criterion_main!(benches);

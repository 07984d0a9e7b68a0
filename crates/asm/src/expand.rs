//! Pseudo-instruction expansion.
//!
//! This module is where the paper's expressiveness trade-off (§3.3, §6.1)
//! becomes mechanical. Kernels are written once against a rich mnemonic
//! set; each mnemonic lowers to
//!
//! * a **single hardware instruction** when the target dialect/feature set
//!   supports it, or
//! * a **base-ISA software sequence** otherwise (sometimes dozens of
//!   instructions — e.g. `lsr1`, reproducing the paper's Listing 1
//!   observation), or
//! * an error when no sound expansion exists (e.g. `adc` without a carry
//!   flag).
//!
//! ## Catalogue (accumulator dialects)
//!
//! | mnemonic | hardware when | software expansion |
//! |---|---|---|
//! | `add/addi/nand/nandi/xor/xori/load/store/br` | always | — |
//! | `ldb k` | fc8 | `nandi 0; addi k+1` elsewhere (4-bit only) |
//! | `ldi k` | fc8 (as `ldb`) | `nandi 0; addi…` chain |
//! | `jmp l` | BranchFlags | `nandi 0; br l` (clobbers ACC) |
//! | `halt` | — | `jmp`-to-self idiom |
//! | `nop` | — | `addi 0` |
//! | `andi k` / `and m` | — | `nand; nandi -1` pair |
//! | `ori k` | AddWithCarry (xacc) | `nandi -1; nandi ~k` |
//! | `brgtu x, m, l` | ADC carry trick (7 instructions) | ~17-instruction sign-split compare |
//! | `brltu8 xl, xh, kl, kh, l` | ADC SUB/SWB borrow chain | three nibble-wise `brgtu` |
//! | `or m` | AddWithCarry (xacc) | 5-instruction De Morgan via scratch r7 |
//! | `subi k` | — | `addi -k` |
//! | `sub m` | AddWithCarry (xacc) | 5-instruction two's-complement via r7 |
//! | `neg` | AddWithCarry (xacc) | `nandi -1; addi 1` |
//! | `adc/adci/swb` | AddWithCarry (xacc) | error (no carry exists) |
//! | `xch m` | AccExchange (xacc) | 6-instruction swap via r6/r7 |
//! | `lsr1`/`asr1`, `lsri/asri n` | BarrelShifter (xacc) | ~29-instruction bit-test sequence via r6/r7, shared through `call` when Subroutines is on |
//! | `mull/mulh m` | Multiplier (xacc) | error (kernels provide their own loops) |
//! | `call/ret` | Subroutines (xacc) | error |
//! | `pjmp p, l` | — | MMU escape sequence + branch |
//!
//! Software expansions that need temporaries use the **scratch registers
//! r6 and r7**; kernels that use those mnemonics must treat r6/r7 as
//! clobbered (they are also unavailable on FlexiCore8, which has only four
//! data words — scratch-using pseudos error there).

use crate::error::{AsmError, AsmErrorKind};
use crate::ir::{Item, LabelId, MachineInsn, Symbols};
use crate::parser::{Operand, Parsed, Stmt};
use crate::target::Target;
use flexicore::isa::acc::{Cond, Instruction as A};
use flexicore::isa::features::Feature;
use flexicore::isa::{xls, Dialect};

/// A branch destination as written in source: symbolic, or an absolute
/// page-local PC (what disassembly listings contain).
#[derive(Clone, Copy)]
enum BranchTarget {
    Label(LabelId),
    Abs(u8),
}

/// The base ISA's branch-if-negative, its target patched at layout.
const BR_N: A = A::Br {
    cond: Cond::N,
    target: 0,
};

/// Scratch register used by single-temporary expansions.
pub const SCRATCH_A: u8 = 7;
/// Second scratch register used by two-temporary expansions.
pub const SCRATCH_B: u8 = 6;

/// Expand parsed statements into layout-ready items for `target`. The
/// labels expansion makes are added to `parsed.symbols`.
///
/// # Errors
///
/// Returns [`AsmError`] for unknown/unsupported mnemonics, bad operand
/// shapes and out-of-range values.
pub fn expand(target: Target, parsed: &mut Parsed<'_>) -> Result<Vec<Item>, AsmError> {
    let Parsed {
        stmts,
        operands,
        symbols,
    } = parsed;
    let mut ctx = Ctx {
        target,
        // most statements are instructions, and most of those expand 1:1
        items: Vec::with_capacity(stmts.len() * 2),
        symbols,
        line: 0,
        shared_lsr1: None,
        shared_asr1: None,
    };
    for stmt in stmts.iter() {
        ctx.line = stmt.line();
        match stmt {
            Stmt::Label { id, line } => ctx.items.push(Item::Label {
                id: *id,
                line: *line,
            }),
            Stmt::Page { page, line } => ctx.items.push(Item::PageBreak {
                page: *page,
                line: *line,
            }),
            Stmt::Insn {
                mnemonic,
                cond,
                operands: range,
                ..
            } => {
                let operands = &operands[range.clone()];
                match target.dialect {
                    Dialect::LoadStore => ctx.expand_ls(mnemonic, cond.as_deref(), operands)?,
                    _ => ctx.expand_acc(mnemonic, cond.as_deref(), operands)?,
                }
            }
        }
    }
    ctx.emit_shared_routines()?;
    Ok(ctx.items)
}

struct Ctx<'s, 'a> {
    target: Target,
    items: Vec<Item>,
    symbols: &'s mut Symbols<'a>,
    line: usize,
    /// Shared software right-shift routines to append at the end of the
    /// program: with the Subroutines extension (and no barrel shifter)
    /// the ~29-instruction shift sequence is emitted once and `call`ed —
    /// the §6.1 "efficient subroutine calls" payoff.
    shared_lsr1: Option<LabelId>,
    shared_asr1: Option<LabelId>,
}

impl Ctx<'_, '_> {
    fn err(&self, kind: AsmErrorKind) -> AsmError {
        AsmError::new(self.line, kind)
    }

    fn syntax(&self, message: impl Into<String>) -> AsmError {
        self.err(AsmErrorKind::Syntax {
            message: message.into(),
        })
    }

    fn unsupported(&self, mnemonic: &str, reason: impl Into<String>) -> AsmError {
        self.err(AsmErrorKind::Unsupported {
            mnemonic: mnemonic.to_string(),
            reason: reason.into(),
            feature: None,
        })
    }

    /// `mnemonic` is unavailable because the target lacks `feature`.
    fn needs(&self, mnemonic: &str, feature: Feature, reason: impl Into<String>) -> AsmError {
        self.err(AsmErrorKind::Unsupported {
            mnemonic: mnemonic.to_string(),
            reason: reason.into(),
            feature: Some(feature),
        })
    }

    fn emit(&mut self, insn: MachineInsn) {
        self.items.push(Item::Insn {
            insn,
            label: None,
            cross_page: false,
            line: self.line,
        });
    }

    fn emit_branch(&mut self, insn: MachineInsn, label: LabelId) {
        self.items.push(Item::Insn {
            insn,
            label: Some(label),
            cross_page: false,
            line: self.line,
        });
    }

    fn emit_branch_to(&mut self, insn: MachineInsn, target: BranchTarget) {
        match target {
            BranchTarget::Label(label) => self.emit_branch(insn, label),
            BranchTarget::Abs(pc) => self.emit(insn.with_target(pc)),
        }
    }

    fn mark_last_cross_page(&mut self) {
        if let Some(Item::Insn { cross_page, .. }) = self.items.last_mut() {
            *cross_page = true;
        }
    }

    fn emit_label(&mut self, id: LabelId) {
        self.items.push(Item::Label {
            id,
            line: self.line,
        });
    }

    fn fresh_label(&mut self, tag: &'static str) -> LabelId {
        self.symbols.fresh(tag)
    }

    fn feature(&self, f: Feature) -> bool {
        self.target.dialect == Dialect::ExtendedAcc && self.target.features.contains(f)
    }

    fn ls_feature(&self, f: Feature) -> bool {
        self.target.features.contains(f)
    }

    // ---- operand helpers -------------------------------------------------

    fn one_mem(&self, mnemonic: &str, operands: &[Operand]) -> Result<u8, AsmError> {
        match operands {
            [Operand::Reg(m)] => {
                let words = self.target.dialect.mem_words();
                if *m < words {
                    Ok(*m)
                } else {
                    Err(self.err(AsmErrorKind::OutOfRange {
                        what: format!("`{mnemonic}` memory address"),
                        value: i64::from(*m),
                        range: (0, i64::from(words) - 1),
                    }))
                }
            }
            _ => Err(self.syntax(format!("`{mnemonic}` takes one memory operand (rN)"))),
        }
    }

    fn one_imm(&self, mnemonic: &str, operands: &[Operand]) -> Result<i64, AsmError> {
        match operands {
            [Operand::Imm(v)] => Ok(*v),
            _ => Err(self.syntax(format!("`{mnemonic}` takes one immediate operand"))),
        }
    }

    fn one_label(&self, mnemonic: &str, operands: &[Operand]) -> Result<LabelId, AsmError> {
        match operands {
            [Operand::Label(l)] => Ok(*l),
            _ => Err(self.syntax(format!("`{mnemonic}` takes one label operand"))),
        }
    }

    /// A branch destination: a label, or an absolute page-local PC.
    /// Numeric targets are what the disassembler emits, so accepting
    /// them makes assemble → disassemble → assemble a round trip.
    fn one_target(&self, mnemonic: &str, operands: &[Operand]) -> Result<BranchTarget, AsmError> {
        // load-store branch encodings carry a full 8-bit target field
        // (the engine masks to the 7-bit PC); the accumulator dialects
        // encode 7 bits
        let max = if self.target.dialect == Dialect::LoadStore {
            255
        } else {
            127
        };
        match operands {
            [Operand::Label(l)] => Ok(BranchTarget::Label(*l)),
            [Operand::Imm(v)] if (0..=max).contains(v) => Ok(BranchTarget::Abs(*v as u8)),
            [Operand::Imm(v)] => Err(self.err(AsmErrorKind::OutOfRange {
                what: format!("`{mnemonic}` absolute target"),
                value: *v,
                range: (0, max),
            })),
            _ => Err(self.syntax(format!(
                "`{mnemonic}` takes a label or an absolute page-local target"
            ))),
        }
    }

    fn imm4(&self, mnemonic: &str, v: i64) -> Result<u8, AsmError> {
        // sign-extended at execution: fc8 widens, and the 4-bit dialects
        // keep 4 bits, where raw nibbles and sign-extension coincide
        let range = (-8, 15);
        if v < range.0 || v > range.1 {
            return Err(self.err(AsmErrorKind::OutOfRange {
                what: format!("`{mnemonic}` immediate"),
                value: v,
                range,
            }));
        }
        Ok((v & 0xF) as u8)
    }

    fn cond_mask(&self, cond: Option<&str>) -> Result<Cond, AsmError> {
        let c = match cond {
            None | Some("n") => Cond::N,
            Some("z") => Cond::Z,
            Some("p") => Cond::P,
            Some("nz") => Cond::from_bits(0b110),
            Some("np") => Cond::from_bits(0b101),
            Some("zp") => Cond::from_bits(0b011),
            Some("always") | Some("nzp") => Cond::ALWAYS,
            Some("never") => Cond::NEVER,
            Some(other) => return Err(self.syntax(format!("unknown branch condition `.{other}`"))),
        };
        Ok(c)
    }

    // ---- accumulator-dialect instruction builders ------------------------

    /// `insn` in the target's accumulator dialect.
    fn acc(&self, insn: A) -> MachineInsn {
        MachineInsn::Acc(insn.in_dialect(self.target.dialect))
    }

    fn emit_acc(&mut self, insn: A) {
        self.emit(self.acc(insn));
    }

    /// Emit `ACC = ACC op imm` for a nibble immediate.
    fn emit_acc_alu_imm(&mut self, op: AccOp, mnemonic: &str, v: i64) -> Result<(), AsmError> {
        let imm = self.imm4(mnemonic, v)?;
        self.emit_acc(match op {
            AccOp::Add => A::AddImm { imm },
            AccOp::Nand => A::NandImm { imm },
            AccOp::Xor => A::XorImm { imm },
        });
        Ok(())
    }

    /// Load a 4-bit (or, on fc8, 8-bit) constant into the accumulator.
    fn emit_ldi(&mut self, v: i64) -> Result<(), AsmError> {
        if self.target.dialect == Dialect::Fc8 {
            if !(-128..=255).contains(&v) {
                return Err(self.err(AsmErrorKind::OutOfRange {
                    what: "`ldi` immediate".into(),
                    value: v,
                    range: (-128, 255),
                }));
            }
            self.emit_acc(A::LoadByte {
                imm: (v & 0xFF) as u8,
            });
        } else {
            let k = normalize_nibble_delta(v, self.line, "ldi")?;
            // nandi 0 -> 0xF (-1), then add k+1
            self.emit_acc(A::NandImm { imm: 0 });
            self.emit_acc(A::AddImm {
                imm: ((k + 1) & 0xF) as u8,
            });
        }
        Ok(())
    }

    /// Unconditional jump, clobbering the accumulator (and flags).
    fn emit_jmp(&mut self, label: LabelId) {
        if self.feature(Feature::BranchFlags) {
            self.emit_branch(
                self.acc(A::Br {
                    cond: Cond::ALWAYS,
                    target: 0,
                }),
                label,
            );
        } else {
            // nandi 0 makes ACC = all-ones (negative); br.n is then taken
            self.emit_acc(A::NandImm { imm: 0 });
            self.emit_branch(self.acc(BR_N), label);
        }
    }

    fn require_scratch(&self, mnemonic: &str) -> Result<(), AsmError> {
        if self.target.dialect == Dialect::Fc8 {
            return Err(self.unsupported(
                mnemonic,
                "the software expansion needs scratch registers r6/r7, \
                 which FlexiCore8's four-word memory does not have",
            ));
        }
        Ok(())
    }

    /// Software logical/arithmetic right shift by one (bit-test sequence,
    /// ~29 instructions — the paper's Listing 1 pain point).
    fn emit_rshift1_soft(&mut self, arithmetic: bool) -> Result<(), AsmError> {
        self.require_scratch("lsr1")?;
        let b3set = self.fresh_label("rs_b3set");
        let b3done = self.fresh_label("rs_b3done");
        let b2clr = self.fresh_label("rs_b2clr");
        let b1clr = self.fresh_label("rs_b1clr");
        let t0 = SCRATCH_A;
        let t1 = SCRATCH_B;

        self.emit_acc(A::Store { m: t0 }); // t0 = a
        self.emit_ldi(0)?; // acc = 0
        self.emit_acc(A::Store { m: t1 }); // r = 0
        self.emit_acc(A::Load { m: t0 });
        self.emit_branch(self.acc(BR_N), b3set); // bit3 set?
        self.emit_jmp(b3done);
        self.emit_label(b3set);
        self.emit_acc(A::Load { m: t0 });
        self.emit_acc_alu_imm(AccOp::Add, "lsr1", -8)?; // clear bit 3
        self.emit_acc(A::Store { m: t0 });
        self.emit_acc(A::Load { m: t1 });
        // shifted bit 3 lands in bit 2; for asr also re-set bit 3
        self.emit_acc_alu_imm(AccOp::Add, "lsr1", if arithmetic { 12 } else { 4 })?;
        self.emit_acc(A::Store { m: t1 });
        self.emit_label(b3done);
        self.emit_acc(A::Load { m: t0 });
        self.emit_acc_alu_imm(AccOp::Add, "lsr1", -4)?;
        self.emit_branch(self.acc(BR_N), b2clr);
        self.emit_acc(A::Store { m: t0 });
        self.emit_acc(A::Load { m: t1 });
        self.emit_acc_alu_imm(AccOp::Add, "lsr1", 2)?;
        self.emit_acc(A::Store { m: t1 });
        self.emit_label(b2clr);
        self.emit_acc(A::Load { m: t0 });
        self.emit_acc_alu_imm(AccOp::Add, "lsr1", -2)?;
        self.emit_branch(self.acc(BR_N), b1clr);
        self.emit_acc(A::Store { m: t0 });
        self.emit_acc(A::Load { m: t1 });
        self.emit_acc_alu_imm(AccOp::Add, "lsr1", 1)?;
        self.emit_acc(A::Store { m: t1 });
        self.emit_label(b1clr);
        self.emit_acc(A::Load { m: t1 });
        Ok(())
    }

    fn emit_rshift(
        &mut self,
        mnemonic: &str,
        amount: i64,
        arithmetic: bool,
    ) -> Result<(), AsmError> {
        if !(0..=7).contains(&amount) {
            return Err(self.err(AsmErrorKind::OutOfRange {
                what: format!("`{mnemonic}` shift amount"),
                value: amount,
                range: (0, 7),
            }));
        }
        if self.feature(Feature::BarrelShifter) {
            let insn = if arithmetic {
                A::AsrImm {
                    amount: amount as u8,
                }
            } else {
                A::LsrImm {
                    amount: amount as u8,
                }
            };
            self.emit_acc(insn);
            return Ok(());
        }
        if self.feature(Feature::Subroutines) {
            // share one software routine through the return-address
            // register instead of inlining ~29 instructions per shift
            let label = self.shared_shift_label(arithmetic);
            for _ in 0..amount {
                self.emit_branch(self.acc(A::Call { target: 0 }), label);
            }
            return Ok(());
        }
        for _ in 0..amount {
            self.emit_rshift1_soft(arithmetic)?;
        }
        Ok(())
    }

    /// The label of the shared shift-by-one routine, creating the demand
    /// marker on first use.
    fn shared_shift_label(&mut self, arithmetic: bool) -> LabelId {
        let (slot, tag) = if arithmetic {
            (&mut self.shared_asr1, "shared_asr1")
        } else {
            (&mut self.shared_lsr1, "shared_lsr1")
        };
        *slot.get_or_insert_with(|| self.symbols.once(tag))
    }

    /// Append the shared routines demanded during expansion (after the
    /// program body, which always ends in a halt spin, so fall-through
    /// cannot reach them).
    fn emit_shared_routines(&mut self) -> Result<(), AsmError> {
        for (label, arithmetic) in [(self.shared_lsr1, false), (self.shared_asr1, true)] {
            if let Some(label) = label {
                self.emit_label(label);
                self.emit_rshift1_soft(arithmetic)?;
                self.emit_acc(A::Ret);
            }
        }
        Ok(())
    }

    /// Unsigned compare-and-branch: jump to `label` iff
    /// `MEM[x] > MEM[m]` (unsigned), else fall through. Clobbers ACC (and
    /// carry/r7 depending on the expansion).
    ///
    /// With the ADC extension this is the carry trick (`m - x` borrows
    /// exactly when `x > m`, and `adci` materializes the carry bit) —
    /// seven instructions. On the base ISA the branch-on-sign primitive
    /// cannot order nibbles whose difference overflows, so the expansion
    /// splits on bit 3 first: ~20 instructions of exactly the §3.3
    /// code bloat.
    fn emit_brgtu(&mut self, x: u8, m: u8, label: LabelId) -> Result<(), AsmError> {
        if self.feature(Feature::AddWithCarry) {
            // carry = (m >= x); acc = carry; acc - 1 is negative iff x > m
            self.emit_acc(A::Load { m });
            self.emit_acc(A::Sub { m: x });
            self.emit_acc_alu_imm(AccOp::Nand, "brgtu", 0)?; // acc = 0xF
            self.emit_acc_alu_imm(AccOp::Nand, "brgtu", -1)?; // acc = 0
            self.emit_acc(A::AdcImm { imm: 0 });
            self.emit_acc_alu_imm(AccOp::Add, "brgtu", -1)?;
            self.emit_branch(self.acc(BR_N), label);
            return Ok(());
        }
        self.require_scratch("brgtu")?;
        // split on the sign bit: the branch-on-negative primitive only
        // orders values whose difference fits in a signed nibble, so the
        // mixed-sign cases are decided outright and both same-sign cases
        // share one subtraction tail
        let xhi = self.fresh_label("ugt_xhi");
        let tail = self.fresh_label("ugt_tail");
        let le = self.fresh_label("ugt_le");
        self.emit_acc(A::Load { m: x });
        self.emit_branch(self.acc(BR_N), xhi);
        self.emit_acc(A::Load { m });
        self.emit_branch(self.acc(BR_N), le); // x < 8 <= m
        self.emit_jmp(tail); // both low
        self.emit_label(xhi);
        self.emit_acc(A::Load { m });
        self.emit_branch(self.acc(BR_N), tail); // both high
        self.emit_jmp(label); // x >= 8 > m
        self.emit_label(tail);
        // x - m - 1 via the one's complement identity ~m = -m - 1: the
        // result is negative exactly when x <= m (clobbers r7)
        self.emit_acc(A::Load { m });
        self.emit_acc_alu_imm(AccOp::Nand, "brgtu", -1)?;
        self.emit_acc(A::Store { m: SCRATCH_A });
        self.emit_acc(A::Load { m: x });
        self.emit_acc(A::Add { m: SCRATCH_A });
        self.emit_branch(self.acc(BR_N), le);
        self.emit_jmp(label);
        self.emit_label(le);
        Ok(())
    }

    /// 8-bit unsigned compare-and-branch: jump to `label` iff the two-
    /// nibble value `MEM[xh]:MEM[xl]` is less than the constant `kh:kl`,
    /// else fall through. Clobbers ACC, r6 and r7 (and carry).
    ///
    /// With the ADC extension this is the §6.1 data-coalescing payoff:
    /// `SUB` then `SWB` ripple the borrow across the nibbles and `adci`
    /// materializes the verdict — one instruction per nibble of data. The
    /// base ISA needs a branchy nibble-by-nibble comparison instead.
    fn emit_brltu8(
        &mut self,
        xl: u8,
        xh: u8,
        kl: i64,
        kh: i64,
        label: LabelId,
    ) -> Result<(), AsmError> {
        if self.feature(Feature::AddWithCarry) {
            // constants first: `ldi` contains an ADD and would clobber the
            // borrow chain if interleaved
            self.emit_ldi(kl)?;
            self.emit_acc(A::Store { m: SCRATCH_B });
            self.emit_ldi(kh)?;
            self.emit_acc(A::Store { m: SCRATCH_A });
            self.emit_acc(A::Load { m: xl });
            self.emit_acc(A::Sub { m: SCRATCH_B });
            self.emit_acc(A::Load { m: xh });
            self.emit_acc(A::Swb { m: SCRATCH_A });
            // carry = x >= k; acc = carry - 1 is negative iff x < k
            self.emit_acc_alu_imm(AccOp::Nand, "brltu8", 0)?;
            self.emit_acc_alu_imm(AccOp::Nand, "brltu8", -1)?;
            self.emit_acc(A::AdcImm { imm: 0 });
            self.emit_acc_alu_imm(AccOp::Add, "brltu8", -1)?;
            self.emit_branch(self.acc(BR_N), label);
            return Ok(());
        }
        self.require_scratch("brltu8")?;
        // nibble-by-nibble: less iff (xh < kh) or (xh == kh and xl < kl)
        let ge = self.fresh_label("ult8_ge");
        self.emit_ldi(kh)?;
        self.emit_acc(A::Store { m: SCRATCH_B });
        self.emit_brgtu(SCRATCH_B, xh, label)?; // kh > xh: less
        self.emit_brgtu(xh, SCRATCH_B, ge)?; // xh > kh: not less
        self.emit_ldi(kl)?;
        self.emit_acc(A::Store { m: SCRATCH_B });
        self.emit_brgtu(SCRATCH_B, xl, label)?; // tie: kl > xl decides
        self.emit_label(ge);
        Ok(())
    }

    // ---- accumulator-dialect expansion ------------------------------------

    fn expand_acc(
        &mut self,
        mnemonic: &str,
        cond: Option<&str>,
        operands: &[Operand],
    ) -> Result<(), AsmError> {
        if cond.is_some() && mnemonic != "br" {
            return Err(self.syntax(format!(
                "condition suffix is only valid on `br`, not `{mnemonic}`"
            )));
        }
        match mnemonic {
            // ---- native three ALU ops, both addressing modes ----
            "add" => {
                let m = self.one_mem(mnemonic, operands)?;
                self.emit_acc(A::Add { m });
            }
            "nand" => {
                let m = self.one_mem(mnemonic, operands)?;
                self.emit_acc(A::Nand { m });
            }
            "xor" => {
                let m = self.one_mem(mnemonic, operands)?;
                self.emit_acc(A::Xor { m });
            }
            "addi" => {
                let v = self.one_imm(mnemonic, operands)?;
                self.emit_acc_alu_imm(AccOp::Add, mnemonic, v)?;
            }
            "nandi" => {
                let v = self.one_imm(mnemonic, operands)?;
                self.emit_acc_alu_imm(AccOp::Nand, mnemonic, v)?;
            }
            "xori" => {
                let v = self.one_imm(mnemonic, operands)?;
                self.emit_acc_alu_imm(AccOp::Xor, mnemonic, v)?;
            }
            "load" => {
                let m = self.one_mem(mnemonic, operands)?;
                self.emit_acc(A::Load { m });
            }
            "store" => {
                let m = self.one_mem(mnemonic, operands)?;
                self.emit_acc(A::Store { m });
            }
            "br" => {
                let c = self.cond_mask(cond)?;
                let target = self.one_target(mnemonic, operands)?;
                if c == Cond::N {
                    self.emit_branch_to(self.acc(BR_N), target);
                } else if self.feature(Feature::BranchFlags) {
                    self.emit_branch_to(self.acc(A::Br { cond: c, target: 0 }), target);
                } else {
                    return Err(self.needs(
                        "br",
                        Feature::BranchFlags,
                        "condition masks other than `.n` need the BranchFlags extension",
                    ));
                }
            }
            // ---- fc8 native ----
            "ldb" => {
                if self.target.dialect != Dialect::Fc8 {
                    return Err(self.unsupported("ldb", "LOAD BYTE exists only on FlexiCore8"));
                }
                let v = self.one_imm(mnemonic, operands)?;
                self.emit_ldi(v)?;
            }
            // ---- xacc native (feature-gated), with software fallbacks ----
            "adc" | "swb" => {
                let m = self.one_mem(mnemonic, operands)?;
                if !self.feature(Feature::AddWithCarry) {
                    return Err(self.needs(
                        mnemonic,
                        Feature::AddWithCarry,
                        "needs the ADC extension (no architected carry otherwise)",
                    ));
                }
                let insn = if mnemonic == "adc" {
                    A::Adc { m }
                } else {
                    A::Swb { m }
                };
                self.emit_acc(insn);
            }
            "adci" => {
                let v = self.one_imm(mnemonic, operands)?;
                if !self.feature(Feature::AddWithCarry) {
                    return Err(self.needs(
                        mnemonic,
                        Feature::AddWithCarry,
                        "needs the ADC extension (no architected carry otherwise)",
                    ));
                }
                if !(-8..=7).contains(&v) {
                    return Err(self.err(AsmErrorKind::OutOfRange {
                        what: "`adci` immediate".into(),
                        value: v,
                        range: (-8, 7),
                    }));
                }
                self.emit_acc(A::AdcImm {
                    imm: (v & 0xF) as u8,
                });
            }
            "sub" => {
                let m = self.one_mem(mnemonic, operands)?;
                if self.feature(Feature::AddWithCarry) {
                    self.emit_acc(A::Sub { m });
                } else {
                    self.require_scratch("sub")?;
                    // acc - m = acc + ~m + 1
                    self.emit_acc(A::Store { m: SCRATCH_A });
                    self.emit_acc(A::Load { m });
                    self.emit_acc_alu_imm(AccOp::Nand, "sub", -1)?; // ~m
                    self.emit_acc_alu_imm(AccOp::Add, "sub", 1)?; // -m
                    self.emit_acc(A::Add { m: SCRATCH_A });
                }
            }
            "subi" => {
                let v = self.one_imm(mnemonic, operands)?;
                self.emit_acc_alu_imm(AccOp::Add, "subi", wrap_nibble(-v))?;
            }
            "neg" => {
                if !operands.is_empty() {
                    return Err(self.syntax("`neg` takes no operands"));
                }
                if self.feature(Feature::AddWithCarry) {
                    self.emit_acc(A::Neg);
                } else {
                    self.emit_acc_alu_imm(AccOp::Nand, "neg", -1)?;
                    self.emit_acc_alu_imm(AccOp::Add, "neg", 1)?;
                }
            }
            "and" => {
                let m = self.one_mem(mnemonic, operands)?;
                self.emit_acc(A::Nand { m });
                self.emit_acc_alu_imm(AccOp::Nand, "and", -1)?;
            }
            "andi" => {
                let v = self.one_imm(mnemonic, operands)?;
                self.emit_acc_alu_imm(AccOp::Nand, "andi", v)?;
                self.emit_acc_alu_imm(AccOp::Nand, "andi", -1)?;
            }
            "or" => {
                let m = self.one_mem(mnemonic, operands)?;
                if self.feature(Feature::AddWithCarry) {
                    self.emit_acc(A::Or { m });
                } else {
                    self.require_scratch("or")?;
                    // a|b = ~(~a & ~b)
                    self.emit_acc_alu_imm(AccOp::Nand, "or", -1)?; // ~a
                    self.emit_acc(A::Store { m: SCRATCH_A });
                    self.emit_acc(A::Load { m });
                    self.emit_acc_alu_imm(AccOp::Nand, "or", -1)?; // ~b
                    self.emit_acc(A::Nand { m: SCRATCH_A });
                }
            }
            "ori" => {
                let v = self.one_imm(mnemonic, operands)?;
                if self.feature(Feature::AddWithCarry) {
                    let imm = self.imm4("ori", v)?;
                    self.emit_acc(A::OrImm { imm });
                    return Ok(());
                }
                // ~a NAND ~k = a | k
                self.emit_acc_alu_imm(AccOp::Nand, "ori", -1)?;
                self.emit_acc_alu_imm(AccOp::Nand, "ori", wrap_nibble(!v))?;
            }
            "xch" => {
                let m = self.one_mem(mnemonic, operands)?;
                if self.feature(Feature::AccExchange) {
                    self.emit_acc(A::Xch { m });
                } else {
                    self.require_scratch("xch")?;
                    self.emit_acc(A::Store { m: SCRATCH_A });
                    self.emit_acc(A::Load { m });
                    self.emit_acc(A::Store { m: SCRATCH_B });
                    self.emit_acc(A::Load { m: SCRATCH_A });
                    self.emit_acc(A::Store { m });
                    self.emit_acc(A::Load { m: SCRATCH_B });
                }
            }
            "lsr1" => self.emit_rshift(mnemonic, 1, false)?,
            "asr1" => self.emit_rshift(mnemonic, 1, true)?,
            "lsri" => {
                let v = self.one_imm(mnemonic, operands)?;
                self.emit_rshift(mnemonic, v, false)?;
            }
            "asri" => {
                let v = self.one_imm(mnemonic, operands)?;
                self.emit_rshift(mnemonic, v, true)?;
            }
            "mull" | "mulh" => {
                let m = self.one_mem(mnemonic, operands)?;
                if m >= 4 {
                    return Err(self.err(AsmErrorKind::OutOfRange {
                        what: format!("`{mnemonic}` operand (multiplier reads r0..r3)"),
                        value: i64::from(m),
                        range: (0, 3),
                    }));
                }
                if !self.feature(Feature::Multiplier) {
                    return Err(self.needs(
                        mnemonic,
                        Feature::Multiplier,
                        "needs the hardware multiplier extension",
                    ));
                }
                let insn = if mnemonic == "mull" {
                    A::MulL { m }
                } else {
                    A::MulH { m }
                };
                self.emit_acc(insn);
            }
            "call" => {
                let target = self.one_target(mnemonic, operands)?;
                if !self.feature(Feature::Subroutines) {
                    return Err(self.needs(
                        "call",
                        Feature::Subroutines,
                        "needs the Subroutines extension (return-address register)",
                    ));
                }
                self.emit_branch_to(self.acc(A::Call { target: 0 }), target);
            }
            "ret" => {
                if !self.feature(Feature::Subroutines) {
                    return Err(self.needs(
                        "ret",
                        Feature::Subroutines,
                        "needs the Subroutines extension (return-address register)",
                    ));
                }
                self.emit_acc(A::Ret);
            }
            // ---- universal pseudos ----
            "ldi" => {
                let v = self.one_imm(mnemonic, operands)?;
                self.emit_ldi(v)?;
            }
            "jmp" => {
                let label = self.one_label(mnemonic, operands)?;
                self.emit_jmp(label);
            }
            "halt" => {
                if !operands.is_empty() {
                    return Err(self.syntax("`halt` takes no operands"));
                }
                let here = self.fresh_label("halt");
                if self.feature(Feature::BranchFlags) {
                    self.emit_label(here);
                    self.emit_branch(
                        self.acc(A::Br {
                            cond: Cond::ALWAYS,
                            target: 0,
                        }),
                        here,
                    );
                } else {
                    // ACC must be negative for the spin branch to take
                    self.emit_acc(A::NandImm { imm: 0 });
                    self.emit_label(here);
                    self.emit_branch(self.acc(BR_N), here);
                }
            }
            "nop" => {
                if !operands.is_empty() {
                    return Err(self.syntax("`nop` takes no operands"));
                }
                self.emit_acc_alu_imm(AccOp::Add, "nop", 0)?;
            }
            "pjmp" => {
                let (page, label) = match operands {
                    [Operand::Imm(p), Operand::Label(l)] if (0..16).contains(p) => (*p, *l),
                    [Operand::Imm(p), Operand::Label(_)] => {
                        return Err(self.err(AsmErrorKind::OutOfRange {
                            what: "`pjmp` page".into(),
                            value: *p,
                            range: (0, 15),
                        }))
                    }
                    _ => {
                        return Err(
                            self.syntax("`pjmp` takes a page number and a label: `pjmp 2, entry`")
                        )
                    }
                };
                // drive the MMU escape sequence on the output port, then
                // branch; the page commits during the two-slot delay
                let oport = 1;
                self.emit_ldi(i64::from(flexicore::mmu::ESCAPE_1))?;
                self.emit_acc(A::Store { m: oport });
                self.emit_ldi(i64::from(flexicore::mmu::ESCAPE_2))?;
                self.emit_acc(A::Store { m: oport });
                self.emit_ldi(page)?;
                self.emit_acc(A::Store { m: oport });
                // the MMU commits the page three instruction slots after
                // the page value appears; the base-ISA `jmp` occupies two
                // slots, but the BranchFlags `jmp` is a single instruction
                // and needs a nop so the branch still lands post-commit
                if self.feature(Feature::BranchFlags) {
                    self.emit_acc_alu_imm(AccOp::Add, "pjmp", 0)?;
                }
                self.emit_jmp(label);
                self.mark_last_cross_page();
            }
            "brltu8" => {
                let (xl, xh, kl, kh, label) = match operands {
                    [Operand::Reg(xl), Operand::Reg(xh), Operand::Imm(kl), Operand::Imm(kh), Operand::Label(l)] => {
                        (*xl, *xh, *kl, *kh, *l)
                    }
                    _ => {
                        return Err(self.syntax(
                            "`brltu8` takes two memory operands, two nibble constants and a \
                             label: `brltu8 r4, r5, 0xB, 0x5, below`",
                        ))
                    }
                };
                if xl >= 6 || xh >= 6 {
                    return Err(
                        self.syntax("`brltu8` operands must avoid the scratch registers r6/r7")
                    );
                }
                self.emit_brltu8(xl, xh, kl, kh, label)?;
            }
            "brgtu" => {
                let (x, m, label) =
                    match operands {
                        [Operand::Reg(x), Operand::Reg(m), Operand::Label(l)] => (*x, *m, *l),
                        _ => return Err(self.syntax(
                            "`brgtu` takes two memory operands and a label: `brgtu r2, r3, big`",
                        )),
                    };
                self.emit_brgtu(x, m, label)?;
            }
            other => {
                return Err(self.syntax(format!(
                    "unknown mnemonic `{other}` for accumulator dialects"
                )))
            }
        }
        Ok(())
    }

    // ---- load-store-dialect expansion --------------------------------------

    fn ls_reg(&self, mnemonic: &str, op: &Operand) -> Result<u8, AsmError> {
        match op {
            Operand::Reg(r) if *r < 8 => Ok(*r),
            Operand::Reg(r) => Err(self.err(AsmErrorKind::OutOfRange {
                what: format!("`{mnemonic}` register"),
                value: i64::from(*r),
                range: (0, 7),
            })),
            _ => Err(self.syntax(format!("`{mnemonic}` expects a register here"))),
        }
    }

    fn ls_imm4(&self, mnemonic: &str, v: i64) -> Result<u8, AsmError> {
        if !(-8..=7).contains(&v) {
            return Err(self.err(AsmErrorKind::OutOfRange {
                what: format!("`{mnemonic}` immediate"),
                value: v,
                range: (-8, 7),
            }));
        }
        Ok((v & 0xF) as u8)
    }

    fn ls_check(&self, mnemonic: &str, op: xls::Op) -> Result<(), AsmError> {
        if let Some(f) = op.required_feature() {
            if !self.ls_feature(f) {
                return Err(self.needs(
                    mnemonic,
                    f,
                    format!("needs the {f} extension on the load-store target"),
                ));
            }
        }
        Ok(())
    }

    fn expand_ls(
        &mut self,
        mnemonic: &str,
        cond: Option<&str>,
        operands: &[Operand],
    ) -> Result<(), AsmError> {
        if cond.is_some() && mnemonic != "br" {
            return Err(self.syntax(format!(
                "condition suffix is only valid on `br`, not `{mnemonic}`"
            )));
        }
        let (base, imm_form) = match mnemonic.strip_suffix('i') {
            Some(b) if ls_op_from(b).is_some() && ls_op_from(mnemonic).is_none() => (b, true),
            _ => (mnemonic, false),
        };
        if let Some(op) = ls_op_from(base) {
            self.ls_check(mnemonic, op)?;
            if op == xls::Op::Neg {
                let rd = match operands {
                    [r] => self.ls_reg(mnemonic, r)?,
                    _ => return Err(self.syntax("`neg` takes one register")),
                };
                self.emit(MachineInsn::Xls(xls::Instruction::Alu {
                    op,
                    rd,
                    operand: xls::Operand::Imm(0),
                }));
                return Ok(());
            }
            let (rd, operand) = match operands {
                [rd, src] => {
                    let rd = self.ls_reg(mnemonic, rd)?;
                    let operand = if imm_form {
                        match src {
                            Operand::Imm(v) => xls::Operand::Imm(self.ls_imm4(mnemonic, *v)?),
                            _ => {
                                return Err(self.syntax(format!(
                                    "`{mnemonic}` expects an immediate second operand"
                                )))
                            }
                        }
                    } else {
                        xls::Operand::Reg(self.ls_reg(mnemonic, src)?)
                    };
                    (rd, operand)
                }
                _ => {
                    return Err(self.syntax(format!(
                        "`{mnemonic}` takes a destination register and a source"
                    )))
                }
            };
            self.emit(MachineInsn::Xls(xls::Instruction::Alu { op, rd, operand }));
            return Ok(());
        }
        match mnemonic {
            "br" => {
                let c = self.cond_mask(cond)?;
                if c != Cond::N && !self.ls_feature(Feature::BranchFlags) {
                    return Err(self.needs(
                        "br",
                        Feature::BranchFlags,
                        "condition masks other than `.n` need the BranchFlags extension",
                    ));
                }
                let target = self.one_target(mnemonic, operands)?;
                self.emit_branch_to(
                    MachineInsn::Xls(xls::Instruction::Br { cond: c, target: 0 }),
                    target,
                );
            }
            "call" => {
                if !self.ls_feature(Feature::Subroutines) {
                    return Err(self.needs(
                        "call",
                        Feature::Subroutines,
                        "needs the Subroutines extension",
                    ));
                }
                let target = self.one_target(mnemonic, operands)?;
                self.emit_branch_to(
                    MachineInsn::Xls(xls::Instruction::Call { target: 0 }),
                    target,
                );
            }
            "ret" => {
                if !self.ls_feature(Feature::Subroutines) {
                    return Err(self.needs(
                        "ret",
                        Feature::Subroutines,
                        "needs the Subroutines extension",
                    ));
                }
                self.emit(MachineInsn::Xls(xls::Instruction::Ret));
            }
            "jmp" => {
                let label = self.one_label(mnemonic, operands)?;
                if self.ls_feature(Feature::BranchFlags) {
                    self.emit_branch(
                        MachineInsn::Xls(xls::Instruction::Br {
                            cond: Cond::ALWAYS,
                            target: 0,
                        }),
                        label,
                    );
                } else {
                    // set N via r7 = -1, then branch on negative
                    self.emit(MachineInsn::Xls(xls::Instruction::Alu {
                        op: xls::Op::Mov,
                        rd: SCRATCH_A,
                        operand: xls::Operand::Imm(0xF),
                    }));
                    self.emit_branch(
                        MachineInsn::Xls(xls::Instruction::Br {
                            cond: Cond::N,
                            target: 0,
                        }),
                        label,
                    );
                }
            }
            "halt" => {
                let here = self.fresh_label("halt");
                if self.ls_feature(Feature::BranchFlags) {
                    // flags always have exactly one of n/z/p set after any
                    // ALU op; set them deterministically first
                    self.emit(MachineInsn::Xls(xls::Instruction::Alu {
                        op: xls::Op::Mov,
                        rd: SCRATCH_A,
                        operand: xls::Operand::Imm(0),
                    }));
                    self.emit_label(here);
                    self.emit_branch(
                        MachineInsn::Xls(xls::Instruction::Br {
                            cond: Cond::ALWAYS,
                            target: 0,
                        }),
                        here,
                    );
                } else {
                    self.emit(MachineInsn::Xls(xls::Instruction::Alu {
                        op: xls::Op::Mov,
                        rd: SCRATCH_A,
                        operand: xls::Operand::Imm(0xF),
                    }));
                    self.emit_label(here);
                    self.emit_branch(
                        MachineInsn::Xls(xls::Instruction::Br {
                            cond: Cond::N,
                            target: 0,
                        }),
                        here,
                    );
                }
            }
            "nop" => {
                self.emit(MachineInsn::Xls(xls::Instruction::Alu {
                    op: xls::Op::Mov,
                    rd: SCRATCH_A,
                    operand: xls::Operand::Reg(SCRATCH_A),
                }));
            }
            other => {
                return Err(self.syntax(format!(
                    "unknown mnemonic `{other}` for the load-store dialect"
                )))
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccOp {
    Add,
    Nand,
    Xor,
}

fn ls_op_from(name: &str) -> Option<xls::Op> {
    Some(match name {
        "add" => xls::Op::Add,
        "adc" => xls::Op::Adc,
        "sub" => xls::Op::Sub,
        "swb" => xls::Op::Swb,
        "and" => xls::Op::And,
        "or" => xls::Op::Or,
        "xor" => xls::Op::Xor,
        "nand" => xls::Op::Nand,
        "mov" => xls::Op::Mov,
        "neg" => xls::Op::Neg,
        "asr" => xls::Op::Asr,
        "lsr" => xls::Op::Lsr,
        "mull" => xls::Op::MulL,
        "mulh" => xls::Op::MulH,
        _ => return None,
    })
}

/// Interpret `v` as a 4-bit quantity and return its signed value in
/// `-8..=7` (so immediate chains stay short).
fn normalize_nibble_delta(v: i64, line: usize, mnemonic: &str) -> Result<i64, AsmError> {
    if !(-8..=15).contains(&v) {
        return Err(AsmError::new(
            line,
            AsmErrorKind::OutOfRange {
                what: format!("`{mnemonic}` immediate"),
                value: v,
                range: (-8, 15),
            },
        ));
    }
    let w = v & 0xF;
    Ok(if w >= 8 { w - 16 } else { w })
}

fn wrap_nibble(v: i64) -> i64 {
    let w = v & 0xF;
    if w >= 8 {
        w - 16
    } else {
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use flexicore::isa::features::FeatureSet;

    fn expand_src(target: Target, src: &str) -> Result<Vec<Item>, AsmError> {
        expand(target, &mut parse(src).unwrap())
    }

    fn insn_count(items: &[Item]) -> usize {
        items
            .iter()
            .filter(|i| matches!(i, Item::Insn { .. }))
            .count()
    }

    #[test]
    fn native_ops_are_one_to_one() {
        let items = expand_src(Target::fc4(), "load r0\naddi 3\nstore r1\n").unwrap();
        assert_eq!(insn_count(&items), 3);
    }

    #[test]
    fn halt_expands_to_two_on_base() {
        let items = expand_src(Target::fc4(), "halt\n").unwrap();
        assert_eq!(insn_count(&items), 2);
    }

    #[test]
    fn halt_is_single_branch_with_flags() {
        let items = expand_src(Target::xacc(FeatureSet::revised()), "halt\n").unwrap();
        assert_eq!(insn_count(&items), 1);
    }

    #[test]
    fn jmp_uses_branch_flags_when_available() {
        let base = expand_src(Target::fc4(), "jmp done\ndone: halt\n").unwrap();
        assert_eq!(insn_count(&base), 2 + 2);
        let ext = expand_src(
            Target::xacc(FeatureSet::revised()),
            "jmp done\ndone: halt\n",
        )
        .unwrap();
        assert_eq!(insn_count(&ext), 1 + 1);
    }

    #[test]
    fn ldi_expansion_lengths() {
        assert_eq!(
            insn_count(&expand_src(Target::fc4(), "ldi 9\n").unwrap()),
            2
        );
        assert_eq!(
            insn_count(&expand_src(Target::fc8(), "ldi 0xAB\n").unwrap()),
            1
        );
    }

    #[test]
    fn rshift_expands_big_on_base_and_single_with_shifter() {
        let soft = expand_src(Target::fc4(), "lsr1\n").unwrap();
        assert!(
            insn_count(&soft) >= 25,
            "software right shift should be large, got {}",
            insn_count(&soft)
        );
        let hard = expand_src(
            Target::xacc(FeatureSet::only(Feature::BarrelShifter)),
            "lsr1\n",
        )
        .unwrap();
        assert_eq!(insn_count(&hard), 1);
    }

    #[test]
    fn sub_soft_vs_hard() {
        let soft = expand_src(Target::fc4(), "sub r2\n").unwrap();
        assert_eq!(insn_count(&soft), 5);
        let hard = expand_src(
            Target::xacc(FeatureSet::only(Feature::AddWithCarry)),
            "sub r2\n",
        )
        .unwrap();
        assert_eq!(insn_count(&hard), 1);
    }

    #[test]
    fn adc_requires_feature() {
        assert!(expand_src(Target::fc4(), "adc r2\n").is_err());
        assert!(expand_src(
            Target::xacc(FeatureSet::only(Feature::AddWithCarry)),
            "adc r2\n"
        )
        .is_ok());
    }

    #[test]
    fn scratch_pseudos_unavailable_on_fc8() {
        assert!(expand_src(Target::fc8(), "sub r2\n").is_err());
        assert!(expand_src(Target::fc8(), "lsr1\n").is_err());
        assert!(expand_src(Target::fc8(), "xch r2\n").is_err());
    }

    #[test]
    fn xch_soft_is_six_instructions() {
        let soft = expand_src(Target::fc4(), "xch r2\n").unwrap();
        assert_eq!(insn_count(&soft), 6);
        let hard = expand_src(
            Target::xacc(FeatureSet::only(Feature::AccExchange)),
            "xch r2\n",
        )
        .unwrap();
        assert_eq!(insn_count(&hard), 1);
    }

    #[test]
    fn and_or_expansions() {
        assert_eq!(
            insn_count(&expand_src(Target::fc4(), "and r2\n").unwrap()),
            2
        );
        assert_eq!(
            insn_count(&expand_src(Target::fc4(), "andi 5\n").unwrap()),
            2
        );
        assert_eq!(
            insn_count(&expand_src(Target::fc4(), "or r2\n").unwrap()),
            5
        );
        assert_eq!(
            insn_count(&expand_src(Target::fc4(), "ori 5\n").unwrap()),
            2
        );
        let hard = expand_src(
            Target::xacc(FeatureSet::only(Feature::AddWithCarry)),
            "or r2\n",
        )
        .unwrap();
        assert_eq!(insn_count(&hard), 1);
    }

    #[test]
    fn call_ret_gated() {
        let t = Target::xacc(FeatureSet::only(Feature::Subroutines));
        assert!(expand_src(t, "call f\nf: ret\n").is_ok());
        assert!(expand_src(Target::fc4(), "ret\n").is_err());
    }

    #[test]
    fn pjmp_emits_mmu_sequence() {
        let items = expand_src(Target::fc4(), "pjmp 2, entry\nentry: halt\n").unwrap();
        // 3 × (ldi=2 + store) + jmp(2) + halt(2) = 13
        assert_eq!(insn_count(&items), 13);
    }

    #[test]
    fn xacc_immediates_are_single_instructions() {
        // the re-encoded extended ISA keeps FlexiCore4's 4-bit immediates
        let t = Target::xacc(FeatureSet::BASE);
        for src in [
            "addi 7\n",
            "addi -8\n",
            "addi 3\n",
            "xori 0x8\n",
            "nandi 0\n",
        ] {
            assert_eq!(insn_count(&expand_src(t, src).unwrap()), 1, "{src}");
        }
        assert!(expand_src(t, "addi 16\n").is_err());
    }

    #[test]
    fn ls_basic_and_imm_forms() {
        let t = Target::xls_revised();
        let items = expand_src(t, "add r2, r3\naddi r2, -3\nmovi r4, 7\nneg r5\n").unwrap();
        assert_eq!(insn_count(&items), 4);
    }

    #[test]
    fn ls_feature_gating() {
        let t = Target::xls(FeatureSet::BASE);
        assert!(expand_src(t, "adc r2, r3\n").is_err());
        assert!(expand_src(t, "asr r2, r3\n").is_err());
        assert!(expand_src(t, "add r2, r3\n").is_ok());
    }

    #[test]
    fn ls_halt_and_jmp() {
        let t = Target::xls_revised();
        assert_eq!(insn_count(&expand_src(t, "halt\n").unwrap()), 2);
        let base = Target::xls(FeatureSet::BASE);
        assert_eq!(
            insn_count(&expand_src(base, "jmp x\nx: halt\n").unwrap()),
            2 + 2
        );
    }

    #[test]
    fn unknown_mnemonics_rejected() {
        assert!(expand_src(Target::fc4(), "frobnicate r1\n").is_err());
        assert!(expand_src(Target::xls_revised(), "load r0\n").is_err());
    }

    #[test]
    fn branch_conditions() {
        let revised = Target::xacc(FeatureSet::revised());
        assert!(expand_src(revised, "br.z x\nx: halt\n").is_ok());
        assert!(expand_src(Target::fc4(), "br.z x\nx: halt\n").is_err());
        assert!(expand_src(Target::fc4(), "br x\nx: halt\n").is_ok());
    }
}

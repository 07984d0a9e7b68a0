//! Post-expansion intermediate representation.
//!
//! After pseudo-instruction expansion every instruction is a concrete
//! machine instruction of the target dialect; control transfers may still
//! carry an unresolved label, patched during layout.
//!
//! Labels are [`LabelId`]s of one [`Symbols`] table. The parser interns
//! each source label from its (case-folded) name; expansion adds labels of
//! its own that have an id and a display name but no entry in the name
//! index, so no source can define or reference them.

use std::borrow::Cow;
use std::collections::BTreeMap;

use flexicore::isa::acc::{self, DialectInsn};
use flexicore::isa::xls;

/// A label: an index into [`Symbols`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelId(u32);

impl LabelId {
    /// The label's index in its table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a label is named in error messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelName<'a> {
    /// A source label, case-folded.
    Source(Cow<'a, str>),
    /// A label expansion made: `@{tag}`, then `_{n}` for a numbered one.
    Generated {
        /// What the label marks (`halt`, `ugt_le`, `shared_lsr1`, …).
        tag: &'static str,
        /// The expansion's running count of numbered labels; 0 for one
        /// that is made at most once per program.
        n: u32,
    },
}

impl core::fmt::Display for LabelName<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LabelName::Source(name) => f.write_str(name),
            LabelName::Generated { tag, n: 0 } => write!(f, "@{tag}"),
            LabelName::Generated { tag, n } => write!(f, "@{tag}_{n}"),
        }
    }
}

/// Every label of one assembly.
#[derive(Debug, Clone, Default)]
pub struct Symbols<'a> {
    names: Vec<LabelName<'a>>,
    index: BTreeMap<Cow<'a, str>, LabelId>,
    generated: u32,
}

impl<'a> Symbols<'a> {
    /// The id of source label `name`, made on first sight.
    pub fn intern(&mut self, name: Cow<'a, str>) -> LabelId {
        if let Some(&id) = self.index.get(&*name) {
            return id;
        }
        let id = self.push(LabelName::Source(name.clone()));
        self.index.insert(name, id);
        id
    }

    /// A new numbered label `@{tag}_{n}`, where `n` counts the numbered
    /// labels made so far, from 1.
    pub fn fresh(&mut self, tag: &'static str) -> LabelId {
        self.generated += 1;
        let n = self.generated;
        self.push(LabelName::Generated { tag, n })
    }

    /// A new label `@{tag}`, for one made at most once per program.
    pub fn once(&mut self, tag: &'static str) -> LabelId {
        self.push(LabelName::Generated { tag, n: 0 })
    }

    fn push(&mut self, name: LabelName<'a>) -> LabelId {
        let id = LabelId(self.names.len() as u32);
        self.names.push(name);
        id
    }

    /// The name of `id`.
    #[must_use]
    pub fn name(&self, id: LabelId) -> &LabelName<'a> {
        &self.names[id.index()]
    }

    /// Number of labels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether there are none.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A dialect-tagged machine instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineInsn {
    /// Accumulator instruction (FlexiCore4, FlexiCore8 or extended
    /// accumulator), in its dialect's encoding.
    Acc(DialectInsn),
    /// Load-store instruction.
    Xls(xls::Instruction),
}

impl MachineInsn {
    /// Encoded size in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        match self {
            MachineInsn::Acc(i) => i.len(),
            MachineInsn::Xls(i) => i.len(),
        }
    }

    /// Append the encoding to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            MachineInsn::Acc(i) => {
                i.encode_into(buf);
            }
            MachineInsn::Xls(i) => {
                i.encode_into(buf);
            }
        }
    }

    /// Return a copy with the control-transfer target patched to `target`.
    ///
    /// For non-control instructions this returns `self` unchanged (layout
    /// never calls it for those).
    #[must_use]
    pub fn with_target(self, target: u8) -> MachineInsn {
        use acc::Instruction as A;
        match self {
            MachineInsn::Acc(mut i) => {
                i.insn = match i.insn {
                    A::Br { cond, .. } => A::Br { cond, target },
                    A::Call { .. } => A::Call { target },
                    other => other,
                };
                MachineInsn::Acc(i)
            }
            MachineInsn::Xls(xls::Instruction::Br { cond, .. }) => {
                MachineInsn::Xls(xls::Instruction::Br { cond, target })
            }
            MachineInsn::Xls(xls::Instruction::Call { .. }) => {
                MachineInsn::Xls(xls::Instruction::Call { target })
            }
            other => other,
        }
    }

    /// Whether this instruction takes a branch-target field.
    #[must_use]
    pub fn is_control_transfer(&self) -> bool {
        use acc::Instruction as A;
        matches!(
            self,
            MachineInsn::Acc(DialectInsn {
                insn: A::Br { .. } | A::Call { .. },
                ..
            }) | MachineInsn::Xls(xls::Instruction::Br { .. } | xls::Instruction::Call { .. })
        )
    }
}

impl core::fmt::Display for MachineInsn {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MachineInsn::Acc(i) => i.fmt(f),
            MachineInsn::Xls(i) => i.fmt(f),
        }
    }
}

/// One expanded item awaiting layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// A machine instruction, optionally needing its target patched to the
    /// address of `label`.
    Insn {
        /// The (possibly placeholder-targeted) instruction.
        insn: MachineInsn,
        /// Label whose address should be patched in.
        label: Option<LabelId>,
        /// Allow the label to live in a different MMU page (used by the
        /// final branch of a `pjmp` expansion, which executes after the
        /// page register has committed).
        cross_page: bool,
        /// Source line it came from.
        line: usize,
    },
    /// A label definition.
    Label {
        /// The label.
        id: LabelId,
        /// Source line.
        line: usize,
    },
    /// Start of a new MMU page.
    PageBreak {
        /// The page number.
        page: u8,
        /// Source line.
        line: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexicore::isa::acc::{Cond, Instruction};
    use flexicore::isa::Dialect;

    fn fab(insn: Instruction) -> MachineInsn {
        MachineInsn::Acc(insn.in_dialect(Dialect::Fc4))
    }

    fn xacc(insn: Instruction) -> MachineInsn {
        MachineInsn::Acc(insn.in_dialect(Dialect::ExtendedAcc))
    }

    #[test]
    fn byte_lengths() {
        assert_eq!(fab(Instruction::AddImm { imm: 1 }).byte_len(), 1);
        assert_eq!(fab(Instruction::LoadByte { imm: 1 }).byte_len(), 2);
        assert_eq!(
            xacc(Instruction::Br {
                cond: Cond::N,
                target: 0
            })
            .byte_len(),
            2
        );
        assert_eq!(MachineInsn::Xls(xls::Instruction::Ret).byte_len(), 2);
    }

    #[test]
    fn target_patching() {
        let b = fab(Instruction::Br {
            cond: Cond::N,
            target: 0,
        });
        assert_eq!(
            b.with_target(9),
            fab(Instruction::Br {
                cond: Cond::N,
                target: 9
            })
        );
        let c = xacc(Instruction::Call { target: 0 });
        assert_eq!(c.with_target(5), xacc(Instruction::Call { target: 5 }));
        let a = fab(Instruction::AddImm { imm: 2 });
        assert_eq!(a.with_target(5), a);
        assert!(b.is_control_transfer());
        assert!(!a.is_control_transfer());
    }

    #[test]
    fn source_labels_intern_once_and_generated_ones_never_match() {
        let mut symbols = Symbols::default();
        let a = symbols.intern(Cow::Borrowed("loop"));
        assert_eq!(symbols.intern(Cow::Owned("loop".to_string())), a);
        let halt = symbols.fresh("halt");
        assert_eq!(symbols.name(halt).to_string(), "@halt_1");
        // a source label spelled like a generated one is a different label
        let spelled = symbols.intern(Cow::Borrowed("@halt_1"));
        assert_ne!(spelled, halt);
        let shared = symbols.once("shared_lsr1");
        assert_eq!(symbols.name(shared).to_string(), "@shared_lsr1");
        let le = symbols.fresh("ugt_le");
        assert_eq!(symbols.name(le).to_string(), "@ugt_le_2");
        assert_eq!(symbols.len(), 5);
    }

    #[test]
    fn encoding_appends() {
        let mut buf = Vec::new();
        fab(Instruction::Load { m: 2 }).encode_into(&mut buf);
        fab(Instruction::LoadByte { imm: 7 }).encode_into(&mut buf);
        assert_eq!(buf.len(), 3);
    }
}

//! Post-expansion intermediate representation.
//!
//! After pseudo-instruction expansion every instruction is a concrete
//! machine instruction of the target dialect; control transfers may still
//! carry an unresolved label, patched during layout.

use flexicore::isa::{fc4, xacc, xls};

/// A dialect-tagged machine instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineInsn {
    /// Fabricated-core instruction (FlexiCore4 or FlexiCore8).
    Fab(fc4::Instruction),
    /// Extended-accumulator instruction.
    Xacc(xacc::Instruction),
    /// Load-store instruction.
    Xls(xls::Instruction),
}

impl MachineInsn {
    /// Encoded size in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        match self {
            MachineInsn::Fab(i) => i.len(),
            MachineInsn::Xacc(i) => i.len(),
            MachineInsn::Xls(i) => i.len(),
        }
    }

    /// Append the encoding to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            MachineInsn::Fab(i) => {
                i.encode_into(buf);
            }
            MachineInsn::Xacc(i) => {
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
        match self {
            MachineInsn::Fab(fc4::Instruction::Branch { .. }) => {
                MachineInsn::Fab(fc4::Instruction::Branch { target })
            }
            MachineInsn::Xacc(xacc::Instruction::Br { cond, .. }) => {
                MachineInsn::Xacc(xacc::Instruction::Br { cond, target })
            }
            MachineInsn::Xacc(xacc::Instruction::Call { .. }) => {
                MachineInsn::Xacc(xacc::Instruction::Call { target })
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
        matches!(
            self,
            MachineInsn::Fab(fc4::Instruction::Branch { .. })
                | MachineInsn::Xacc(xacc::Instruction::Br { .. })
                | MachineInsn::Xacc(xacc::Instruction::Call { .. })
                | MachineInsn::Xls(xls::Instruction::Br { .. })
                | MachineInsn::Xls(xls::Instruction::Call { .. })
        )
    }
}

impl core::fmt::Display for MachineInsn {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MachineInsn::Fab(i) => i.fmt(f),
            MachineInsn::Xacc(i) => i.fmt(f),
            MachineInsn::Xls(i) => i.fmt(f),
        }
    }
}

/// One expanded item awaiting layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A machine instruction, optionally needing its target patched to the
    /// address of `label`.
    Insn {
        /// The (possibly placeholder-targeted) instruction.
        insn: MachineInsn,
        /// Label whose address should be patched in.
        label: Option<String>,
        /// Allow the label to live in a different MMU page (used by the
        /// final branch of a `pjmp` expansion, which executes after the
        /// page register has committed).
        cross_page: bool,
        /// Source line it came from.
        line: usize,
    },
    /// A label definition.
    Label {
        /// The label name.
        name: String,
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
    use flexicore::isa::xacc::Cond;

    #[test]
    fn byte_lengths() {
        assert_eq!(
            MachineInsn::Fab(fc4::Instruction::AddImm { imm: 1 }).byte_len(),
            1
        );
        assert_eq!(
            MachineInsn::Fab(fc4::Instruction::LoadByte { imm: 1 }).byte_len(),
            2
        );
        assert_eq!(
            MachineInsn::Xacc(xacc::Instruction::Br {
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
        let b = MachineInsn::Fab(fc4::Instruction::Branch { target: 0 });
        assert_eq!(
            b.with_target(9),
            MachineInsn::Fab(fc4::Instruction::Branch { target: 9 })
        );
        let c = MachineInsn::Xacc(xacc::Instruction::Call { target: 0 });
        assert_eq!(
            c.with_target(5),
            MachineInsn::Xacc(xacc::Instruction::Call { target: 5 })
        );
        let a = MachineInsn::Fab(fc4::Instruction::AddImm { imm: 2 });
        assert_eq!(a.with_target(5), a);
        assert!(b.is_control_transfer());
        assert!(!a.is_control_transfer());
    }

    #[test]
    fn encoding_appends() {
        let mut buf = Vec::new();
        MachineInsn::Fab(fc4::Instruction::Load { addr: 2 }).encode_into(&mut buf);
        MachineInsn::Fab(fc4::Instruction::LoadByte { imm: 7 }).encode_into(&mut buf);
        assert_eq!(buf.len(), 3);
    }
}

//! Byte-for-byte pins of the assembler's output. Every benchmark kernel
//! is assembled on every target that holds it, and one FNV-1a digest
//! per target folds the image bytes, `static_instructions`,
//! `code_bytes` and `listing_text()` (or, for a kernel the target
//! cannot hold, the error's `Display` string). A pinned corpus of
//! malformed sources holds every error kind to its exact message.
//!
//! A change to the lexer, parser, expansion, layout or listing that
//! moves a single byte shows up here. Bump a digest only together with
//! a note in DESIGN.md saying why the output legitimately moved.

use flexasm::{Assembler, Target};
use flexicore::isa::features::{Feature, FeatureSet};
use flexkernels::Kernel;
use flexshard::{fnv1a, FNV_OFFSET};

fn fold_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    hash = fnv1a(hash, bytes.len() as u64);
    for &b in bytes {
        hash = fnv1a(hash, u64::from(b));
    }
    hash
}

/// FNV-1a fold of every supported kernel's assembly, in `Kernel::ALL`
/// order.
fn suite_digest(target: Target) -> u64 {
    let mut hash = FNV_OFFSET;
    for kernel in Kernel::ALL {
        if !kernel.supports(target.dialect) {
            continue;
        }
        match kernel.assemble(target) {
            Ok(out) => {
                hash = fnv1a(hash, 0);
                hash = fold_bytes(hash, out.program().as_bytes());
                hash = fnv1a(hash, out.static_instructions() as u64);
                hash = fnv1a(hash, out.code_bytes() as u64);
                hash = fold_bytes(hash, out.listing_text().as_bytes());
            }
            Err(e) => {
                hash = fnv1a(hash, 1);
                hash = fold_bytes(hash, e.to_string().as_bytes());
            }
        }
    }
    hash
}

fn all_features() -> FeatureSet {
    Feature::ALL
        .iter()
        .fold(FeatureSet::BASE, |set, &f| set.with(f))
}

#[test]
fn kernel_suite_assemblies_are_pinned() {
    let mut drifted = Vec::new();
    for (name, target, expected) in [
        ("fc4", Target::fc4(), 0x07c9_89b1_cd9e_df8du64),
        ("fc8", Target::fc8(), 0x7aba_d4a2_144c_0e13),
        (
            "xacc revised",
            Target::xacc_revised(),
            0x1001_fc88_bf3c_8fd4,
        ),
        (
            "xacc all",
            Target::xacc(all_features()),
            0x1001_fc88_bf3c_8fd4,
        ),
        (
            "xls base",
            Target::xls(FeatureSet::BASE),
            0xe98d_8894_6db5_fead,
        ),
        ("xls revised", Target::xls_revised(), 0xc459_3e8e_ae24_e360),
    ] {
        let got = suite_digest(target);
        if got != expected {
            drifted.push(format!("{name}: pin {got:#018x}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "suite digests drifted:\n{}",
        drifted.join("\n")
    );
}

/// `(target, source, exact error message)`, at least one per
/// `AsmErrorKind`, through every phase: lexing, parsing, expansion on
/// each dialect, and layout.
fn error_corpus() -> Vec<(Target, String, &'static str)> {
    let fc4 = Target::fc4();
    let fc8 = Target::fc8();
    let xacc = Target::xacc_revised();
    let xacc_base = Target::xacc(FeatureSet::BASE);
    let xls = Target::xls_revised();
    let xls_base = Target::xls(FeatureSet::BASE);
    let nops = |n: usize| "nop\n".repeat(n);
    let mut corpus: Vec<(Target, String, &'static str)> = [
        // ---- lexing ----
        (fc4, "addi 12abc\n", "line 1: unrecognised token `12abc`"),
        (fc4, ": load r0\n", "line 1: unrecognised token `:`"),
        (fc4, "lo$op: nop\n", "line 1: unrecognised token `lo$op`"),
        (fc4, "addi -x\n", "line 1: unrecognised token `-x`"),
        (fc4, "addi -\n", "line 1: unrecognised token `-`"),
        (fc4, ".pa$ge 1\n", "line 1: unrecognised token `pa$ge`"),
        (fc4, "x: y: nop\n", "line 1: unrecognised token `y:`"),
        (fc4, "load r0 ; fine\n\n  nop\n  x! r1\n", "line 4: unrecognised token `x!`"),
        (fc4, "9lives: nop\n", "line 1: unrecognised token `9lives`"),
        // a lex error anywhere wins over an earlier parse error
        (fc4, ".page 1 2\nnop\naddi 3q\n", "line 3: unrecognised token `3q`"),
        // ---- parsing ----
        (fc4, ".page\n", "line 1: `.page` takes one integer argument"),
        (fc4, ".page x\n", "line 1: `.page` takes one integer argument"),
        (fc4, ".page 1 2\n", "line 1: unexpected tokens after `.page n`"),
        (fc4, ".PAGE 16\n", "line 1: page number value 16 is outside the allowed range 0..=15"),
        (fc4, ".page -1\n", "line 1: page number value -1 is outside the allowed range 0..=15"),
        (fc4, ".org 3\n", "line 1: unknown directive `.org`"),
        (fc4, "load .page\n", "line 1: directive `.page` cannot be an operand"),
        (fc4, "r3 load\n", "line 1: expected a mnemonic or directive, found Reg(3)"),
        (fc4, "5 load\n", "line 1: expected a mnemonic or directive, found Int(5)"),
        (fc4, "-0x3 load\n", "line 1: expected a mnemonic or directive, found Int(-3)"),
        // a parse error anywhere wins over an earlier expansion error
        (fc4, "frobnicate\nnop\n.page 99\n", "line 3: page number value 99 is outside the allowed range 0..=15"),
        // ---- accumulator expansion ----
        (fc4, "frobnicate r1\n", "line 1: unknown mnemonic `frobnicate` for accumulator dialects"),
        (fc4, "LOAD.Z r0\n", "line 1: condition suffix is only valid on `br`, not `load`"),
        (fc4, "br.q x\nx: nop\n", "line 1: unknown branch condition `.q`"),
        (fc4, "load 3\n", "line 1: `load` takes one memory operand (rN)"),
        (fc4, "load r8\n", "line 1: `load` memory address value 8 is outside the allowed range 0..=7"),
        (fc8, "load r4\n", "line 1: `load` memory address value 4 is outside the allowed range 0..=3"),
        (fc4, "addi r1\n", "line 1: `addi` takes one immediate operand"),
        (fc4, "addi 16\n", "line 1: `addi` immediate value 16 is outside the allowed range -8..=15"),
        (fc4, "xori -9\n", "line 1: `xori` immediate value -9 is outside the allowed range -8..=15"),
        (fc4, "jmp 3\n", "line 1: `jmp` takes one label operand"),
        (fc4, "br r2\n", "line 1: `br` takes a label or an absolute page-local target"),
        (fc4, "br 128\n", "line 1: `br` absolute target value 128 is outside the allowed range 0..=127"),
        (fc4, "br -1\n", "line 1: `br` absolute target value -1 is outside the allowed range 0..=127"),
        (fc4, "br.z x\nx: nop\n", "line 1: `br` is not available on this target: condition masks other than `.n` need the BranchFlags extension"),
        (fc4, "halt r0\n", "line 1: `halt` takes no operands"),
        (fc4, "nop 1\n", "line 1: `nop` takes no operands"),
        (fc4, "neg r1\n", "line 1: `neg` takes no operands"),
        (fc4, "ldb 3\n", "line 1: `ldb` is not available on this target: LOAD BYTE exists only on FlexiCore8"),
        (fc4, "ldi 16\n", "line 1: `ldi` immediate value 16 is outside the allowed range -8..=15"),
        (fc8, "ldi 300\n", "line 1: `ldi` immediate value 300 is outside the allowed range -128..=255"),
        (fc4, "adc r2\n", "line 1: `adc` is not available on this target: needs the ADC extension (no architected carry otherwise)"),
        (fc4, "adci 1\n", "line 1: `adci` is not available on this target: needs the ADC extension (no architected carry otherwise)"),
        (xacc, "adci 8\n", "line 1: `adci` immediate value 8 is outside the allowed range -8..=7"),
        (fc8, "sub r2\n", "line 1: `sub` is not available on this target: the software expansion needs scratch registers r6/r7, which FlexiCore8's four-word memory does not have"),
        (fc8, "lsr1\n", "line 1: `lsr1` is not available on this target: the software expansion needs scratch registers r6/r7, which FlexiCore8's four-word memory does not have"),
        (fc8, "xch r2\n", "line 1: `xch` is not available on this target: the software expansion needs scratch registers r6/r7, which FlexiCore8's four-word memory does not have"),
        (fc8, "or r2\n", "line 1: `or` is not available on this target: the software expansion needs scratch registers r6/r7, which FlexiCore8's four-word memory does not have"),
        (fc4, "lsri 8\n", "line 1: `lsri` shift amount value 8 is outside the allowed range 0..=7"),
        (fc4, "mull r5\n", "line 1: `mull` operand (multiplier reads r0..r3) value 5 is outside the allowed range 0..=3"),
        (fc4, "mull r1\n", "line 1: `mull` is not available on this target: needs the hardware multiplier extension"),
        (fc4, "call f\nf: nop\n", "line 1: `call` is not available on this target: needs the Subroutines extension (return-address register)"),
        (fc4, "ret\n", "line 1: `ret` is not available on this target: needs the Subroutines extension (return-address register)"),
        (xacc, "call 200\n", "line 1: `call` absolute target value 200 is outside the allowed range 0..=127"),
        (fc4, "pjmp 16, x\nx: nop\n", "line 1: `pjmp` page value 16 is outside the allowed range 0..=15"),
        (fc4, "pjmp x\nx: nop\n", "line 1: `pjmp` takes a page number and a label: `pjmp 2, entry`"),
        (fc4, "brltu8 r1, r2, 3, 4\n", "line 1: `brltu8` takes two memory operands, two nibble constants and a label: `brltu8 r4, r5, 0xB, 0x5, below`"),
        (fc4, "brltu8 r6, r2, 3, 4, x\nx: nop\n", "line 1: `brltu8` operands must avoid the scratch registers r6/r7"),
        (fc4, "brgtu r1, x\nx: nop\n", "line 1: `brgtu` takes two memory operands and a label: `brgtu r2, r3, big`"),
        (fc8, "brgtu r1, r2, x\nx: nop\n", "line 1: `brgtu` is not available on this target: the software expansion needs scratch registers r6/r7, which FlexiCore8's four-word memory does not have"),
        (xacc_base, "swb r1\n", "line 1: `swb` is not available on this target: needs the ADC extension (no architected carry otherwise)"),
        // ---- load-store expansion ----
        (xls, "load r0\n", "line 1: unknown mnemonic `load` for the load-store dialect"),
        (xls, "add.z r1, r2\n", "line 1: condition suffix is only valid on `br`, not `add`"),
        (xls, "add r8, r1\n", "line 1: `add` register value 8 is outside the allowed range 0..=7"),
        (xls, "add r1\n", "line 1: `add` takes a destination register and a source"),
        (xls, "addi r1, r2\n", "line 1: `addi` expects an immediate second operand"),
        (xls, "addi r1, 8\n", "line 1: `addi` immediate value 8 is outside the allowed range -8..=7"),
        (xls, "neg\n", "line 1: `neg` takes one register"),
        (xls, "neg 3\n", "line 1: `neg` expects a register here"),
        (xls, "br 256\n", "line 1: `br` absolute target value 256 is outside the allowed range 0..=255"),
        (xls_base, "adc r1, r2\n", "line 1: `adc` is not available on this target: needs the ADC extension on the load-store target"),
        (xls_base, "mull r1, r2\n", "line 1: `mull` is not available on this target: needs the Multiplication extension on the load-store target"),
        (xls_base, "br.z x\nx: nop\n", "line 1: `br` is not available on this target: condition masks other than `.n` need the BranchFlags extension"),
        (xls_base, "call x\nx: nop\n", "line 1: `call` is not available on this target: needs the Subroutines extension"),
        (xls_base, "ret\n", "line 1: `ret` is not available on this target: needs the Subroutines extension"),
        (xls, "jmp r1\n", "line 1: `jmp` takes one label operand"),
        // ---- layout ----
        (fc4, "br nowhere\n", "line 1: undefined label `nowhere`"),
        (xls, "nop\njmp nowhere\n", "line 2: undefined label `nowhere`"),
        (fc4, "x: nop\nx: nop\n", "line 2: duplicate label `x`"),
        (fc4, "br far\n.page 1\nfar: halt\n", "line 1: branch to `far` crosses from page 0 to page 1; use `pjmp` for cross-page transfers"),
        (xls, "nop\n.page 2\nbr back\n.page 0\nback: nop\n", "line 4: page 0 used more than once"),
        (fc4, ".page 1\nnop\n.page 1\nnop\n", "line 3: page 1 used more than once"),
        (fc4, "nop\n.page 0\nnop\n", "line 2: page 0 used more than once"),
        // a duplicate label is found in layout order, before any
        // undefined one
        (fc4, "br nowhere\nx: nop\nx: nop\n", "line 3: duplicate label `x`"),
    ]
    .into_iter()
    .map(|(t, s, e)| (t, s.to_string(), e))
    .collect();
    corpus.push((
        fc4,
        nops(129),
        "line 129: page 0 needs 129 bytes but pages are 128 bytes",
    ));
    corpus.push((
        xls,
        nops(129),
        "line 129: page 0 needs 258 bytes but pages are 128 bytes",
    ));
    corpus.push((
        fc4,
        format!(".page 3\n{}", nops(130)),
        "line 130: page 3 needs 129 bytes but pages are 128 bytes",
    ));
    // a generated label at the very end of a full page lands on the
    // next one, and the error names it
    corpus.push((
        fc4,
        format!("{}brgtu r1, r2, x\n.page 1\nx: nop\n", nops(110)),
        "line 111: branch to `@ugt_le_3` crosses from page 0 to page 1; use `pjmp` for cross-page transfers",
    ));
    corpus
}

#[test]
fn error_messages_are_pinned() {
    let mut drifted = Vec::new();
    for (target, source, expected) in error_corpus() {
        let got = match Assembler::new(target).assemble(&source) {
            Ok(_) => "assembled".to_string(),
            Err(e) => e.to_string(),
        };
        if got != expected {
            drifted.push(format!("{source:?} on {target:?}:\n  {got:?}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "error messages drifted:\n{}",
        drifted.join("\n")
    );
}

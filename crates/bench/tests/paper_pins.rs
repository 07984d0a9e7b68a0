//! Pins every paper report: each of the 21 `flexbench` bins, which
//! reproduce Tables 1–7, Figures 6–13 and the §6 design-space
//! exploration, runs once and one FNV-1a digest of its stdout must
//! match.
//!
//! Every bin is seeded, so its output is the same on every run and in
//! debug and release builds alike. A changed number in any table or
//! figure therefore fails here, not only a panic. Bump a pin only
//! together with a note saying why the report legitimately moved.

use std::process::Command;

use flexshard::{fnv1a, FNV_OFFSET};

/// Run the bin at `path` and digest its stdout.
fn report_digest(path: &str) -> u64 {
    let out = Command::new(path)
        .output()
        .unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(out.status.success(), "{path} exited {}", out.status);
    out.stdout
        .iter()
        .fold(FNV_OFFSET, |hash, &byte| fnv1a(hash, byte.into()))
}

macro_rules! pins {
    ($($bin:ident => $digest:expr,)*) => {
        $(
            #[test]
            fn $bin() {
                let digest = report_digest(env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
                assert_eq!(digest, $digest, "{} report drifted: {digest:#018x}", stringify!($bin));
            }
        )*
    };
}

pins! {
    table1 => 0x09D6_29BD_8826_BFD9,
    table2 => 0x4A8D_18D3_F73F_2882,
    table3 => 0xB7ED_CDA1_66C5_B33E,
    table4 => 0x86BF_3412_06A9_0D9C,
    table5 => 0x3E91_94D8_9318_6776,
    table6 => 0xEB91_B71C_C664_2E4A,
    table7 => 0xC44F_667A_0C4B_AB28,
    fig6 => 0x214C_9098_CB8A_6070,
    fig7 => 0x76C3_38A2_0785_BD69,
    fig8 => 0xB797_2261_8E5D_D412,
    fig9 => 0xBA91_15F5_83AC_EF37,
    fig10 => 0x8DDB_F6DC_68F5_EEAE,
    fig11 => 0x77A7_4B3E_B71B_4EF5,
    fig12 => 0x2174_2C43_3F7A_25CD,
    fig13 => 0x6197_E75A_E26A_970F,
    ablation => 0xCC4F_C91F_5475_8B5D,
    cost_analysis => 0xC093_015F_E769_DDA9,
    dse_summary => 0x94B3_332D_8F83_900F,
    dse_sweep => 0x77FC_E4BF_3E0D_8431,
    lots => 0x1BFD_13C8_4C69_85D6,
    resilience => 0x585B_9A90_737B_DF69,
}

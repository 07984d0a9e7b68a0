//! Table 7: comparison of FlexiCore4 to other flexible ICs.
//!
//! The literature rows are constants from the paper; the FlexiCore4 row is
//! regenerated from this reproduction's netlist, wafer simulation, and
//! benchmark runs.

use flexfab::wafer_run::{CoreDesign, WaferExperiment};
use flexgate::report::Report;
use flexicore::isa::features::FeatureSet;

struct Row {
    name: &'static str,
    devices: &'static str,
    area_mm2: &'static str,
    power_mw: &'static str,
    clock_khz: &'static str,
    programmability: &'static str,
    yield_pct: &'static str,
    datapath: &'static str,
}

const LITERATURE: &[Row] = &[
    Row {
        name: "PlasticARM",
        devices: "56,340",
        area_mm2: "59.2",
        power_mw: "21",
        clock_khz: "29",
        programmability: "mask ROM at tape-out",
        yield_pct: "n/r",
        datapath: "32",
    },
    Row {
        name: "Sharp Z80",
        devices: "13,000",
        area_mm2: "169",
        power_mw: "15",
        clock_khz: "3000",
        programmability: "field reprogrammable",
        yield_pct: "n/r",
        datapath: "8",
    },
    Row {
        name: "UHF RFCPU",
        devices: "133,000",
        area_mm2: "93.45",
        power_mw: "0.81",
        clock_khz: "1120",
        programmability: "mask ROM at tape-out",
        yield_pct: "n/r",
        datapath: "8",
    },
    Row {
        name: "8bit ALU",
        devices: "3,504",
        area_mm2: "225.6",
        power_mw: "n/r",
        clock_khz: "2.1",
        programmability: "printed PROM foil",
        yield_pct: "n/r",
        datapath: "8",
    },
    Row {
        name: "MLIC",
        devices: "3,132",
        area_mm2: "5.6",
        power_mw: "7.2",
        clock_khz: "104",
        programmability: "none (fixed ASIC)",
        yield_pct: "n/r",
        datapath: "5",
    },
    Row {
        name: "Intel 4004",
        devices: "2,250",
        area_mm2: "12",
        power_mw: "1000",
        clock_khz: "1000",
        programmability: "field reprogrammable",
        yield_pct: "commercial",
        datapath: "4",
    },
];

fn main() {
    flexbench::header("Table 7 — FlexiCore4 vs other flexible ICs");
    let netlist = flexrtl::build(4, FeatureSet::BASE);
    let report = Report::of(&netlist);
    let run = WaferExperiment::published(CoreDesign::FlexiCore4)
        .run(4.5, 20_000)
        .expect("wafer test failed");
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>10} {:>8} {:>9}  programmability",
        "design", "devices", "mm²", "mW", "clk kHz", "yield", "datapath"
    );
    println!(
        "{:<12} {:>9} {:>9.2} {:>9.2} {:>10} {:>7.0}% {:>9}  field reprogrammable",
        "FlexiCore4*",
        report.total.devices,
        report.total.area_mm2(),
        run.current_stats().mean_ma * 4.5,
        12.5,
        run.yield_inclusion() * 100.0,
        4,
    );
    println!("  (paper's row: 2,104 devices, 5.6 mm², 4.05 mW, 12.5 kHz, 81% yield)");
    for r in LITERATURE {
        println!(
            "{:<12} {:>9} {:>9} {:>9} {:>10} {:>8} {:>9}  {}",
            r.name,
            r.devices,
            r.area_mm2,
            r.power_mw,
            r.clock_khz,
            r.yield_pct,
            r.datapath,
            r.programmability
        );
    }
    println!("\n* regenerated by this reproduction; literature rows quoted from the paper");
}

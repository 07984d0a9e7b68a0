//! Physical-summary helper: prints every fabricated core's cell/device
//! counts, area, current, critical path and fmax at both voltages —
//! the numbers the Table 2–4 binaries build on.

use flexgate::report::Report;
use flexgate::timing::{analyze, DelayModel};
use flexicore::isa::features::FeatureSet;

fn main() {
    for (name, n) in [
        ("FlexiCore4", flexrtl::build(4, FeatureSet::BASE)),
        ("FlexiCore8", flexrtl::build(8, FeatureSet::BASE)),
        ("FlexiCore4+", flexrtl::build(4, FeatureSet::fc4_plus())),
    ] {
        let r = Report::of(&n);
        let t = analyze(&n).unwrap();
        let m = DelayModel::igzo();
        println!(
            "{name:<12} cells={:4} devices={:5} area={:6.1} NAND2 ({:.2} mm2)  I={:.2} mA  P={:.2} mW  path={:5.1}u fmax@4.5={:6.0} Hz fmax@3.0={:6.0} Hz",
            r.total.cells,
            r.total.devices,
            r.total.area(),
            r.total.area_mm2(),
            r.total.static_current_ma(4.5),
            r.total.static_power_mw(4.5),
            t.critical_path_units,
            m.fmax_hz(t.critical_path_units, 4.5, m.vth_nom),
            m.fmax_hz(t.critical_path_units, 3.0, m.vth_nom),
        );
        for module in ["alu", "decoder", "mem", "pc", "acc", "shifter"] {
            let share = r.area_share(module);
            if share > 0.0 {
                print!("  {module}={:.1}%", share * 100.0);
            }
        }
        println!();
    }
}

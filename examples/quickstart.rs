//! Quickstart: assemble a FlexiCore4 program, run it on the functional
//! simulator, and co-simulate it against the gate-level netlist.
//!
//! ```sh
//! cargo run -p flexbench --example quickstart
//! ```

use flexasm::{Assembler, Target};
use flexicore::exec::{AnyCore, Core};
use flexicore::io::{ConstInput, RecordingOutput};
use flexicore::sim::fc4::Fc4Core;
use flexrtl::cosim::cosim;

fn main() {
    // a tiny field program: read the input bus, add 3, emit, halt
    let source = "
        ; FlexiCore4 quickstart: OPORT = IPORT + 3
        load  r0
        addi  3
        store r1
        halt
    ";

    let assembler = Assembler::new(Target::fc4());
    let assembly = assembler.assemble(source).expect("program assembles");
    println!("assembled {} instructions:", assembly.static_instructions());
    print!("{}", assembly.listing_text());

    // run on the architectural simulator
    let mut core = Fc4Core::new(assembly.program().clone());
    let mut input = ConstInput::new(0x6);
    let mut output = RecordingOutput::new();
    let result = core
        .run(&mut input, &mut output, 1_000)
        .expect("program runs");
    println!(
        "\nISA simulation: halted after {} instructions, OPORT = {:#x}",
        result.instructions,
        output.last().expect("one output")
    );

    // prove the gate-level FlexiCore4 does exactly the same, cycle by cycle
    let netlist = flexrtl::build_fc4();
    println!(
        "gate-level FlexiCore4: {} cells, {} devices",
        netlist.cells().len(),
        flexgate::report::Report::of(&netlist).total.devices
    );
    let model = AnyCore::Fc4(Fc4Core::new(assembly.program().clone()));
    let cosim = cosim(&netlist, model, &mut ConstInput::new(0x6), 100);
    assert!(cosim.is_equivalent(), "{:?}", cosim.mismatches);
    println!(
        "co-simulation: RTL matched the ISA model on all {} cycles",
        cosim.cycles
    );
}

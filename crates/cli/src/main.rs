//! The `flexi` binary: see [`flexcli`] for the command set.

fn main() {
    flexcli::main("flexi");
}

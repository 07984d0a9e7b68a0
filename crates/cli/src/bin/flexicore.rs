//! The `flexicore` binary: the same toolbox as `flexi`, under the
//! paper's project name. See [`flexcli`] for the command set.

fn main() {
    flexcli::main("flexicore");
}

//! Errors from the fallible fabrication paths.

use flexgate::netlist::NetlistError;

/// Why fabricating or testing a design failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum FabError {
    /// The design netlist failed integrity validation (combinational
    /// loop, multiply-driven net, …).
    Netlist(NetlistError),
    /// Lot statistics were requested for a lot with zero wafers.
    EmptyLot,
    /// A wafer was to be tested at a supply that is not finite or does
    /// not exceed the TFT threshold, where no die can switch.
    Voltage {
        /// The requested supply, volts.
        volts: f64,
        /// The nominal threshold it must exceed, volts.
        vth: f64,
    },
}

impl core::fmt::Display for FabError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FabError::Netlist(e) => write!(f, "design netlist is malformed: {e}"),
            FabError::EmptyLot => write!(f, "lot has no wafers"),
            FabError::Voltage { volts, vth } => write!(
                f,
                "test voltage {volts} V must be finite and above the {vth} V threshold"
            ),
        }
    }
}

impl std::error::Error for FabError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabError::Netlist(e) => Some(e),
            FabError::EmptyLot | FabError::Voltage { .. } => None,
        }
    }
}

impl From<NetlistError> for FabError {
    fn from(e: NetlistError) -> Self {
        FabError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_chains_the_cause() {
        let e = FabError::from(NetlistError::CombinationalLoop { net: 3 });
        assert!(e.to_string().contains("malformed"));
        let source = std::error::Error::source(&e).expect("cause is chained");
        assert!(source.to_string().contains("loop"));
    }
}

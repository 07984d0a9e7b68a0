//! Assembly targets: dialect + feature configuration.

use flexicore::isa::features::FeatureSet;
use flexicore::isa::Dialect;

/// What the assembler is building for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target {
    /// The ISA dialect.
    pub dialect: Dialect,
    /// Enabled ISA extensions of the DSE dialects. The fabricated
    /// `fc4`/`fc8` dialects have fixed ISAs: their targets carry
    /// [`FeatureSet::BASE`], and [`Target::parse`] rejects a feature list
    /// for them.
    pub features: FeatureSet,
}

impl Target {
    /// The fabricated FlexiCore4.
    #[must_use]
    pub fn fc4() -> Target {
        Target {
            dialect: Dialect::Fc4,
            features: FeatureSet::BASE,
        }
    }

    /// The fabricated FlexiCore8.
    #[must_use]
    pub fn fc8() -> Target {
        Target {
            dialect: Dialect::Fc8,
            features: FeatureSet::BASE,
        }
    }

    /// The extended accumulator dialect with the given features.
    #[must_use]
    pub fn xacc(features: FeatureSet) -> Target {
        Target {
            dialect: Dialect::ExtendedAcc,
            features,
        }
    }

    /// The load-store dialect with the given features.
    #[must_use]
    pub fn xls(features: FeatureSet) -> Target {
        Target {
            dialect: Dialect::LoadStore,
            features,
        }
    }

    /// The paper's revised accumulator ISA (§6.1 conclusion).
    #[must_use]
    pub fn xacc_revised() -> Target {
        Target::xacc(FeatureSet::revised())
    }

    /// The paper's load-store DSE machine with the revised operation set.
    #[must_use]
    pub fn xls_revised() -> Target {
        Target::xls(FeatureSet::revised())
    }

    /// Whether this target's branches can be unconditional in one
    /// instruction.
    #[must_use]
    pub fn has_unconditional_branch(&self) -> bool {
        use flexicore::isa::features::Feature;
        match self.dialect {
            Dialect::Fc4 | Dialect::Fc8 => false,
            Dialect::ExtendedAcc | Dialect::LoadStore => {
                self.features.contains(Feature::BranchFlags)
            }
        }
    }

    /// Resolve a `(dialect, features)` name pair — the form every
    /// session-style entry point (CLI flags, daemon requests) receives —
    /// into a target. `dialect` is one of `fc4`, `fc8`, `xacc`, `xls`;
    /// `features` is empty, `revised`, or a comma-separated list of
    /// `adc`, `shift`, `flags`, `mul`, `xch`, `call`, `2xreg`. The
    /// fabricated dialects have fixed ISAs, so their feature list must be
    /// empty.
    ///
    /// # Errors
    ///
    /// [`TargetParseError`] naming the unknown dialect or feature, or the
    /// feature list handed to a fabricated dialect.
    pub fn parse(dialect: &str, features: &str) -> Result<Target, TargetParseError> {
        use flexicore::isa::features::Feature;
        let set = match features.trim() {
            "" => FeatureSet::BASE,
            "revised" => FeatureSet::revised(),
            list => {
                let mut set = FeatureSet::BASE;
                for item in list.split(',').filter(|s| !s.is_empty()) {
                    let feature = match item.trim() {
                        "adc" => Feature::AddWithCarry,
                        "shift" => Feature::BarrelShifter,
                        "flags" => Feature::BranchFlags,
                        "mul" => Feature::Multiplier,
                        "xch" => Feature::AccExchange,
                        "call" => Feature::Subroutines,
                        "2xreg" => Feature::DoubleRegfile,
                        other => {
                            return Err(TargetParseError(format!(
                                "unknown feature `{other}` (adc, shift, flags, mul, xch, call, 2xreg, revised)"
                            )))
                        }
                    };
                    set = set.with(feature);
                }
                set
            }
        };
        match dialect.trim() {
            fixed @ ("fc4" | "fc8") if !features.trim().is_empty() => {
                Err(TargetParseError(format!(
                    "target `{fixed}` has a fixed ISA and takes no features (got `{}`)",
                    features.trim()
                )))
            }
            "fc4" => Ok(Target::fc4()),
            "fc8" => Ok(Target::fc8()),
            "xacc" => Ok(Target::xacc(set)),
            "xls" => Ok(Target::xls(set)),
            other => Err(TargetParseError(format!(
                "unknown target `{other}` (fc4, fc8, xacc, xls)"
            ))),
        }
    }
}

/// An unknown dialect or feature name handed to [`Target::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetParseError(pub String);

impl core::fmt::Display for TargetParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TargetParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Target::fc4().dialect, Dialect::Fc4);
        assert_eq!(Target::fc8().dialect.mem_words(), 4);
        assert!(Target::xacc_revised().has_unconditional_branch());
        assert!(!Target::fc4().has_unconditional_branch());
        assert!(!Target::xacc(FeatureSet::BASE).has_unconditional_branch());
    }

    #[test]
    fn parse_resolves_dialects_and_features() {
        use flexicore::isa::features::Feature;
        assert_eq!(Target::parse("fc4", "").unwrap(), Target::fc4());
        assert_eq!(Target::parse("fc8", "").unwrap(), Target::fc8());
        assert_eq!(
            Target::parse("xls", "revised").unwrap(),
            Target::xls_revised()
        );
        let t = Target::parse("xacc", "adc, shift").unwrap();
        assert!(t.features.contains(Feature::AddWithCarry));
        assert!(t.features.contains(Feature::BarrelShifter));
        assert!(!t.features.contains(Feature::Multiplier));
        // fixed-ISA dialects reject any feature list
        for features in ["mul", "revised", " , "] {
            let err = Target::parse("fc4", features).unwrap_err();
            assert!(err.to_string().contains("fixed ISA"), "{err}");
            assert!(Target::parse("fc8", features).is_err());
        }
        assert_eq!(Target::parse("fc8", "  ").unwrap(), Target::fc8());
    }

    #[test]
    fn parse_rejects_unknown_names() {
        let err = Target::parse("fc16", "").unwrap_err();
        assert!(err.to_string().contains("fc16"), "{err}");
        let err = Target::parse("xacc", "warp-drive").unwrap_err();
        assert!(err.to_string().contains("warp-drive"), "{err}");
    }
}

//! Tight bounds for the naming problem (Section 3.3, Theorems 4–7).
//!
//! The paper's closing table gives tight bounds for five representative
//! models, across all four complexity measures:
//!
//! | measure | TAS | read+TAS | read+TAS+TAR | TAF | rmw (all) |
//! |---|---|---|---|---|---|
//! | c-f register | n−1 | log n | log n | log n | log n |
//! | c-f step | n−1 | log n | log n | log n | log n |
//! | w-c register | n−1 | n−1 | log n | log n | log n |
//! | w-c step | n−1 | n−1 | n−1 | log n | log n |

use std::fmt;

use crate::ceil_log2;

/// One of the four time-complexity measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Measure {
    /// Contention-free register complexity.
    CfRegister,
    /// Contention-free step complexity.
    CfStep,
    /// Worst-case register complexity.
    WcRegister,
    /// Worst-case step complexity.
    WcStep,
}

impl Measure {
    /// All four measures, in the table's row order.
    pub const ALL: [Measure; 4] = [
        Measure::CfRegister,
        Measure::CfStep,
        Measure::WcRegister,
        Measure::WcStep,
    ];

    /// The abbreviation used in the paper's table.
    pub const fn label(self) -> &'static str {
        match self {
            Measure::CfRegister => "c-f register",
            Measure::CfStep => "c-f step",
            Measure::WcRegister => "w-c register",
            Measure::WcStep => "w-c step",
        }
    }
}

impl fmt::Display for Measure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The five model columns of the paper's naming table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelClass {
    /// `{test-and-set}` only.
    TasOnly,
    /// `{read, test-and-set}`.
    ReadTas,
    /// `{read, test-and-set, test-and-reset}`.
    ReadTasTar,
    /// `{test-and-flip}` (and any model containing it).
    Taf,
    /// The full read–modify–write model (all eight operations).
    Rmw,
}

impl ModelClass {
    /// All five columns in the table's order.
    pub const ALL: [ModelClass; 5] = [
        ModelClass::TasOnly,
        ModelClass::ReadTas,
        ModelClass::ReadTasTar,
        ModelClass::Taf,
        ModelClass::Rmw,
    ];

    /// The column heading used in the paper's table.
    pub const fn label(self) -> &'static str {
        match self {
            ModelClass::TasOnly => "test-and-set",
            ModelClass::ReadTas => "read+test-and-set",
            ModelClass::ReadTasTar => "read+tas+test-and-reset",
            ModelClass::Taf => "test-and-flip",
            ModelClass::Rmw => "rmw (all)",
        }
    }
}

impl fmt::Display for ModelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A tight bound value: either `n − 1` or `⌈log₂ n⌉`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bound {
    /// Linear in the number of processes: `n − 1`.
    Linear,
    /// Logarithmic: `⌈log₂ n⌉`.
    Log,
}

impl Bound {
    /// Evaluates the bound for `n` processes.
    pub fn eval(self, n: u64) -> u64 {
        match self {
            Bound::Linear => n - 1,
            Bound::Log => u64::from(ceil_log2(n)),
        }
    }

    /// The symbolic form used in the paper's table.
    pub const fn symbol(self) -> &'static str {
        match self {
            Bound::Linear => "n-1",
            Bound::Log => "log n",
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// The tight bound for a model class and measure — the paper's table as a
/// function.
pub fn tight_bound(class: ModelClass, measure: Measure) -> Bound {
    use Measure::*;
    use ModelClass::*;
    match (class, measure) {
        (TasOnly, _) => Bound::Linear,
        (ReadTas, CfRegister | CfStep) => Bound::Log,
        (ReadTas, WcRegister | WcStep) => Bound::Linear,
        (ReadTasTar, WcStep) => Bound::Linear,
        (ReadTasTar, _) => Bound::Log,
        (Taf | Rmw, _) => Bound::Log,
    }
}

/// Theorem 5: in **every** model, the contention-free register complexity
/// of naming is at least `log₂ n`.
pub fn thm5_cf_register_lower(n: u64) -> u64 {
    u64::from(ceil_log2(n))
}

/// Theorem 6: in every model **without** `test-and-flip`, the worst-case
/// step complexity of naming is at least `n − 1`.
pub fn thm6_wc_step_lower(n: u64) -> u64 {
    n - 1
}

/// Theorem 7: in the model `{test-and-set}`, even the contention-free
/// register complexity of naming is at least `n − 1`.
pub fn thm7_tas_cf_register_lower(n: u64) -> u64 {
    n - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper() {
        use Bound::*;
        use Measure::*;
        use ModelClass::*;
        let expected: [(ModelClass, [Bound; 4]); 5] = [
            (TasOnly, [Linear, Linear, Linear, Linear]),
            (ReadTas, [Log, Log, Linear, Linear]),
            (ReadTasTar, [Log, Log, Log, Linear]),
            (Taf, [Log, Log, Log, Log]),
            (Rmw, [Log, Log, Log, Log]),
        ];
        for (class, bounds) in expected {
            for (measure, bound) in Measure::ALL.into_iter().zip(bounds) {
                assert_eq!(tight_bound(class, measure), bound, "{class} / {measure}");
            }
        }
        let _ = (CfRegister, CfStep, WcRegister, WcStep); // row order used above
    }

    #[test]
    fn bounds_evaluate() {
        assert_eq!(Bound::Linear.eval(16), 15);
        assert_eq!(Bound::Log.eval(16), 4);
        assert_eq!(Bound::Log.eval(100), 7);
    }

    #[test]
    fn monotonicity_within_columns() {
        // Going down the table (cf -> wc) bounds never decrease.
        for class in ModelClass::ALL {
            for n in [4u64, 16, 64] {
                let cf_reg = tight_bound(class, Measure::CfRegister).eval(n);
                let cf_step = tight_bound(class, Measure::CfStep).eval(n);
                let wc_reg = tight_bound(class, Measure::WcRegister).eval(n);
                let wc_step = tight_bound(class, Measure::WcStep).eval(n);
                assert!(cf_reg <= cf_step || cf_reg == cf_step);
                assert!(cf_reg <= wc_reg);
                assert!(cf_step <= wc_step);
                assert!(wc_reg <= wc_step);
            }
        }
    }

    #[test]
    fn theorem_functions() {
        assert_eq!(thm5_cf_register_lower(32), 5);
        assert_eq!(thm6_wc_step_lower(32), 31);
        assert_eq!(thm7_tas_cf_register_lower(32), 31);
    }

    #[test]
    fn labels_are_paper_strings() {
        assert_eq!(Measure::CfRegister.to_string(), "c-f register");
        assert_eq!(ModelClass::Taf.to_string(), "test-and-flip");
        assert_eq!(Bound::Linear.to_string(), "n-1");
    }
}

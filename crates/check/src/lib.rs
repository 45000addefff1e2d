//! # Structural invariant checkers for the SBM representations.
//!
//! The paper's engines are only sound while the underlying data
//! structures stay canonical: the AIG must remain acyclic and
//! strash-canonical across `replace`/`cleanup`, the BDD manager reduced
//! and ordered for the Boolean-difference test (Alg. 1/2), and SOP
//! covers cube-canonical for kernel extraction (Sections III–IV). This
//! crate makes those invariants *checkable*: each representation gets a
//! validator that walks the raw structure (bypassing the resolving
//! accessors, which a corrupted structure could send into a loop) and
//! reports the first violation as a typed [`CheckError`].
//!
//! The checkers are wired into `sbm-core`'s parallel pipeline through
//! [`CheckLevel`]: `Boundaries` validates the network entering and
//! leaving a pipeline run, `Paranoid` additionally brackets every engine
//! invocation on every window with pre/post checks plus a 64-pattern
//! simulation spot-check ([`sim_spot_check`]). A violation names the
//! engine and partition that produced it — a silent miscompile becomes a
//! diagnostic.
//!
//! The [`fault`] module complements the *checkers* with deterministic
//! fault *injection*: a [`FaultPlan`] seeds panics, delays and forced
//! bailouts at engine boundaries so the pipeline's isolate-and-degrade
//! paths can be exercised and proven equivalence-preserving under test.
//!
//! # Example
//!
//! ```
//! use sbm_aig::Aig;
//! use sbm_check::{check_aig, CheckCode};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let f = aig.and(a, b);
//! aig.add_output(f);
//! assert!(check_aig(&aig).is_ok());
//!
//! // Seed a duplicate strash pair through the corruption injector.
//! aig.corrupt_push_raw_and(a, b);
//! assert_eq!(
//!     check_aig(&aig).unwrap_err().code,
//!     CheckCode::AigStrashDuplicate
//! );
//! ```

mod aig;
mod bdd;
pub mod fault;
mod sim;
mod sop;

pub use aig::check_aig;
pub use bdd::check_bdd;
pub use fault::{inject_panic, FaultKind, FaultPlan, InjectedPanic};
pub use sim::sim_spot_check;
pub use sop::{check_cover, check_cube, check_sop};

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Machine-readable identity of a violated invariant.
///
/// Stable string codes (see [`CheckCode::as_str`]) are grouped by
/// representation: `aig-*`, `bdd-*`, `sop-*` and `sim-*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CheckCode {
    /// An AND node's fanin refers to a node beyond the allocated range.
    AigDanglingFanin,
    /// An AND node's stored fanin does not precede it (the append-only
    /// topological order is broken).
    AigFaninOrder,
    /// The replacement map contains a redirection cycle (resolution
    /// would never terminate).
    AigCyclicRedirect,
    /// The resolved fanin graph contains a combinational cycle.
    AigCombinationalCycle,
    /// Two live AND nodes share the same resolved `(a, b)` fanin pair —
    /// structural hashing has been violated.
    AigStrashDuplicate,
    /// A strash-table entry disagrees with the node it points to.
    AigStrashMismatch,
    /// An AND node violates the one-level rules applied at construction
    /// (constant, equal or complementary fanins, or an unordered pair).
    AigNotCanonical,
    /// A replacement entry redirects a constant/input, or targets a
    /// node beyond the allocated range.
    AigBadReplacement,
    /// A primary output refers to a node beyond the allocated range.
    AigDanglingOutput,
    /// A BDD edge points at a handle with no backing node.
    BddDanglingEdge,
    /// A BDD node's child carries a variable ≤ its own (the fixed
    /// variable order is broken).
    BddVariableOrder,
    /// A BDD node has equal children — the reduction rule is violated.
    BddNotReduced,
    /// A BDD node's variable is outside the manager's declared range.
    BddVarOutOfRange,
    /// A unique-table entry disagrees with the node it points to.
    BddUniqueMismatch,
    /// A unique-table entry points at a terminal or at a handle with no
    /// backing node (e.g. left behind by an incomplete reset).
    BddStaleUniqueEntry,
    /// A decision node is missing from the unique table, so a duplicate
    /// could be created — strong canonicity is no longer guaranteed.
    BddMissingUniqueEntry,
    /// A cube's literals are not sorted strictly ascending.
    SopCubeUnsorted,
    /// A cube mentions the same signal in both phases.
    SopContradictoryCube,
    /// A cover contains a cube absorbed by another cube (single-cube
    /// containment is violated).
    SopAbsorbedCube,
    /// A cover mentions a signal outside the declared signal range.
    SopSupportOutOfRange,
    /// The SOP network's node dependencies form a cycle.
    SopCyclicDependency,
    /// A network output refers to a signal outside the declared range.
    SopDanglingOutput,
    /// Two networks disagree under the 64-pattern simulation spot-check.
    SimMismatch,
    /// Two networks have different input/output counts.
    SimInterfaceMismatch,
}

impl CheckCode {
    /// The stable string code of this invariant (used in diagnostics,
    /// logs and tests).
    pub fn as_str(self) -> &'static str {
        match self {
            CheckCode::AigDanglingFanin => "aig-dangling-fanin",
            CheckCode::AigFaninOrder => "aig-fanin-order",
            CheckCode::AigCyclicRedirect => "aig-cyclic-redirect",
            CheckCode::AigCombinationalCycle => "aig-combinational-cycle",
            CheckCode::AigStrashDuplicate => "aig-strash-duplicate",
            CheckCode::AigStrashMismatch => "aig-strash-mismatch",
            CheckCode::AigNotCanonical => "aig-not-canonical",
            CheckCode::AigBadReplacement => "aig-bad-replacement",
            CheckCode::AigDanglingOutput => "aig-dangling-output",
            CheckCode::BddDanglingEdge => "bdd-dangling-edge",
            CheckCode::BddVariableOrder => "bdd-variable-order",
            CheckCode::BddNotReduced => "bdd-not-reduced",
            CheckCode::BddVarOutOfRange => "bdd-var-out-of-range",
            CheckCode::BddUniqueMismatch => "bdd-unique-mismatch",
            CheckCode::BddStaleUniqueEntry => "bdd-stale-unique-entry",
            CheckCode::BddMissingUniqueEntry => "bdd-missing-unique-entry",
            CheckCode::SopCubeUnsorted => "sop-cube-unsorted",
            CheckCode::SopContradictoryCube => "sop-contradictory-cube",
            CheckCode::SopAbsorbedCube => "sop-absorbed-cube",
            CheckCode::SopSupportOutOfRange => "sop-support-out-of-range",
            CheckCode::SopCyclicDependency => "sop-cyclic-dependency",
            CheckCode::SopDanglingOutput => "sop-dangling-output",
            CheckCode::SimMismatch => "sim-mismatch",
            CheckCode::SimInterfaceMismatch => "sim-interface-mismatch",
        }
    }
}

impl fmt::Display for CheckCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A violated invariant: the code, the offending node (where one can be
/// named) and a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// Which invariant was violated.
    pub code: CheckCode,
    /// The offending node/handle/signal index, when one can be named.
    pub node: Option<u64>,
    /// Human-readable context (fanin literals, table keys, …).
    pub detail: String,
}

impl CheckError {
    /// Builds an error naming a node.
    pub fn at(code: CheckCode, node: u64, detail: impl Into<String>) -> Self {
        CheckError {
            code,
            node: Some(node),
            detail: detail.into(),
        }
    }

    /// Builds an error with no specific node.
    pub fn global(code: CheckCode, detail: impl Into<String>) -> Self {
        CheckError {
            code,
            node: None,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(f, "[{}] node {}: {}", self.code, n, self.detail),
            None => write!(f, "[{}] {}", self.code, self.detail),
        }
    }
}

impl Error for CheckError {}

/// How aggressively the pipeline validates invariants around engine
/// invocations (see `sbm-core`'s `EngineCtx::check_level`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum CheckLevel {
    /// No checking (the production default; zero overhead).
    #[default]
    Off,
    /// Validate the network entering and leaving a pipeline/script run,
    /// plus one end-to-end simulation spot-check. Costs one structural
    /// walk and 64 simulated patterns per run — well under 10% of any
    /// real optimization pass.
    Boundaries,
    /// [`CheckLevel::Boundaries`] plus pre/post invariant checks and a
    /// 64-pattern simulation spot-check around *every* engine invocation
    /// on *every* window. Used by the proptests; expensive.
    Paranoid,
}

impl CheckLevel {
    /// Whether this level checks run boundaries.
    pub fn at_boundaries(self) -> bool {
        self >= CheckLevel::Boundaries
    }

    /// Whether this level brackets every engine invocation.
    pub fn per_engine(self) -> bool {
        self >= CheckLevel::Paranoid
    }
}

impl fmt::Display for CheckLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckLevel::Off => "off",
            CheckLevel::Boundaries => "boundaries",
            CheckLevel::Paranoid => "paranoid",
        })
    }
}

/// Error returned when parsing a [`CheckLevel`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCheckLevelError(String);

impl fmt::Display for ParseCheckLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown check level {:?} (expected off, boundaries or paranoid)",
            self.0
        )
    }
}

impl Error for ParseCheckLevelError {}

impl FromStr for CheckLevel {
    type Err = ParseCheckLevelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Ok(CheckLevel::Off),
            "boundaries" => Ok(CheckLevel::Boundaries),
            "paranoid" => Ok(CheckLevel::Paranoid),
            _ => Err(ParseCheckLevelError(s.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_level_ordering_and_gates() {
        assert!(CheckLevel::Off < CheckLevel::Boundaries);
        assert!(CheckLevel::Boundaries < CheckLevel::Paranoid);
        assert!(!CheckLevel::Off.at_boundaries());
        assert!(CheckLevel::Boundaries.at_boundaries());
        assert!(!CheckLevel::Boundaries.per_engine());
        assert!(CheckLevel::Paranoid.per_engine());
        assert_eq!(CheckLevel::default(), CheckLevel::Off);
    }

    #[test]
    fn check_level_parses_and_displays() {
        for (text, level) in [
            ("off", CheckLevel::Off),
            ("Boundaries", CheckLevel::Boundaries),
            ("PARANOID", CheckLevel::Paranoid),
        ] {
            assert_eq!(text.parse::<CheckLevel>(), Ok(level));
        }
        assert!("frantic".parse::<CheckLevel>().is_err());
        assert_eq!(CheckLevel::Paranoid.to_string(), "paranoid");
    }

    #[test]
    fn error_display_names_code_and_node() {
        let e = CheckError::at(CheckCode::AigDanglingFanin, 7, "fanin n9 of 8-node graph");
        let text = e.to_string();
        assert!(text.contains("aig-dangling-fanin"), "{text}");
        assert!(text.contains("node 7"), "{text}");
        let g = CheckError::global(CheckCode::SimMismatch, "output 0 differs");
        assert!(g.to_string().starts_with("[sim-mismatch]"));
    }

    #[test]
    fn codes_are_unique() {
        let all = [
            CheckCode::AigDanglingFanin,
            CheckCode::AigFaninOrder,
            CheckCode::AigCyclicRedirect,
            CheckCode::AigCombinationalCycle,
            CheckCode::AigStrashDuplicate,
            CheckCode::AigStrashMismatch,
            CheckCode::AigNotCanonical,
            CheckCode::AigBadReplacement,
            CheckCode::AigDanglingOutput,
            CheckCode::BddDanglingEdge,
            CheckCode::BddVariableOrder,
            CheckCode::BddNotReduced,
            CheckCode::BddVarOutOfRange,
            CheckCode::BddUniqueMismatch,
            CheckCode::BddStaleUniqueEntry,
            CheckCode::BddMissingUniqueEntry,
            CheckCode::SopCubeUnsorted,
            CheckCode::SopContradictoryCube,
            CheckCode::SopAbsorbedCube,
            CheckCode::SopSupportOutOfRange,
            CheckCode::SopCyclicDependency,
            CheckCode::SopDanglingOutput,
            CheckCode::SimMismatch,
            CheckCode::SimInterfaceMismatch,
        ];
        let mut codes: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
    }
}

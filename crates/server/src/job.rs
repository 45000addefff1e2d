//! Translation of wire-level [`JobOptions`] into the pipeline's
//! [`SbmOptions`], pinned to the server's determinism contract.
//!
//! Every server job runs with `num_threads = 1`, `canonical_steps`
//! on, no step cadence for its checkpoint, and no internal deadline
//! (time control is the scheduler's [`sbm_budget::Budget`] slice, not
//! the options'). The script then records a job only when a slice stops
//! it, at the last step it completed cleanly. Under that contract a job
//! parked at any step resumes bit-identically, and its final network is
//! byte-identical to a one-shot serial run with the same options — the
//! property the soak test asserts.

use std::time::Duration;

use sbm_check::{CheckLevel, FaultPlan};
use sbm_core::script::{OptionsError, SbmOptions};

use crate::protocol::JobOptions;

/// Why a SUBMIT's options were rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOptionsError {
    /// The check-level byte was not 0, 1, or 2.
    BadCheckLevel(u8),
    /// The pipeline's own validation rejected the derived options.
    Invalid(OptionsError),
}

impl std::fmt::Display for JobOptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobOptionsError::BadCheckLevel(b) => {
                write!(f, "check level must be 0, 1 or 2, got {b}")
            }
            JobOptionsError::Invalid(e) => write!(f, "invalid job options: {e:?}"),
        }
    }
}

impl std::error::Error for JobOptionsError {}

/// Derives the pipeline options a server job runs under.
///
/// The checkpoint directory is left unset here; the executor points it
/// at the job's own `ckpt/` subdirectory before each slice.
///
/// # Errors
///
/// [`JobOptionsError`] when a field is out of range or the derived
/// configuration fails [`SbmOptions`] validation.
pub fn job_sbm_options(wire: &JobOptions) -> Result<SbmOptions, JobOptionsError> {
    let check_level = match wire.check {
        0 => CheckLevel::Off,
        1 => CheckLevel::Boundaries,
        2 => CheckLevel::Paranoid,
        other => return Err(JobOptionsError::BadCheckLevel(other)),
    };
    let fault_plan = if wire.fault_rate_ppm == 0 {
        None
    } else {
        Some(FaultPlan::uniform(
            wire.fault_seed,
            f64::from(wire.fault_rate_ppm) / 1_000_000.0,
        ))
    };
    SbmOptions::builder()
        .num_threads(1)
        .iterations(wire.iterations as usize)
        .sim_filter(wire.sim_filter)
        .check_level(check_level)
        .sat_budget((wire.sat_budget > 0).then_some(wire.sat_budget))
        .fault_plan(fault_plan)
        // The scheduler's budget is authoritative; the wire deadline is
        // enforced by the server, never by the script.
        .deadline(None)
        .canonical_steps(true)
        // Durable progress is the slice's business: the script records a
        // job when a slice stops it, never on a step cadence.
        .checkpoint_every(usize::MAX)
        .build()
        .map_err(JobOptionsError::Invalid)
}

/// The whole-job wall-clock deadline carried by the wire options, if
/// any. Enforced by the scheduler across slices, not inside the script.
#[must_use]
pub fn job_deadline(wire: &JobOptions) -> Option<Duration> {
    (wire.deadline_ms > 0).then(|| Duration::from_millis(wire.deadline_ms))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used)]

    use super::*;
    use sbm_core::script::script_fingerprint;

    #[test]
    fn defaults_map_to_canonical_serial_options() {
        let o = job_sbm_options(&JobOptions::default()).expect("valid");
        assert_eq!(o.num_threads, 1);
        assert_eq!(o.iterations, 1);
        assert!(o.sim_filter);
        assert!(o.canonical_steps);
        assert_eq!(o.checkpoint_every, usize::MAX);
        assert_eq!(o.check_level, CheckLevel::Boundaries);
        assert_eq!(o.deadline, None);
        assert!(o.fault_plan.is_none());
        assert_eq!(o.sat_budget, Some(2_000));
        assert_eq!(job_deadline(&JobOptions::default()), None);
    }

    #[test]
    fn fault_rate_and_deadline_translate() {
        let wire = JobOptions {
            fault_seed: 9,
            fault_rate_ppm: 250_000,
            deadline_ms: 1_500,
            ..JobOptions::default()
        };
        let o = job_sbm_options(&wire).expect("valid");
        let plan = o.fault_plan.expect("plan");
        assert_eq!(plan.seed, 9);
        assert!((plan.panic_rate - 0.25).abs() < 1e-12);
        // The script-side deadline stays off even when the wire sets one.
        assert_eq!(o.deadline, None);
        assert_eq!(job_deadline(&wire), Some(Duration::from_millis(1_500)));
    }

    #[test]
    fn bad_fields_are_rejected() {
        assert!(matches!(
            job_sbm_options(&JobOptions {
                check: 3,
                ..JobOptions::default()
            }),
            Err(JobOptionsError::BadCheckLevel(3))
        ));
        assert!(matches!(
            job_sbm_options(&JobOptions {
                iterations: 0,
                ..JobOptions::default()
            }),
            Err(JobOptionsError::Invalid(OptionsError::ZeroIterations))
        ));
    }

    #[test]
    fn wire_deadline_does_not_perturb_the_fingerprint() {
        // Two submissions differing only in deadline must resume each
        // other's checkpoints: the deadline is scheduler policy, not
        // script configuration.
        let a = job_sbm_options(&JobOptions::default()).expect("valid");
        let b = job_sbm_options(&JobOptions {
            deadline_ms: 60_000,
            ..JobOptions::default()
        })
        .expect("valid");
        let input = crate::corpus::corpus_aig(0).cleanup();
        assert_eq!(
            script_fingerprint(&a, &input),
            script_fingerprint(&b, &input)
        );
    }
}

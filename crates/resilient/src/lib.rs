//! # flexresilient
//!
//! A resilient execution layer over the FlexiCore functional
//! simulators: run programs *correctly* on imperfect silicon instead of
//! discarding it.
//!
//! The paper's §4.1 screen is binary — a die either passes every test
//! vector or is thrown away — and `flexinject`'s campaigns quantify how
//! often a single fault corrupts a kernel. This crate closes the loop
//! with the classic fault-tolerance toolbox, built entirely on
//! architectural mechanisms the paper's off-chip board could implement:
//!
//! * **N-modular redundancy** ([`vote`]) — the same program on N lanes
//!   with independent fault planes; output windows and end states are
//!   decided by majority vote, masking anything a single lane does.
//! * **Checkpoint/rollback recovery** ([`recovery`]) — cheap
//!   architectural snapshots every K instructions; on divergence, crash
//!   or hang the lanes roll back and re-execute, with exponentially
//!   backed-off reassignment onto spare dies. Transients recover
//!   because fault planes are never rolled back; permanents are retired
//!   onto spares.
//! * **Degraded-mode scheduling** ([`sched`]) — quorums composed from
//!   `flexinject`'s salvage pool by pairing dies whose defect sites do
//!   not overlap, descending TMR → DMR-with-re-execution →
//!   simplex-with-checkpoints as the pool shrinks.
//! * **Recovery campaigns** ([`campaign`], [`report`]) — seeded,
//!   bit-for-bit reproducible sweeps measuring masked / recovered /
//!   unrecoverable rates per dialect and fault model.
//!
//! ```
//! use flexasm::Target;
//! use flexkernels::Kernel;
//! use flexresilient::{run_recovery_campaign, RecoveryCampaignConfig, ResilientOutcome};
//!
//! let cfg = RecoveryCampaignConfig {
//!     budget: 20_000,
//!     ..RecoveryCampaignConfig::new(Target::fc4(), Kernel::ParityCheck, 4, 1)
//! };
//! let campaign = run_recovery_campaign(cfg)?;
//! // TMR outvotes every single-lane stuck-at fault
//! assert!(campaign
//!     .trials
//!     .iter()
//!     .all(|t| t.outcome == ResilientOutcome::Masked));
//! # Ok::<(), flexresilient::RecoveryCampaignError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod recovery;
pub mod report;
pub mod sched;
pub mod vote;

pub use campaign::{
    run_recovery_campaign, RecoveryCampaign, RecoveryCampaignConfig, RecoveryCampaignError,
    ResilientOutcome, ResilientTrial,
};
pub use recovery::{
    RecoveryConfig, RecoveryExecutor, RecoveryRun, RetryAction, RetryCause, RetryEvent,
};
pub use report::{render_recovery_campaign, ResilienceTally};
pub use sched::{compose, Quorum, QuorumMode};
pub use vote::{
    NmrConfig, NmrConfigError, NmrExecutor, NmrRun, StateDigest, VoteVerdict, WindowVote,
};

//! flexlink — the robust field-reprogramming link for FlexiCores.
//!
//! The paper's §5.1 field reprogrammability assumes the new program
//! image arrives intact and stays intact. This crate drops that
//! assumption and builds the link layer that earns it back:
//!
//! * [`ecc`] — SECDED(13,8) code words: every stored program byte
//!   carries four Hamming parity bits plus an overall parity bit, so
//!   single-bit upsets correct silently and double-bit upsets are
//!   detected rather than executed.
//! * [`frame`] — per-page transfer frames with sequence numbers and a
//!   CRC-16, so corrupted, truncated or misrouted deliveries are
//!   rejected at the receiver.
//! * [`channel`] — a seeded noisy channel (independent bit flips,
//!   bursts, drops, truncation) for deterministic adversarial testing.
//! * [`protocol`] — write → read-back-verify → bounded-retry paging
//!   with exponential backoff and per-frame telemetry.
//! * [`store`] — the ECC-protected external program store, with
//!   background scrubbing that heals corrected words in place and
//!   flags decayed pages for reprogramming.
//! * [`exec`] — a linked executor that runs a kernel out of the store
//!   in checkpointed segments: single upsets are corrected on read,
//!   uncorrectable pages are reprogrammed over the link, and crashes
//!   (including corrupt-MMU page escapes) roll back to the last
//!   checkpoint on the repaired image.
//! * [`soak`] / [`report`] — seeded soak campaigns (kernels × channel
//!   error rates) classifying every trial masked / recovered /
//!   unrecoverable, with bit-for-bit replayable telemetry.
//!
//! PR 6 hardens the link against *adversaries and power loss*, not
//! just noise (ROADMAP item 4, after the OpenSK upgrade-partition
//! playbook):
//!
//! * [`crypto`] — hand-written SHA-256 and HMAC-SHA256 (the workspace
//!   vendors its deps; no crypto crates).
//! * [`auth`] — the signed image metadata page: length, dialect,
//!   monotonic anti-rollback version, digest, HMAC tag.
//! * [`partition`] — A/B dual-slot ECC store with a two-phase commit
//!   marker, so a power cut at any word write boots the old image.
//! * [`update`] — the device-side secure-update engine: stage to the
//!   inactive slot, verify (MAC, digest, dialect, anti-rollback,
//!   `flexcheck` admission), then atomically swap.
//! * [`attack`] — an active man-in-the-middle on the programming link
//!   (forgery, replay, downgrade, truncation, bit flips) plus seeded
//!   attacker × power-cut soak campaigns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod auth;
pub mod channel;
pub mod crypto;
pub mod ecc;
pub mod exec;
pub mod frame;
pub mod partition;
pub mod protocol;
pub mod report;
pub mod soak;
pub mod store;
pub mod update;

pub use attack::{
    run_attack_soak, Attack, AttackCampaign, AttackMix, AttackOutcome, AttackSoakConfig,
};
pub use auth::{sign_update, Metadata, SignedUpdate};
pub use channel::{ChannelConfig, NoisyChannel};
pub use exec::{LinkExecConfig, LinkRun, LinkedExecutor, StoreUpset};
pub use partition::{Boot, DualStore, Slot};
pub use protocol::{FrameClass, LinkConfig, TransferReport};
pub use soak::{run_soak, SoakCampaign, SoakConfig};
pub use store::{EccStore, PAGE_BYTES};
pub use update::{Device, RejectReason, UpdateReport, UpdateStatus};

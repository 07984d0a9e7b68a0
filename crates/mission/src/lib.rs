//! # flexmission
//!
//! Closed-loop in-field health management for deployed FlexiCore dies.
//!
//! Everything below this crate measures a die at a *moment*: the fab
//! screen at t = 0, a fault campaign over a frozen defect draw, a link
//! soak over one update. A deployed flexible processor lives on a foil
//! for months — IGZO transistors drift under bias stress until marginal
//! cells fail permanently, the substrate is flexed, the battery sags —
//! and the paper's answer to all of it is field reprogrammability
//! (§5.1) plus redundancy. This crate closes that loop:
//!
//! * [`flexinject::stress`] (PR 8, same change) materializes the
//!   mission-time fault processes — seeded wear-out, spatially
//!   clustered bend bursts, brownout windows with torn store writes —
//!   as one replayable [`StressSchedule`](flexinject::StressSchedule).
//! * [`health`] turns the telemetry the existing layers already
//!   produce — NMR lane dissent from `flexresilient`, crash/hang
//!   watchdog trips from `flexicore::exec`, SECDED scrub counts from
//!   `flexlink` — into a per-die health score and state.
//! * [`manager`] is the reaction policy: an adaptive NMR ladder that
//!   *promotes* (simplex → DMR → TMR) when trouble is observed and
//!   demotes back to its floor after quiet ticks, plus jittered
//!   migration scheduling onto spare dies.
//! * [`campaign`] runs whole missions tick by tick: stress lands,
//!   scrubbing heals (or reports decay), decayed images are re-flashed
//!   through the authenticated `flexlink` update path (forgeries must
//!   still bounce), suspect dies are re-screened with
//!   [`flexfab::tester`]-budgeted self-test vectors and migrated off
//!   when they fail. Campaigns run over `flexshard` and replay
//!   bit-for-bit across any thread count.
//! * [`report`] renders lifetime tallies and the adaptive-vs-static
//!   comparison `flexi mission` prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod health;
pub mod manager;
pub mod report;

pub use campaign::{
    run_mission_campaign, MissionCampaign, MissionConfig, MissionError, MissionOutcome,
    MissionTrial,
};
pub use health::{HealthMonitor, HealthState, LaneTelemetry};
pub use manager::{ManagerConfig, MissionManager};
pub use report::{render_mission_campaign, render_mission_comparison, MissionTally};

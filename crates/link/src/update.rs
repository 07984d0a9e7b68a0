//! The device-side secure-update engine.
//!
//! A [`Device`] owns a [`DualStore`], its HMAC key, and an admission
//! policy. [`Device::apply_update`] is the whole defended flow:
//!
//! 1. **Stage** — the update's wire bytes (metadata page + image)
//!    cross the noisy/hostile channel into the *inactive* slot via the
//!    PR 4 transfer protocol. The host read-back-verify only proves the
//!    store holds what the *sender* sent — a lying sender passes it —
//!    so nothing is trusted yet.
//! 2. **Verify** — from the staged store itself: parse the metadata
//!    page, check the HMAC tag under the device key, the dialect, the
//!    length bound, the image digest, the anti-rollback version, and
//!    finally `flexcheck` static admission of the decoded image.
//! 3. **Commit** — the three-write marker protocol of
//!    [`crate::partition`]; a power cut at any word leaves the old
//!    image bootable.
//!
//! Every verdict is an [`UpdateStatus`]; campaigns grade them against
//! ground truth in [`crate::attack`].

use crate::auth::{AuthError, SignedUpdate};
use crate::channel::NoisyChannel;
use crate::partition::{Boot, Bricked, DualStore, Slot};
use crate::protocol::{self, LinkConfig, TransferReport};
use crate::store::PAGE_BYTES;
use flexasm::Target;
use flexicore::program::Program;
use flexicore::sim::PowerCut;

/// Why the device refused an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The wire image does not fit a slot.
    TooLong,
    /// The transfer never verified every page (noise or truncation).
    TransferFailed,
    /// The staged metadata page is structurally invalid or its HMAC
    /// tag does not verify.
    Unauthenticated(AuthError),
    /// The metadata targets a different dialect than this die.
    WrongDialect,
    /// The claimed image length exceeds the staged bytes.
    LengthOutOfRange,
    /// The staged image does not match the authenticated digest.
    DigestMismatch,
    /// Anti-rollback: the offered version does not exceed the active
    /// image's version.
    Downgrade {
        /// The version the update offered.
        offered: u64,
        /// The active image's version.
        active: u64,
    },
    /// `flexcheck` static admission found a denying finding.
    Inadmissible,
    /// The device has no authenticated active image to compare
    /// against (never provisioned or bricked).
    NoActiveImage,
}

impl core::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RejectReason::TooLong => write!(f, "update exceeds slot capacity"),
            RejectReason::TransferFailed => write!(f, "transfer never verified"),
            RejectReason::Unauthenticated(e) => write!(f, "authentication failed: {e}"),
            RejectReason::WrongDialect => write!(f, "image targets another dialect"),
            RejectReason::LengthOutOfRange => write!(f, "claimed length exceeds staged bytes"),
            RejectReason::DigestMismatch => write!(f, "image digest mismatch"),
            RejectReason::Downgrade { offered, active } => {
                write!(f, "anti-rollback: offered v{offered} <= active v{active}")
            }
            RejectReason::Inadmissible => write!(f, "static admission denied"),
            RejectReason::NoActiveImage => write!(f, "no authenticated active image"),
        }
    }
}

/// The verdict of one [`Device::apply_update`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateStatus {
    /// Verified and committed; the die now runs `version`.
    Applied {
        /// The newly active version.
        version: u64,
    },
    /// Refused; the active image is untouched.
    Rejected(RejectReason),
    /// A power cut interrupted the flow; the next boot resolves it.
    Interrupted,
}

impl core::fmt::Display for UpdateStatus {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UpdateStatus::Applied { version } => write!(f, "applied v{version}"),
            UpdateStatus::Rejected(reason) => write!(f, "rejected: {reason}"),
            UpdateStatus::Interrupted => write!(f, "interrupted by power cut"),
        }
    }
}

/// Telemetry of one update attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// The verdict.
    pub status: UpdateStatus,
    /// Transfer telemetry, when the flow got as far as the channel.
    pub transfer: Option<TransferReport>,
}

impl UpdateReport {
    fn refused(reason: RejectReason) -> Self {
        UpdateReport {
            status: UpdateStatus::Rejected(reason),
            transfer: None,
        }
    }
}

/// One field-updatable die: dual-slot store, device key, link and
/// admission policy.
#[derive(Debug, Clone)]
pub struct Device {
    target: Target,
    store: DualStore,
    key: Vec<u8>,
    link: LinkConfig,
    admission: Option<flexcheck::Severity>,
}

impl Device {
    /// A blank device for `target` whose slots hold up to `capacity`
    /// image bytes, keyed with `key`.
    #[must_use]
    pub fn new(target: Target, capacity: usize, key: &[u8]) -> Self {
        Device {
            target,
            store: DualStore::new(capacity),
            key: key.to_vec(),
            link: LinkConfig::default(),
            admission: None,
        }
    }

    /// Gate activation on the static analyzer at `deny` severity.
    #[must_use]
    pub fn with_admission(mut self, deny: flexcheck::Severity) -> Self {
        self.admission = Some(deny);
        self
    }

    /// Override the transfer retry policy.
    #[must_use]
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// The die's dual-slot store (campaign inspection and upset
    /// injection).
    #[must_use]
    pub fn store(&self) -> &DualStore {
        &self.store
    }

    /// Mutable store access for upset injection.
    pub fn store_mut(&mut self) -> &mut DualStore {
        &mut self.store
    }

    /// Factory-provision the die with `update` (a clean local write,
    /// no channel): verifies exactly like a field update, then flashes
    /// slot A and commits.
    pub fn provision(&mut self, update: &SignedUpdate) -> Result<(), RejectReason> {
        let wire = update.wire_bytes();
        if wire.len() > self.store.slot_bytes() {
            return Err(RejectReason::TooLong);
        }
        self.store
            .stage_begin(Slot::A, wire.len())
            .write_image(&wire);
        let (meta, image) = self
            .store
            .authenticate(Slot::A, &self.key)
            .ok_or(RejectReason::DigestMismatch)?;
        if meta.dialect != self.target.dialect {
            return Err(RejectReason::WrongDialect);
        }
        self.admit(&image)?;
        let mut power = PowerCut::never();
        self.store.set_active(Slot::A, &mut power);
        self.store.clear_marker(&mut power);
        Ok(())
    }

    /// Power-on boot: resolve any in-flight commit and return the
    /// authenticated image the die runs.
    pub fn boot(&mut self) -> Result<Boot, Bricked> {
        self.store.boot(&self.key)
    }

    /// The active image's authenticated version, if any.
    #[must_use]
    pub fn active_version(&self) -> Option<u64> {
        let active = self.store.active_slot()?;
        self.store
            .authenticate(active, &self.key)
            .map(|(m, _)| m.version)
    }

    /// Receive `wire` (a [`SignedUpdate`]'s bytes, possibly replaced
    /// wholesale by an attacker) over `channel` into the staging slot,
    /// verify it, and commit the swap — with `power` threaded through
    /// every store write.
    pub fn apply_update(
        &mut self,
        wire: &[u8],
        channel: &mut NoisyChannel,
        power: &mut PowerCut,
    ) -> UpdateReport {
        let Some(active) = self.store.active_slot() else {
            return UpdateReport::refused(RejectReason::NoActiveImage);
        };
        let Some((active_meta, _)) = self.store.authenticate(active, &self.key) else {
            return UpdateReport::refused(RejectReason::NoActiveImage);
        };
        if wire.len() > self.store.slot_bytes() || wire.len() < PAGE_BYTES {
            return UpdateReport::refused(RejectReason::TooLong);
        }

        // 1. stage into the inactive slot; the active image is never
        //    touched, so a cut during staging is harmless
        let staging = active.other();
        let slot_store = self.store.stage_begin(staging, wire.len());
        let transfer = protocol::program_store_with(wire, slot_store, channel, self.link, power);
        if power.has_fired() {
            return UpdateReport {
                status: UpdateStatus::Interrupted,
                transfer: Some(transfer),
            };
        }
        if !transfer.complete() {
            return UpdateReport {
                status: UpdateStatus::Rejected(RejectReason::TransferFailed),
                transfer: Some(transfer),
            };
        }

        // 2. verify from the staged store itself — the only bytes the
        //    device can actually vouch for
        let verdict = self.verify_staged(staging, active_meta.version);
        if let Err(reason) = verdict {
            return UpdateReport {
                status: UpdateStatus::Rejected(reason),
                transfer: Some(transfer),
            };
        }
        let version = verdict.expect("checked above");

        // 3. three-write commit; power may cut any single word
        if !self.store.stage_mark(active, staging, power)
            || !self.store.set_active(staging, power)
            || !self.store.clear_marker(power)
        {
            return UpdateReport {
                status: UpdateStatus::Interrupted,
                transfer: Some(transfer),
            };
        }
        UpdateReport {
            status: UpdateStatus::Applied { version },
            transfer: Some(transfer),
        }
    }

    /// The post-transfer verification ladder; returns the accepted
    /// version.
    fn verify_staged(&self, staging: Slot, active_version: u64) -> Result<u64, RejectReason> {
        let store = self.store.slot(staging);
        let staged = store.materialize();
        let raw = staged.program.as_bytes();
        let meta = crate::auth::Metadata::verify(&raw[..PAGE_BYTES], &self.key)
            .map_err(RejectReason::Unauthenticated)?;
        if meta.dialect != self.target.dialect {
            return Err(RejectReason::WrongDialect);
        }
        let image = raw
            .get(PAGE_BYTES..PAGE_BYTES + meta.length as usize)
            .ok_or(RejectReason::LengthOutOfRange)?;
        if !meta.matches_image(image) {
            return Err(RejectReason::DigestMismatch);
        }
        if meta.version <= active_version {
            return Err(RejectReason::Downgrade {
                offered: meta.version,
                active: active_version,
            });
        }
        self.admit(image)?;
        Ok(meta.version)
    }

    /// `flexcheck` admission of a candidate image.
    fn admit(&self, image: &[u8]) -> Result<(), RejectReason> {
        if let Some(deny) = self.admission {
            let program = Program::from_bytes(image.to_vec());
            let report = flexcheck::analyze(&self.target, &program);
            if !report.at_least(deny).is_empty() {
                return Err(RejectReason::Inadmissible);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::sign_update;
    use crate::channel::ChannelConfig;
    use flexkernels::harness::PreparedKernel;
    use flexkernels::Kernel;

    const KEY: &[u8] = b"device-under-test";

    fn kernel_bytes() -> Vec<u8> {
        PreparedKernel::new(Kernel::ParityCheck, Target::fc4())
            .unwrap()
            .program()
            .as_bytes()
            .to_vec()
    }

    fn provisioned_device() -> Device {
        let mut device = Device::new(Target::fc4(), 512, KEY);
        let v1 = sign_update(Target::fc4().dialect, &kernel_bytes(), 1, KEY);
        device.provision(&v1).unwrap();
        device
    }

    fn clean() -> NoisyChannel {
        NoisyChannel::new(ChannelConfig::clean(), 1)
    }

    #[test]
    fn legitimate_update_applies_and_boots() {
        let mut device = provisioned_device();
        assert_eq!(device.active_version(), Some(1));
        let v2 = sign_update(Target::fc4().dialect, &kernel_bytes(), 2, KEY);
        let report = device.apply_update(&v2.wire_bytes(), &mut clean(), &mut PowerCut::never());
        assert_eq!(report.status, UpdateStatus::Applied { version: 2 });
        let boot = device.boot().unwrap();
        assert_eq!(boot.metadata.version, 2);
        assert_eq!(boot.slot, Slot::B);
        assert_eq!(device.active_version(), Some(2));
    }

    #[test]
    fn forged_key_is_rejected() {
        let mut device = provisioned_device();
        let forged = sign_update(Target::fc4().dialect, &kernel_bytes(), 9, b"attacker-key");
        let report =
            device.apply_update(&forged.wire_bytes(), &mut clean(), &mut PowerCut::never());
        assert!(matches!(
            report.status,
            UpdateStatus::Rejected(RejectReason::Unauthenticated(AuthError::BadTag))
        ));
        assert_eq!(device.active_version(), Some(1), "active image untouched");
    }

    #[test]
    fn replay_and_downgrade_are_rejected() {
        let mut device = provisioned_device();
        let v2 = sign_update(Target::fc4().dialect, &kernel_bytes(), 2, KEY);
        device.apply_update(&v2.wire_bytes(), &mut clean(), &mut PowerCut::never());
        // replay of the now-active version
        let report = device.apply_update(&v2.wire_bytes(), &mut clean(), &mut PowerCut::never());
        assert_eq!(
            report.status,
            UpdateStatus::Rejected(RejectReason::Downgrade {
                offered: 2,
                active: 2
            })
        );
        // genuine-but-old version
        let v1 = sign_update(Target::fc4().dialect, &kernel_bytes(), 1, KEY);
        let report = device.apply_update(&v1.wire_bytes(), &mut clean(), &mut PowerCut::never());
        assert!(matches!(
            report.status,
            UpdateStatus::Rejected(RejectReason::Downgrade { offered: 1, .. })
        ));
        assert_eq!(device.boot().unwrap().metadata.version, 2);
    }

    #[test]
    fn tampered_image_is_rejected_by_digest() {
        let mut device = provisioned_device();
        let v2 = sign_update(Target::fc4().dialect, &kernel_bytes(), 2, KEY);
        let mut wire = v2.wire_bytes();
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        let report = device.apply_update(&wire, &mut clean(), &mut PowerCut::never());
        assert_eq!(
            report.status,
            UpdateStatus::Rejected(RejectReason::DigestMismatch)
        );
    }

    #[test]
    fn wrong_dialect_is_rejected() {
        let mut device = provisioned_device();
        let xls = sign_update(flexicore::isa::Dialect::LoadStore, &kernel_bytes(), 2, KEY);
        let report = device.apply_update(&xls.wire_bytes(), &mut clean(), &mut PowerCut::never());
        assert_eq!(
            report.status,
            UpdateStatus::Rejected(RejectReason::WrongDialect)
        );
    }

    #[test]
    fn truncated_wire_is_rejected() {
        let mut device = provisioned_device();
        let v2 = sign_update(Target::fc4().dialect, &kernel_bytes(), 2, KEY);
        let wire = v2.wire_bytes();
        let report = device.apply_update(
            &wire[..PAGE_BYTES + 4],
            &mut clean(),
            &mut PowerCut::never(),
        );
        assert!(
            matches!(
                report.status,
                UpdateStatus::Rejected(
                    RejectReason::LengthOutOfRange | RejectReason::DigestMismatch
                )
            ),
            "{:?}",
            report.status
        );
    }

    #[test]
    fn inadmissible_image_is_refused_before_activation() {
        let mut device = provisioned_device().with_admission(flexcheck::Severity::Error);
        // `br 0` head: statically hung — flexcheck must deny it
        let hung = vec![0x80, 0x00, 0x00, 0x80];
        let update = sign_update(Target::fc4().dialect, &hung, 2, KEY);
        let report =
            device.apply_update(&update.wire_bytes(), &mut clean(), &mut PowerCut::never());
        assert_eq!(
            report.status,
            UpdateStatus::Rejected(RejectReason::Inadmissible)
        );
        assert_eq!(device.boot().unwrap().metadata.version, 1);
    }

    #[test]
    fn power_cut_during_staging_keeps_the_old_image() {
        let mut device = provisioned_device();
        let v2 = sign_update(Target::fc4().dialect, &kernel_bytes(), 2, KEY);
        let mut power = PowerCut::at_write(40, 1234);
        let report = device.apply_update(&v2.wire_bytes(), &mut clean(), &mut power);
        assert_eq!(report.status, UpdateStatus::Interrupted);
        let boot = device.boot().unwrap();
        assert_eq!(boot.metadata.version, 1, "old image boots");
        assert_eq!(boot.slot, Slot::A);
    }

    #[test]
    fn power_cut_during_background_scrub_never_loses_the_active_image() {
        // Satellite property for in-field health management: background
        // scrubbing runs continuously, so supply collapses land mid-heal
        // as readily as mid-update. A heal write differs from the stored
        // word in exactly its one failing bit, so any torn interleaving
        // yields either the old (still correctable) or the new (clean)
        // word — sweep a cut over every heal write and the last
        // authenticated image must always survive.
        let baseline = {
            let device = provisioned_device();
            let slot = device.store().active_slot().unwrap();
            device.store().authenticate(slot, KEY).unwrap()
        };
        // single-bit upsets across the active slot, metadata page included
        let seed_flips = |device: &mut Device| -> u64 {
            let slot = device.store().active_slot().unwrap();
            let store = device.store_mut().slot_mut(slot);
            let mut flipped = 0;
            for word in (0..store.len()).step_by(8) {
                store.flip_bit(word, (word % 13) as u8);
                flipped += 1;
            }
            flipped
        };
        let heals = {
            let mut device = provisioned_device();
            let flips = seed_flips(&mut device);
            let slot = device.store().active_slot().unwrap();
            let report = device.store_mut().slot_mut(slot).scrub();
            assert_eq!(
                report.corrected as u64, flips,
                "every upset is a one-bit heal"
            );
            assert_eq!(report.uncorrectable, 0);
            flips
        };
        assert!(heals > 8, "sweep must cover a non-trivial scrub");
        for cut in 0..=heals {
            let mut device = provisioned_device();
            seed_flips(&mut device);
            let slot = device.store().active_slot().unwrap();
            let mut power = PowerCut::at_write(cut, 0x5C_0BB1 ^ cut);
            let report = device.store_mut().slot_mut(slot).scrub_with(&mut power);
            assert_eq!(
                report.uncorrectable, 0,
                "cut {cut}: a torn heal never worsens a word"
            );
            let boot = device
                .boot()
                .unwrap_or_else(|_| panic!("cut {cut}: device bricked"));
            assert_eq!(boot.metadata.version, 1, "cut {cut}");
            let slot = device.store().active_slot().unwrap();
            let healed = device.store().authenticate(slot, KEY).unwrap();
            assert_eq!(
                healed, baseline,
                "cut {cut}: image must match pre-upset state"
            );
        }
    }

    #[test]
    fn power_cut_at_every_commit_word_still_boots_an_authenticated_image() {
        let wire = sign_update(Target::fc4().dialect, &kernel_bytes(), 2, KEY).wire_bytes();
        // the transfer writes wire.len() words; the three commit words
        // follow. Cut at each one (and the word after the end).
        let transfer_writes = wire.len() as u64;
        for offset in 0..4 {
            let mut device = provisioned_device();
            let mut power = PowerCut::at_write(transfer_writes + offset, 55 + offset);
            let report = device.apply_update(&wire, &mut clean(), &mut power);
            let boot = device.boot().unwrap();
            match offset {
                // cut on stage-mark, set-active or clear-marker: the
                // commit point is the marker erase, so only a cut that
                // never reached it may roll back
                0..=2 => {
                    assert_eq!(report.status, UpdateStatus::Interrupted, "offset {offset}");
                    assert!(
                        boot.metadata.version == 1 || boot.metadata.version == 2,
                        "offset {offset}: v{}",
                        boot.metadata.version
                    );
                    if offset < 2 {
                        assert_eq!(
                            boot.metadata.version, 1,
                            "before set-active the old image must boot"
                        );
                    }
                }
                _ => {
                    assert_eq!(
                        report.status,
                        UpdateStatus::Applied { version: 2 },
                        "a cut after the last word changes nothing"
                    );
                    assert_eq!(boot.metadata.version, 2);
                }
            }
        }
    }
}

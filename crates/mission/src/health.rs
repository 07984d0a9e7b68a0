//! Per-die health accounting from telemetry the platform already emits.
//!
//! The health monitor consumes only signals an off-chip programming
//! board can observe — which NMR lane dissented from the vote
//! (`flexresilient`), which lane crashed or tripped the watchdog
//! (`flexicore::exec`) — and folds them into a small saturating score.
//! Scores are deliberately integer and tiny: the board in the paper is
//! itself a flexible circuit, so the policy must be implementable in a
//! handful of counters, not a float filter.

/// What one mission tick revealed about one lane's die.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneTelemetry {
    /// The lane dissented from the voted output or end state.
    pub dissented: bool,
    /// The lane's simulator faulted (crash).
    pub crashed: bool,
    /// The lane tripped the watchdog budget (hang).
    pub hung: bool,
}

impl LaneTelemetry {
    /// A tick in which the lane agreed everywhere and retired cleanly.
    #[must_use]
    pub fn clean() -> Self {
        LaneTelemetry::default()
    }
}

/// Discretized die health, thresholded from the monitor score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HealthState {
    /// Full marks or close to them: no reaction warranted.
    Healthy,
    /// Repeated trouble: worth watching, not yet worth lanes.
    Degraded,
    /// Trouble dominates: the die must re-screen before it is trusted.
    Critical,
    /// Retired. The die takes no further part in the mission.
    Failed,
}

/// Saturating per-die health score.
///
/// The score starts at [`HealthMonitor::MAX`] and moves by fixed
/// penalties (dissent 3, hang 4, crash 5 — ordered by how strongly each
/// symptom predicts a permanent fault rather than a transient) and a +1
/// recovery per clean tick, so one bend-event transient heals away in a
/// few quiet ticks while accumulating wear drags the die down faster
/// than it can recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthMonitor {
    score: u8,
}

impl HealthMonitor {
    /// Score ceiling (and starting value).
    pub const MAX: u8 = 16;

    /// A fresh monitor at full health.
    #[must_use]
    pub fn new() -> Self {
        HealthMonitor { score: Self::MAX }
    }

    /// Current score, `0..=MAX`.
    #[must_use]
    pub fn score(&self) -> u8 {
        self.score
    }

    /// Fold one tick's telemetry into the score.
    pub fn observe(&mut self, telemetry: LaneTelemetry) {
        let mut penalty = 0u8;
        if telemetry.dissented {
            penalty += 3;
        }
        if telemetry.hung {
            penalty += 4;
        }
        if telemetry.crashed {
            penalty += 5;
        }
        if penalty == 0 {
            self.score = (self.score + 1).min(Self::MAX);
        } else {
            self.score = self.score.saturating_sub(penalty);
        }
    }

    /// A passed re-screen restores full trust: the die just proved
    /// itself against directed + random vectors, which is strictly
    /// stronger evidence than any score history.
    pub fn rescreen_passed(&mut self) {
        self.score = Self::MAX;
    }

    /// Retire the die permanently.
    pub fn mark_failed(&mut self) {
        self.score = 0;
    }

    /// Threshold the score into a [`HealthState`].
    #[must_use]
    pub fn state(&self) -> HealthState {
        match self.score {
            12..=u8::MAX => HealthState::Healthy,
            6..=11 => HealthState::Degraded,
            1..=5 => HealthState::Critical,
            0 => HealthState::Failed,
        }
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_die_is_healthy_and_saturates_at_max() {
        let mut m = HealthMonitor::new();
        assert_eq!(m.state(), HealthState::Healthy);
        for _ in 0..8 {
            m.observe(LaneTelemetry::clean());
        }
        assert_eq!(m.score(), HealthMonitor::MAX, "clean ticks cannot overflow");
    }

    #[test]
    fn transients_heal_but_repeated_trouble_descends_the_states() {
        let mut m = HealthMonitor::new();
        m.observe(LaneTelemetry {
            dissented: true,
            ..LaneTelemetry::clean()
        });
        assert_eq!(m.score(), 13);
        assert_eq!(m.state(), HealthState::Healthy, "one dissent is tolerated");
        for _ in 0..3 {
            m.observe(LaneTelemetry::clean());
        }
        assert_eq!(m.score(), HealthMonitor::MAX, "a transient heals away");

        // a permanently faulty die dissents every tick and cannot heal
        let mut worn = HealthMonitor::new();
        let mut seen = vec![worn.state()];
        for _ in 0..6 {
            worn.observe(LaneTelemetry {
                dissented: true,
                ..LaneTelemetry::clean()
            });
            seen.push(worn.state());
        }
        assert!(seen.contains(&HealthState::Degraded));
        assert!(seen.contains(&HealthState::Critical));
        assert_eq!(*seen.last().unwrap(), HealthState::Failed);
    }

    #[test]
    fn crash_outranks_hang_outranks_dissent() {
        let penalty = |t: LaneTelemetry| {
            let mut m = HealthMonitor::new();
            m.observe(t);
            HealthMonitor::MAX - m.score()
        };
        let dissent = penalty(LaneTelemetry {
            dissented: true,
            ..LaneTelemetry::clean()
        });
        let hang = penalty(LaneTelemetry {
            hung: true,
            ..LaneTelemetry::clean()
        });
        let crash = penalty(LaneTelemetry {
            crashed: true,
            ..LaneTelemetry::clean()
        });
        assert!(dissent < hang && hang < crash);
        // symptoms stack: a crashed + dissenting lane is worst of all
        let both = penalty(LaneTelemetry {
            dissented: true,
            crashed: true,
            hung: false,
        });
        assert_eq!(both, dissent + crash);
    }

    #[test]
    fn rescreen_and_retirement_are_absolute() {
        let mut m = HealthMonitor::new();
        for _ in 0..4 {
            m.observe(LaneTelemetry {
                crashed: true,
                ..LaneTelemetry::clean()
            });
        }
        assert_eq!(m.state(), HealthState::Failed);
        m.rescreen_passed();
        assert_eq!(m.state(), HealthState::Healthy);
        m.mark_failed();
        assert_eq!(m.state(), HealthState::Failed);
        assert_eq!(m.score(), 0);
    }
}

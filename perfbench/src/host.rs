//! The host's speed, probed between timed units.
//!
//! The benchmark runs on shared virtual hosts whose CPUs run 1.2–1.9×
//! slower for stretches of seconds to minutes, with no steal time to
//! show for it. A run that falls inside such a stretch reads slow however
//! its samples are summarized. So a fixed probe loop, which shares no
//! code with the stack under test, is timed before the first timed unit
//! and again between units, at most every [`PROBE_EVERY`] seconds. A
//! unit's seconds are divided by the host's slowness around it: the mean
//! of the probes on either side, each over the probe's nominal seconds.
//! Scaled figures read as seconds of a host at nominal speed. A change to
//! the stack moves them as it moves raw time, because the probe does not
//! change with it.
//!
//! The slow stretches are mostly memory contention: a unit's log time
//! moves with a probe's log time at a slope that depends on the probe's
//! working set. Measured within runs, inject-hang and yield-salvage move
//! at slope 1.06–1.07 against a 16 MiB probe table but about 2 against a
//! 256 KiB one; inject-sweep at 0.96 against 4 MiB and 0.6–0.7 against
//! 16 MiB; the daemon at 0.8 against 256 KiB and 0.4 against 16 MiB. Each
//! workload therefore takes the [`Probe`] whose slope is nearest 1.
//!
//! The daemon also spends about half of a round in fsync'd cache writes,
//! and the disk has slow stretches of its own. Its probe adds a few
//! fsync'd writes on the same file system, and its slowness weighs the
//! two parts as the traced split weighs cache writes against the rest.

use std::fs::{self, File};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Probe iterations: 2–3 ms of work at nominal speed.
const PROBE_ITERS: u32 = 200_000;

/// Seconds between probes at least, so short units share a probe and
/// probing costs under a tenth of the run.
pub const PROBE_EVERY: f64 = 0.05;

/// Probes before the first that counts: they warm the caches.
const WARM_UP: usize = 8;

/// fsync'd writes per disk probe, each a temp file renamed into place as
/// the daemon's cache writes are.
const DISK_WRITES: usize = 4;

/// Bytes per disk-probe write: a typical cached reply.
const DISK_BYTES: usize = 256;

/// Seconds the disk probe takes at nominal speed (the fastest tenth of
/// fsync'd writes on an ext4 virtual disk).
const NOMINAL_DISK_SECS: f64 = DISK_WRITES as f64 * 0.000_15;

/// The share of [`Probe::Daemon`]'s slowness that its disk part carries.
const DISK_SHARE: f64 = 0.5;

/// What the probe exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// A 16 MiB table: beyond the second-level cache and the page-walk
    /// cache's reach.
    Large,
    /// A 4 MiB table: beyond the second-level cache.
    Medium,
    /// A 256 KiB table, beyond the first-level cache, plus fsync'd writes
    /// in the working directory's scratch space.
    Daemon,
}

impl Probe {
    fn table_words(self) -> usize {
        match self {
            Probe::Large => 1 << 21,
            Probe::Medium => 1 << 19,
            Probe::Daemon => 1 << 15,
        }
    }

    /// Reference seconds of the table loop: near its time in the fast
    /// stretches of a 2-vCPU virtual x86-64 host at 2.1 GHz. Only the
    /// scale of the scaled figures depends on it.
    fn nominal_secs(self) -> f64 {
        match self {
            Probe::Large => 0.0024,
            Probe::Medium => 0.0022,
            Probe::Daemon => 0.0019,
        }
    }

    /// The probe table's size in MiB, which the process's peak resident
    /// set carries on top of the workload's.
    #[must_use]
    pub fn table_mib(self) -> f64 {
        (self.table_words() * std::mem::size_of::<u64>()) as f64 / f64::from(1 << 20)
    }
}

/// A unit's raw seconds and the last probe before it began.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall seconds.
    pub raw: f64,
    before: usize,
}

/// One reading: the slowness of the table loop and of the disk part
/// (the table loop's again when the probe has none).
#[derive(Debug, Clone, Copy)]
struct Reading {
    cpu: f64,
    disk: f64,
}

impl Reading {
    fn slowness(self) -> f64 {
        (1.0 - DISK_SHARE) * self.cpu + DISK_SHARE * self.disk
    }
}

/// The probe, and every slowness it has read.
#[derive(Debug)]
pub struct HostClock {
    probe: Probe,
    table: Vec<u64>,
    state: u64,
    /// Where the disk part writes; removed on drop.
    disk: Option<PathBuf>,
    last: Instant,
    readings: Vec<Reading>,
}

impl Drop for HostClock {
    fn drop(&mut self) {
        if let Some(dir) = &self.disk {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

impl HostClock {
    /// A warmed-up `probe` that has read the host once.
    ///
    /// # Errors
    ///
    /// The disk part's directory cannot be made, or a write in it fails.
    pub fn new(probe: Probe) -> Result<HostClock, String> {
        let disk = (probe == Probe::Daemon)
            .then(|| crate::scratch_dir().join(format!("probe-{}", std::process::id())));
        let mut clock = HostClock {
            probe,
            // Non-zero, so every page is resident before the first probe.
            table: vec![1; probe.table_words()],
            state: 0x9E37_79B9_7F4A_7C15,
            disk,
            last: Instant::now(),
            readings: Vec::new(),
        };
        if let Some(dir) = &clock.disk {
            fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            clock
                .write_disk()
                .map_err(|e| format!("disk probe in {}: {e}", dir.display()))?;
        }
        for _ in 0..WARM_UP {
            clock.read();
        }
        clock.readings.clear();
        clock.read();
        Ok(clock)
    }

    /// The disk part: [`DISK_WRITES`] fsync'd writes, each renamed over
    /// one of a few entries. Returns its seconds.
    fn write_disk(&self) -> std::io::Result<f64> {
        let Some(dir) = &self.disk else {
            return Ok(0.0);
        };
        let t = Instant::now();
        for i in 0..DISK_WRITES {
            let tmp = dir.join("tmp");
            let mut f = File::create(&tmp)?;
            f.write_all(&[0x5A; DISK_BYTES])?;
            f.sync_all()?;
            fs::rename(&tmp, dir.join(format!("entry-{i}")))?;
        }
        Ok(t.elapsed().as_secs_f64())
    }

    /// The probe this clock runs.
    #[must_use]
    pub fn probe(&self) -> Probe {
        self.probe
    }

    /// Run the probe loop once: data-dependent branches and independent
    /// loads and stores at random slots of the table.
    fn spin(&mut self) -> u64 {
        let mask = self.table.len() - 1;
        let (mut x, mut acc) = (self.state, 0u64);
        for i in 0..PROBE_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & mask;
            let v = self.table[slot];
            acc = match x >> 62 {
                0 => acc.wrapping_add(v ^ x),
                1 => acc.rotate_left(5) ^ v,
                2 => acc.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ u64::from(i),
                _ => acc.wrapping_sub(v) | 1,
            };
            self.table[slot] = v.wrapping_add(acc);
        }
        self.state = x;
        std::hint::black_box(acc)
    }

    /// Time one probe and record the host's slowness: each part's
    /// seconds over its nominal seconds. A disk write that fails leaves
    /// the reading to the table loop.
    pub fn read(&mut self) {
        let t = Instant::now();
        self.spin();
        let cpu = t.elapsed().as_secs_f64() / self.probe.nominal_secs();
        let disk = match self.write_disk() {
            Ok(secs) if self.disk.is_some() => secs / NOMINAL_DISK_SECS,
            _ => cpu,
        };
        self.last = Instant::now();
        self.readings.push(Reading { cpu, disk });
    }

    /// Run `unit` and time it, then probe if [`PROBE_EVERY`] has passed
    /// since the last probe. Scale the timing with [`HostClock::scaled`]
    /// once a probe has followed it.
    pub fn time<T>(&mut self, unit: impl FnOnce() -> T) -> (T, Timed) {
        let mark = self.mark();
        let t = Instant::now();
        let out = unit();
        let raw = t.elapsed().as_secs_f64();
        (out, self.timed(mark, raw))
    }

    /// Where a unit whose timed region has gaps begins: pass it to
    /// [`HostClock::timed`] with the seconds of its timed region.
    #[must_use]
    pub fn mark(&self) -> usize {
        self.readings.len() - 1
    }

    /// The timing of a unit begun at `mark` that took `raw` seconds, as
    /// [`HostClock::time`] returns it, probing if one is due.
    pub fn timed(&mut self, mark: usize, raw: f64) -> Timed {
        if self.last.elapsed().as_secs_f64() >= PROBE_EVERY {
            self.read();
        }
        Timed { raw, before: mark }
    }

    /// Probe now, so every unit timed so far has a probe after it.
    pub fn close(&mut self) {
        self.read();
    }

    /// `timed`'s seconds at nominal host speed. A unit that no probe has
    /// followed yet is scaled by the probe before it alone.
    #[must_use]
    pub fn scaled(&self, timed: Timed) -> f64 {
        self.scaled_by(timed, Reading::slowness)
    }

    /// `timed`'s seconds at nominal speed of the table loop alone, for
    /// work that never waits on the disk.
    #[must_use]
    pub fn scaled_cpu(&self, timed: Timed) -> f64 {
        self.scaled_by(timed, |r| r.cpu)
    }

    fn scaled_by(&self, timed: Timed, slowness: fn(Reading) -> f64) -> f64 {
        let before = slowness(self.readings[timed.before]);
        let after = self
            .readings
            .get(timed.before + 1)
            .map_or(before, |&r| slowness(r));
        timed.raw / ((before + after) / 2.0)
    }

    /// Each of `timed` scaled, as [`HostClock::scaled`].
    #[must_use]
    pub fn all_scaled(&self, timed: &[Timed]) -> Vec<f64> {
        timed.iter().map(|&t| self.scaled(t)).collect()
    }

    /// The median slowness read so far (for notes).
    #[must_use]
    pub fn median_slowness(&self) -> f64 {
        let all: Vec<f64> = self.readings.iter().map(|&r| r.slowness()).collect();
        crate::report::median(&all)
    }
}

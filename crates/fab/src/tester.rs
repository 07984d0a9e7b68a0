//! The virtual probe station (paper §4.1, Figure 5).
//!
//! Each die is tested against "over 100,000 cycles of random and directed
//! test vectors"; a die is fully functional iff **zero** differences are
//! observed between its outputs and the golden RTL behaviour across all
//! vectors. Here the golden reference is lane 0 of the batch simulator
//! (the fault-free netlist) and up to 63 defective dies ride in the other
//! lanes of the same simulation. A die with no injected defect is never
//! simulated: no lane reads another lane's bit, so a fault-free lane
//! holds lane 0's word on every net and its defect mismatch count is zero
//! by construction.
//!
//! Timing is checked separately: a die whose variation-scaled fmax falls
//! below the 12.5 kHz test clock produces output errors proportional to
//! its shortfall (a slow die misses capture on some fraction of cycles).

use crate::calibration::timing::TEST_CLOCK_HZ;
use crate::error::FabError;
use crate::variation::DieVariation;
use core::ops::ControlFlow;
use flexgate::fault::random_sites;
use flexgate::netlist::{Net, Netlist};
use flexgate::sim::BatchSim;
use flexgate::timing::{analyze, DelayModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How many vectors to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestPlan {
    /// Cycles of directed vectors (sweep of every instruction byte with
    /// varying input-port data).
    pub directed_cycles: u64,
    /// Cycles of fully random vectors.
    pub random_cycles: u64,
    /// Stimulus seed.
    pub seed: u64,
}

impl TestPlan {
    /// The paper's full plan: >100 000 cycles.
    #[must_use]
    pub fn full() -> TestPlan {
        TestPlan {
            directed_cycles: 4_096,
            random_cycles: 100_000,
            seed: 0xD1E5,
        }
    }

    /// A reduced plan for unit tests.
    #[must_use]
    pub fn quick(cycles: u64) -> TestPlan {
        TestPlan {
            directed_cycles: 512.min(cycles / 2),
            random_cycles: cycles,
            seed: 0xD1E5,
        }
    }

    /// The in-field re-screen plan: the stimulus budget a deployed die
    /// can afford to spend on a self-test between mission ticks. Far
    /// shorter than [`TestPlan::full`] — the health manager is asking
    /// "did a *new* fault appear on a die that already passed the fab
    /// screen?", not re-qualifying the wafer — but drawn from the same
    /// directed-then-random stimulus family, with its own seed so
    /// in-field vectors don't simply replay the fab's.
    #[must_use]
    pub fn self_test() -> TestPlan {
        TestPlan {
            directed_cycles: 64,
            random_cycles: 192,
            seed: 0xF1E1D,
        }
    }

    /// Total cycles applied.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.directed_cycles + self.random_cycles
    }

    /// The `(instr, iport)` stimulus for one cycle: a directed sweep of
    /// the instruction space first, then seeded random vectors.
    fn stimulus(&self, cycle: u64, rng: &mut StdRng) -> (u64, u64) {
        if cycle < self.directed_cycles {
            // directed: walk the instruction space with a sliding input
            ((cycle % 256), (cycle / 256) & 0xFF)
        } else {
            (rng.gen_range(0..256u64), rng.gen_range(0..256u64))
        }
    }
}

/// Test outcome for one die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DieOutcome {
    /// Output mismatches caused by manufacturing defects.
    pub defect_errors: u64,
    /// Output mismatches caused by missing timing at the test clock.
    pub timing_errors: u64,
}

impl DieOutcome {
    /// Total observed output errors.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.defect_errors + self.timing_errors
    }

    /// The paper's pass criterion: zero errors across all vectors.
    #[must_use]
    pub fn functional(&self) -> bool {
        self.errors() == 0
    }
}

/// The tester for one core design.
#[derive(Debug)]
pub struct Tester<'a> {
    netlist: &'a Netlist,
    plan: TestPlan,
    path_units: f64,
    delay_model: DelayModel,
}

impl<'a> Tester<'a> {
    /// A tester over `netlist` with the given plan.
    ///
    /// # Errors
    ///
    /// [`FabError::Netlist`] if the netlist fails integrity validation.
    /// Timing analysis and the batch simulator reject exactly the same
    /// netlists (both fail only through
    /// [`levelize`](flexgate::netlist::Netlist::levelize)), so a
    /// successfully constructed tester cannot fail later.
    pub fn new(netlist: &'a Netlist, plan: TestPlan) -> Result<Self, FabError> {
        let path_units = analyze(netlist)?.critical_path_units;
        Ok(Tester {
            netlist,
            plan,
            path_units,
            delay_model: DelayModel::igzo(),
        })
    }

    /// Nominal fmax of the design at `voltage` (Table 4's clock row checks
    /// against this).
    #[must_use]
    pub fn nominal_fmax_hz(&self, voltage: f64) -> f64 {
        self.delay_model
            .fmax_hz(self.path_units, voltage, self.delay_model.vth_nom)
    }

    /// Test every die of `dies` at `voltage`.
    ///
    /// # Errors
    ///
    /// [`FabError::Voltage`] unless `voltage` is finite and above the
    /// nominal threshold ([`DelayModel::vth_nom`]); no vector runs then.
    /// [`FabError::Netlist`] if the batch simulator rejects the netlist.
    /// [`Tester::new`] runs the same validation, so that only fires if
    /// the netlist was mutated behind the tester's back.
    pub fn test_wafer(
        &self,
        dies: &[DieVariation],
        voltage: f64,
    ) -> Result<Vec<DieOutcome>, FabError> {
        self.test_wafer_with(dies, voltage, 1)
    }

    /// [`test_wafer`](Tester::test_wafer) across up to `threads` worker
    /// threads. Only dies with `defect_count > 0` are simulated, packed in
    /// wafer order into packs of up to 63; every clean die gets zero
    /// defect errors without a lane. The work unit is one pack — each pack
    /// owns its simulator and stimulus RNG, and pack results merge back in
    /// die order, so the outcome vector is bit-for-bit identical for every
    /// thread count. A wafer with no defective die runs no pack at all.
    ///
    /// # Errors
    ///
    /// Same conditions as [`test_wafer`](Tester::test_wafer).
    pub fn test_wafer_with(
        &self,
        dies: &[DieVariation],
        voltage: f64,
        threads: usize,
    ) -> Result<Vec<DieOutcome>, FabError> {
        if !(voltage.is_finite() && voltage > self.delay_model.vth_nom) {
            return Err(FabError::Voltage {
                volts: voltage,
                vth: self.delay_model.vth_nom,
            });
        }
        let defective: Vec<DieVariation> = dies
            .iter()
            .filter(|die| die.defect_count > 0)
            .copied()
            .collect();
        let packs: Vec<&[DieVariation]> = defective.chunks(63).collect();
        let per_pack = flexshard::map_indexed(packs.len(), threads, |i| self.test_chunk(packs[i]));
        let mut defect_errors = per_pack
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .flatten();
        Ok(dies
            .iter()
            .map(|die| DieOutcome {
                defect_errors: if die.defect_count > 0 {
                    defect_errors.next().expect("one count per defective die")
                } else {
                    0
                },
                timing_errors: self.timing_errors(die, voltage),
            })
            .collect())
    }

    /// Run the vector set once with up to 63 defective dies in lanes 1..;
    /// lane 0 is the golden reference. Returns per-die mismatch counts.
    fn test_chunk(&self, dies: &[DieVariation]) -> Result<Vec<u64>, FabError> {
        debug_assert!(dies.len() <= 63);
        let mut sim = BatchSim::new(self.netlist)?;
        for (i, die) in dies.iter().enumerate() {
            let lane = 1 << (i + 1);
            for site in random_sites(self.netlist, die.defect_count as usize, die.defect_seed) {
                sim.inject(site.net, site.stuck_at_one, lane);
            }
        }
        sim.reset();

        let dies_lanes = chunk_lanes(dies.len());
        let mut errors = vec![0u64; dies.len()];
        screen(&mut sim, &self.plan, |diverged| {
            let mut lanes = diverged & dies_lanes;
            while lanes != 0 {
                errors[lanes.trailing_zeros() as usize - 1] += 1;
                lanes &= lanes - 1;
            }
            ControlFlow::Continue(())
        });
        Ok(errors)
    }

    /// Errors from missed timing: zero when the die's fmax clears the test
    /// clock, otherwise a deterministic count growing with the shortfall.
    fn timing_errors(&self, die: &DieVariation, voltage: f64) -> u64 {
        let fmax = self.nominal_fmax_hz(voltage) / die.delay_factor;
        if fmax >= TEST_CLOCK_HZ {
            return 0;
        }
        let shortfall = ((TEST_CLOCK_HZ - fmax) / TEST_CLOCK_HZ).clamp(0.0, 1.0);
        // a marginal die fails on the small fraction of vectors that
        // excite the critical path; a hopeless die fails nearly everywhere
        let fail_rate = (0.002 + 0.6 * shortfall * shortfall).min(0.9);
        ((self.plan.total_cycles() as f64) * fail_rate).ceil() as u64
    }
}

/// The lanes 1..=`dies` a chunk's faulty dies ride in.
fn chunk_lanes(dies: usize) -> u64 {
    debug_assert!((1..=63).contains(&dies));
    (u64::MAX >> (64 - dies)) << 1
}

/// Every bit of the observed output buses, `pc` then `oport`: the nets a
/// screen compares against golden lane 0.
///
/// # Panics
///
/// Panics if the netlist lacks either port.
fn observed_nets(netlist: &Netlist) -> Vec<Net> {
    ["pc", "oport"]
        .into_iter()
        .flat_map(|port| {
            netlist
                .output_ports()
                .get(port)
                .unwrap_or_else(|| panic!("unknown output port `{port}`"))
        })
        .copied()
        .collect()
}

/// Drive `plan`'s stimulus through `sim`, one clock edge per cycle, and
/// hand `on_cycle` the set of lanes whose observed outputs differ from
/// golden lane 0 after each edge. Stops early once `on_cycle` breaks.
fn screen(
    sim: &mut BatchSim<'_>,
    plan: &TestPlan,
    mut on_cycle: impl FnMut(u64) -> ControlFlow<()>,
) {
    let observed = observed_nets(sim.netlist());
    let mut rng = StdRng::seed_from_u64(plan.seed);
    for cycle in 0..plan.total_cycles() {
        let (instr, iport) = plan.stimulus(cycle, &mut rng);
        sim.set_input_value("instr", instr, !0);
        sim.set_input_value("iport", iport, !0);
        sim.clock();
        let diverged = observed.iter().fold(0, |acc, &net| {
            acc | sim.net_slice(net).lanes_differing_from(0)
        });
        if on_cycle(diverged).is_break() {
            return;
        }
    }
}

/// Stuck-at fault coverage of a test plan on a netlist: the fraction of
/// all single stuck-at faults that produce at least one output mismatch
/// under the plan's vectors.
///
/// This quantifies the §4.1 claim that the directed+random vector set
/// "stimulates all regions of the cores": a die counted functional by
/// [`Tester::test_wafer`] may still carry a defect the vectors never
/// excited, and this number bounds how often that happens.
///
/// # Errors
///
/// [`FabError::Netlist`] if the netlist fails integrity validation.
pub fn fault_coverage(netlist: &Netlist, plan: TestPlan) -> Result<f64, FabError> {
    let tester = Tester::new(netlist, plan)?;
    let sites = flexgate::fault::sites(netlist);
    if sites.is_empty() {
        return Ok(1.0);
    }
    // one compiled simulator serves every 63-site chunk
    let mut sim = BatchSim::new(netlist)?;
    let mut detected = 0;
    for chunk in sites.chunks(63) {
        sim.clear_faults();
        for (i, site) in chunk.iter().enumerate() {
            sim.inject(site.net, site.stuck_at_one, 1 << (i + 1));
        }
        sim.reset();
        let all = chunk_lanes(chunk.len());
        let mut seen = 0;
        screen(&mut sim, &tester.plan, |diverged| {
            seen |= diverged & all;
            if seen == all {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        detected += seen.count_ones() as usize;
    }
    Ok(detected as f64 / sites.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variation::DieVariation;

    fn clean_die() -> DieVariation {
        DieVariation {
            defect_count: 0,
            defect_seed: 1,
            delay_factor: 1.0,
            current_factor: 1.0,
            defect_leak_ma: 0.0,
        }
    }

    #[test]
    fn self_test_plan_is_a_short_distinct_stimulus() {
        let plan = TestPlan::self_test();
        assert_eq!(plan.total_cycles(), 256, "a between-ticks budget");
        assert!(plan.total_cycles() < TestPlan::full().total_cycles() / 100);
        assert_ne!(
            plan.seed,
            TestPlan::full().seed,
            "in-field vectors must not replay the fab's"
        );
        // the plan still drives the gate-level tester
        let netlist = flexrtl::build_fc4();
        let tester = Tester::new(&netlist, plan).unwrap();
        let out = tester.test_wafer(&[clean_die(); 2], 4.5).unwrap();
        assert!(out.iter().all(DieOutcome::functional));
    }

    #[test]
    fn clean_dies_pass_at_both_voltages() {
        let netlist = flexrtl::build_fc4();
        let tester = Tester::new(&netlist, TestPlan::quick(500)).unwrap();
        for v in [3.0, 4.5] {
            let out = tester.test_wafer(&[clean_die(); 5], v).unwrap();
            assert!(out.iter().all(DieOutcome::functional), "at {v} V: {out:?}");
        }
    }

    #[test]
    fn defective_dies_usually_fail() {
        let netlist = flexrtl::build_fc4();
        let tester = Tester::new(&netlist, TestPlan::quick(2_000)).unwrap();
        let dies: Vec<DieVariation> = (0..40)
            .map(|i| DieVariation {
                defect_count: 2,
                defect_seed: 1000 + i,
                ..clean_die()
            })
            .collect();
        let out = tester.test_wafer(&dies, 4.5).unwrap();
        let failing = out.iter().filter(|o| !o.functional()).count();
        assert!(failing >= 30, "only {failing}/40 defective dies failed");
        // failing dies show many errors, like Figure 6's hot dies
        assert!(out.iter().any(|o| o.defect_errors > 50));
    }

    #[test]
    fn slow_dies_fail_only_at_low_voltage() {
        let netlist = flexrtl::build_fc4();
        let tester = Tester::new(&netlist, TestPlan::quick(500)).unwrap();
        let slow = DieVariation {
            delay_factor: 1.3,
            ..clean_die()
        };
        let at45 = tester.test_wafer(&[slow], 4.5).unwrap();
        assert!(at45[0].functional(), "{at45:?}");
        let at30 = tester.test_wafer(&[slow], 3.0).unwrap();
        assert!(!at30[0].functional(), "{at30:?}");
        assert!(at30[0].timing_errors > 0);
    }

    #[test]
    fn fc8_nominal_timing_fails_at_3v_but_not_fc4() {
        let fc4 = flexrtl::build_fc4();
        let fc8 = flexrtl::build_fc8();
        let t4 = Tester::new(&fc4, TestPlan::quick(100)).unwrap();
        let t8 = Tester::new(&fc8, TestPlan::quick(100)).unwrap();
        assert!(t4.nominal_fmax_hz(3.0) > TEST_CLOCK_HZ);
        assert!(t8.nominal_fmax_hz(3.0) < TEST_CLOCK_HZ);
        assert!(t8.nominal_fmax_hz(4.5) > TEST_CLOCK_HZ);
    }

    #[test]
    fn voltages_no_die_can_switch_at_are_rejected() {
        let netlist = flexrtl::build_fc4();
        let tester = Tester::new(&netlist, TestPlan::quick(100)).unwrap();
        let vth = DelayModel::igzo().vth_nom;
        for v in [0.0, -1.0, vth, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = tester.test_wafer(&[clean_die()], v).unwrap_err();
            assert!(matches!(err, FabError::Voltage { .. }), "{v} V: {err}");
        }
        // an empty wafer is still checked, so the error never depends on
        // how many dies there are
        assert!(tester.test_wafer(&[], 0.0).is_err());
        assert!(tester.test_wafer(&[clean_die()], vth + 0.5).is_ok());
    }

    #[test]
    fn more_than_63_dies_are_chunked() {
        let netlist = flexrtl::build_fc4();
        let tester = Tester::new(&netlist, TestPlan::quick(200)).unwrap();
        let dies = vec![clean_die(); 130];
        let out = tester.test_wafer(&dies, 4.5).unwrap();
        assert_eq!(out.len(), 130);
        assert!(out.iter().all(DieOutcome::functional));
    }

    #[test]
    fn threaded_screen_is_bit_identical_to_serial() {
        let netlist = flexrtl::build_fc4();
        let tester = Tester::new(&netlist, TestPlan::quick(400)).unwrap();
        // five chunks' worth of defective dies so threads matter
        let dies: Vec<DieVariation> = (0..300)
            .map(|i| DieVariation {
                defect_count: u32::from(i % 3 == 0),
                defect_seed: 7 + i,
                ..clean_die()
            })
            .collect();
        let serial = tester.test_wafer(&dies, 4.5).unwrap();
        let threaded = tester.test_wafer_with(&dies, 4.5, 8).unwrap();
        assert_eq!(serial, threaded);
    }

    /// 150 dies, every other one defective: 75 defective dies fill one
    /// 63-die pack and spill into a second, with a clean die between
    /// each pair of defective ones; every seventh die is slow.
    fn mixed_wafer() -> Vec<DieVariation> {
        (0..150)
            .map(|i: u64| DieVariation {
                defect_count: if i.is_multiple_of(2) {
                    1 + (i % 3) as u32
                } else {
                    0
                },
                defect_seed: 500 + i,
                delay_factor: if i.is_multiple_of(7) { 1.3 } else { 1.0 },
                ..clean_die()
            })
            .collect()
    }

    #[test]
    fn each_die_screens_as_it_would_alone() {
        let netlist = flexrtl::build_fc4();
        let tester = Tester::new(&netlist, TestPlan::quick(300)).unwrap();
        let dies = mixed_wafer();
        assert!(dies.iter().filter(|d| d.defect_count > 0).count() > 63);
        let wafer = tester.test_wafer(&dies, 3.0).unwrap();
        assert_eq!(wafer.len(), dies.len());
        for (i, (die, outcome)) in dies.iter().zip(&wafer).enumerate() {
            let alone = tester.test_wafer(&[*die], 3.0).unwrap();
            assert_eq!(*outcome, alone[0], "die {i}");
        }
        // both packs and both error kinds are exercised
        assert!(wafer[..126].iter().any(|o| o.defect_errors > 0));
        assert!(wafer[126..].iter().any(|o| o.defect_errors > 0));
        assert!(wafer.iter().any(|o| o.timing_errors > 0));
        assert_eq!(tester.test_wafer_with(&dies, 3.0, 8).unwrap(), wafer);
    }

    #[test]
    fn all_clean_wafer_needs_no_pack() {
        let netlist = flexrtl::build_fc4();
        let tester = Tester::new(&netlist, TestPlan::quick(200)).unwrap();
        let dies: Vec<DieVariation> = (0..100)
            .map(|i| DieVariation {
                delay_factor: 1.0 + f64::from(i) * 0.005,
                ..clean_die()
            })
            .collect();
        for v in [3.0, 4.5] {
            let out = tester.test_wafer_with(&dies, v, 3).unwrap();
            assert_eq!(out.len(), dies.len());
            for (die, outcome) in dies.iter().zip(&out) {
                assert_eq!(outcome.defect_errors, 0, "at {v} V");
                assert_eq!(outcome.timing_errors, tester.timing_errors(die, v));
            }
            assert_eq!(out.iter().any(|o| o.timing_errors > 0), v == 3.0);
        }
    }

    #[test]
    fn vector_set_covers_most_stuck_at_faults() {
        // §4.1: the vectors must stimulate all regions of the core
        let netlist = flexrtl::build_fc4();
        let coverage = fault_coverage(&netlist, TestPlan::quick(4_000)).unwrap();
        assert!(coverage > 0.85, "stuck-at coverage {coverage:.3}");
    }
}

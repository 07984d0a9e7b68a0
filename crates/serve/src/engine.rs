//! Request execution: the pure computations behind the daemon.
//!
//! Every method here is a deterministic function of the request core —
//! that is the property that makes exact content-addressed caching
//! sound, and it holds because the underlying toolchain is already
//! seed-deterministic (wafers from [`flexfab`], salvage screens from
//! [`flexinject`], simulation from [`flexicore`]). Verdicts come back
//! as [`Reply`] values: `Ok` and deterministic `Error` replies are both
//! cacheable; only service conditions (shed, deadline, panic) are not,
//! and those are produced by the server layer, not here.
//!
//! Long campaigns (simulation, wafer screens) poll a [`Deadline`]
//! between bounded chunks so a deadline cannot be overshot by more than
//! one chunk.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flexasm::{Assembler, Target};
use flexcheck::Severity;
use flexfab::wafer_run::{CoreDesign, WaferExperiment};
use flexicore::exec::AnyCore;
use flexicore::io::{RecordingOutput, ScriptedInput};
use flexicore::sim::NoFaults;
use flexinject::{SalvageConfig, SalvageScreen};

use crate::protocol::{Reply, Request};

/// Budget-units executed between deadline polls during simulation. On
/// fc4/fc8 these are cycles; on the extended dialects, retired
/// instructions — either way the poll interval stays sub-millisecond.
const SIM_CHUNK: u64 = 5_000;

/// A per-request deadline. `none()` never expires; `in_ms(0)` is also
/// treated as "no deadline" so the wire default of zero means
/// unlimited.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline.
    #[must_use]
    pub fn none() -> Deadline {
        Deadline { at: None }
    }

    /// Expire `ms` milliseconds from now; `0` means no deadline.
    #[must_use]
    pub fn in_ms(ms: u64) -> Deadline {
        if ms == 0 {
            Deadline::none()
        } else {
            Deadline {
                at: Some(Instant::now() + Duration::from_millis(ms)),
            }
        }
    }

    /// Has the deadline passed?
    #[must_use]
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }
}

fn map_deny(deny: u8) -> Severity {
    match deny {
        0 => Severity::Info,
        1 => Severity::Warning,
        _ => Severity::Error,
    }
}

/// The daemon's computation engine. Stateless with respect to results;
/// the only state is an amortization cache of prepared
/// [`SalvageScreen`]s (kernel assembly + fault-free baseline), which
/// never changes any answer.
#[derive(Debug, Default)]
pub struct Engine {
    screens: Mutex<HashMap<&'static str, Arc<SalvageScreen>>>,
}

impl Engine {
    /// A fresh engine.
    #[must_use]
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Execute one computation request. Never panics for malformed or
    /// hostile *inputs* — those come back as deterministic `Error`
    /// replies; [`Request::Boom`] panics by design (it exists to prove
    /// the worker isolation catches exactly that).
    #[must_use]
    pub fn execute(&self, request: &Request, deadline: &Deadline) -> Reply {
        if deadline.expired() {
            return Reply::deadline();
        }
        match request {
            Request::Assemble {
                dialect,
                features,
                source,
            } => assemble_reply(dialect, features, source),
            Request::Check {
                dialect,
                features,
                source,
                deny,
            } => check_reply(dialect, features, source, *deny),
            Request::Admit {
                dialect,
                features,
                source,
                deny,
            } => admit_reply(dialect, features, source, *deny),
            Request::Simulate {
                dialect,
                features,
                source,
                inputs,
                max_cycles,
            } => simulate_reply(dialect, features, source, inputs, *max_cycles, deadline),
            Request::Yield {
                design,
                voltage_mv,
                seed,
                cycles,
                salvage,
            } => self.yield_reply(design, *voltage_mv, *seed, *cycles, *salvage, deadline),
            Request::Vuln {
                dialect,
                features,
                source,
            } => vuln_reply(dialect, features, source),
            Request::Boom => panic!("boom: injected worker panic probe"),
            Request::Status | Request::Drain | Request::Batch(_) => {
                Reply::protocol("not a computation request")
            }
        }
    }

    fn screen_for(&self, design: CoreDesign) -> Result<Arc<SalvageScreen>, String> {
        // A panic elsewhere while holding this lock must not poison the
        // whole daemon's salvage path: take the inner value either way.
        let mut screens = self
            .screens
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(screen) = screens.get(design.name()) {
            return Ok(Arc::clone(screen));
        }
        let screen = Arc::new(
            SalvageScreen::new(design, SalvageConfig::default()).map_err(|e| e.to_string())?,
        );
        screens.insert(design.name(), Arc::clone(&screen));
        Ok(screen)
    }

    fn yield_reply(
        &self,
        design: &str,
        voltage_mv: u64,
        seed: u64,
        cycles: u64,
        salvage: bool,
        deadline: &Deadline,
    ) -> Reply {
        let Some(design) = CoreDesign::parse(design) else {
            return Reply::error(format!("unknown design `{design}` (fc4, fc8, fc4plus)"));
        };
        if cycles == 0 || cycles > 1_000_000 {
            return Reply::error(format!("cycles {cycles} out of range (1..=1000000)"));
        }
        let voltage = voltage_mv as f64 / 1000.0;
        let experiment = WaferExperiment::new(design, seed);
        if deadline.expired() {
            return Reply::deadline();
        }
        let run = match experiment.run_with(voltage, cycles, 1) {
            Ok(run) => run,
            Err(e) => return Reply::error(format!("wafer screen failed: {e}")),
        };
        let stats = run.current_stats();
        let mut text = format!(
            "design {} at {voltage:.3} V, seed {seed:#x}, {cycles} vectors\n\
             yield-full {:.4}\nyield-inclusion {:.4}\ncurrent-mean-ma {:.3}\n",
            design.name(),
            run.yield_full(),
            run.yield_inclusion(),
            stats.mean_ma,
        );
        if salvage {
            if deadline.expired() {
                return Reply::deadline();
            }
            let screen = match self.screen_for(design) {
                Ok(screen) => screen,
                Err(e) => return Reply::error(format!("salvage screen unavailable: {e}")),
            };
            let analysis = screen.analyze(&run);
            if deadline.expired() {
                return Reply::deadline();
            }
            let _ = std::fmt::Write::write_fmt(
                &mut text,
                format_args!(
                    "salvage-binary-yield {:.4}\nsalvage-partial-yield {:.4}\n",
                    analysis.binary_yield(true),
                    analysis.partial_yield(true),
                ),
            );
        }
        Reply::ok(text)
    }
}

fn parse_target(dialect: &str, features: &str) -> Result<Target, Reply> {
    Target::parse(dialect, features).map_err(|e| Reply::error(e.to_string()))
}

fn assemble_reply(dialect: &str, features: &str, source: &str) -> Reply {
    let target = match parse_target(dialect, features) {
        Ok(target) => target,
        Err(reply) => return reply,
    };
    match Assembler::new(target).assemble(source) {
        Ok(assembly) => {
            let text = format!(
                "assembled for {dialect}: {} instructions, {} bytes",
                assembly.static_instructions(),
                assembly.code_bytes(),
            );
            let data = assembly.into_program().as_bytes().to_vec();
            Reply {
                data,
                ..Reply::ok(text)
            }
        }
        Err(e) => Reply::error(e.to_string()),
    }
}

fn check_reply(dialect: &str, features: &str, source: &str, deny: u8) -> Reply {
    let target = match parse_target(dialect, features) {
        Ok(target) => target,
        Err(reply) => return reply,
    };
    let assembly = match Assembler::new(target).assemble(source) {
        Ok(assembly) => assembly,
        Err(e) => return Reply::error(e.to_string()),
    };
    let report = flexcheck::analyze(&target, assembly.program());
    let rendered = report.render();
    if report.has_at_least(map_deny(deny)) {
        Reply::error(rendered)
    } else {
        Reply::ok(rendered)
    }
}

fn admit_reply(dialect: &str, features: &str, source: &str, deny: u8) -> Reply {
    let target = match parse_target(dialect, features) {
        Ok(target) => target,
        Err(reply) => return reply,
    };
    let assembly = match Assembler::new(target).assemble(source) {
        Ok(assembly) => assembly,
        Err(e) => return Reply::error(e.to_string()),
    };
    match flexcheck::admit(&target, assembly.program(), map_deny(deny)) {
        Ok(()) => Reply::ok("admitted: no findings at or above the deny severity"),
        Err(findings) => {
            let mut text = format!(
                "refused: {} finding(s) at the deny severity\n",
                findings.len()
            );
            for finding in &findings {
                let _ = std::fmt::Write::write_fmt(&mut text, format_args!("{finding}\n"));
            }
            Reply::error(text)
        }
    }
}

fn vuln_reply(dialect: &str, features: &str, source: &str) -> Reply {
    let target = match parse_target(dialect, features) {
        Ok(target) => target,
        Err(reply) => return reply,
    };
    let assembly = match Assembler::new(target).assemble(source) {
        Ok(assembly) => assembly,
        Err(e) => return Reply::error(e.to_string()),
    };
    let report = flexcheck::vuln::analyze(&target, assembly.program());
    Reply {
        data: report.digest().to_be_bytes().to_vec(),
        ..Reply::ok(report.render())
    }
}

fn simulate_reply(
    dialect: &str,
    features: &str,
    source: &str,
    inputs: &[u8],
    max_cycles: u64,
    deadline: &Deadline,
) -> Reply {
    let target = match parse_target(dialect, features) {
        Ok(target) => target,
        Err(reply) => return reply,
    };
    if max_cycles == 0 || max_cycles > 100_000_000 {
        return Reply::error(format!(
            "max_cycles {max_cycles} out of range (1..=100000000)"
        ));
    }
    let assembly = match Assembler::new(target).assemble(source) {
        Ok(assembly) => assembly,
        Err(e) => return Reply::error(e.to_string()),
    };
    let mut core = AnyCore::for_dialect(target.dialect, target.features, assembly.into_program());
    let mut input = ScriptedInput::new(inputs.to_vec());
    let mut output = RecordingOutput::new();
    let mut faults = NoFaults;
    let mut powered_on = false;
    // The watchdog budget is an absolute threshold on the core's
    // cumulative counter, so chunking means walking that threshold up
    // in SIM_CHUNK steps with a deadline poll between steps.
    while !core.is_halted() && core.budget_spent() < max_cycles {
        if deadline.expired() {
            return Reply::deadline();
        }
        let slice = core
            .budget_spent()
            .saturating_add(SIM_CHUNK)
            .min(max_cycles);
        let step = if powered_on {
            core.resume_with(&mut input, &mut output, slice, &mut faults)
        } else {
            powered_on = true;
            core.run_with(&mut input, &mut output, slice, &mut faults)
        };
        if let Err(e) = step {
            return Reply::error(format!("simulation fault: {e}"));
        }
    }
    let text = format!(
        "{}: {} instructions, {} cycles",
        if core.is_halted() {
            "halted"
        } else {
            "budget exhausted"
        },
        core.instructions(),
        core.cycles(),
    );
    Reply {
        data: output.values().to_vec(),
        ..Reply::ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ReplyStatus;

    const ADD3: &str = "load r0\naddi 3\nstore r1\nhalt\n";

    fn engine() -> Engine {
        Engine::new()
    }

    #[test]
    fn assemble_is_deterministic_and_carries_the_image() {
        let req = Request::Assemble {
            dialect: "fc4".into(),
            features: String::new(),
            source: ADD3.into(),
        };
        let a = engine().execute(&req, &Deadline::none());
        let b = engine().execute(&req, &Deadline::none());
        assert_eq!(a, b);
        assert_eq!(a.status, ReplyStatus::Ok);
        assert!(!a.data.is_empty(), "program image rides in data");
    }

    #[test]
    fn bad_source_is_an_error_reply_not_a_panic() {
        let req = Request::Assemble {
            dialect: "fc4".into(),
            features: String::new(),
            source: "not an instruction\n".into(),
        };
        assert_eq!(
            engine().execute(&req, &Deadline::none()).status,
            ReplyStatus::Error
        );
        let req = Request::Assemble {
            dialect: "fc99".into(),
            features: String::new(),
            source: ADD3.into(),
        };
        assert_eq!(
            engine().execute(&req, &Deadline::none()).status,
            ReplyStatus::Error
        );
    }

    #[test]
    fn features_on_a_fabricated_target_are_an_error_reply() {
        for dialect in ["fc4", "fc8"] {
            let req = Request::Assemble {
                dialect: dialect.into(),
                features: "shift,mul".into(),
                source: ADD3.into(),
            };
            let reply = engine().execute(&req, &Deadline::none());
            assert_eq!(reply.status, ReplyStatus::Error, "{dialect}");
        }
    }

    #[test]
    fn simulate_runs_and_respects_expired_deadlines() {
        let req = Request::Simulate {
            dialect: "fc4".into(),
            features: String::new(),
            source: ADD3.into(),
            inputs: vec![4],
            max_cycles: 100_000,
        };
        let reply = engine().execute(&req, &Deadline::none());
        assert_eq!(reply.status, ReplyStatus::Ok, "{}", reply.text);
        assert!(reply.text.starts_with("halted"));
        assert_eq!(reply.data, vec![7], "4 + 3 emitted on the output port");

        // an expired deadline cancels an endless program mid-campaign
        let spin = Request::Simulate {
            dialect: "fc4".into(),
            features: String::new(),
            source: "label: jmp label\n".into(),
            inputs: vec![],
            max_cycles: 100_000_000,
        };
        let expired = Deadline::in_ms(1);
        std::thread::sleep(Duration::from_millis(3));
        let reply = engine().execute(&spin, &expired);
        assert_eq!(reply.status, ReplyStatus::Deadline);
    }

    #[test]
    fn admit_refuses_at_the_deny_severity() {
        // a program with no reachable halt trips the analyzer at Error
        let req = Request::Admit {
            dialect: "fc4".into(),
            features: String::new(),
            source: "label: jmp label\n".into(),
            deny: 2,
        };
        let reply = engine().execute(&req, &Deadline::none());
        assert_eq!(reply.status, ReplyStatus::Error);
        assert!(reply.text.starts_with("refused"), "{}", reply.text);

        let req = Request::Admit {
            dialect: "fc4".into(),
            features: String::new(),
            source: ADD3.into(),
            deny: 2,
        };
        let reply = engine().execute(&req, &Deadline::none());
        assert_eq!(reply.status, ReplyStatus::Ok, "{}", reply.text);
    }

    #[test]
    fn vuln_is_deterministic_and_carries_the_digest() {
        let req = Request::Vuln {
            dialect: "fc4".into(),
            features: String::new(),
            source: ADD3.into(),
        };
        let a = engine().execute(&req, &Deadline::none());
        let b = engine().execute(&req, &Deadline::none());
        assert_eq!(a, b);
        assert_eq!(a.status, ReplyStatus::Ok, "{}", a.text);
        assert!(a.text.contains("provably masked"), "{}", a.text);
        assert_eq!(a.data.len(), 8, "8-byte report digest rides in data");
        assert!(req.cacheable(), "vuln replies are pure and cacheable");
    }

    #[test]
    fn yield_query_is_deterministic() {
        let req = Request::Yield {
            design: "fc4".into(),
            voltage_mv: 4_500,
            seed: 7,
            cycles: 120,
            salvage: false,
        };
        let a = engine().execute(&req, &Deadline::none());
        let b = engine().execute(&req, &Deadline::none());
        assert_eq!(a, b);
        assert_eq!(a.status, ReplyStatus::Ok, "{}", a.text);
        assert!(a.text.contains("yield-inclusion"), "{}", a.text);
    }

    #[test]
    fn yield_at_or_below_threshold_is_an_error_reply() {
        for voltage_mv in [0, 1_000, 1_290] {
            let req = Request::Yield {
                design: "fc4".into(),
                voltage_mv,
                seed: 7,
                cycles: 120,
                salvage: false,
            };
            let reply = engine().execute(&req, &Deadline::none());
            assert_eq!(reply.status, ReplyStatus::Error, "{voltage_mv} mV");
            assert!(reply.text.contains("threshold"), "{}", reply.text);
        }
    }
}

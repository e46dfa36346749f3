//! The four workloads, their instances and their known answers.
//!
//! Every operation goes through a public entry point
//! (`modelcheck::check`, `modelcheck::resume`, `ftsynth::synthesize`) and
//! is checked against answers recorded from the program; a mismatch or a
//! resume chain that hits its cap is a failed operation, never dropped.

use std::path::Path;
use std::time::Instant;

use fencevm::Instr;
use ftobs::{MetricsSnapshot, Recorder};
use ftsynth::{synthesize, SynthConfig, SynthOutcome, Synthesis};
use modelcheck::{check, resume, CheckConfig, CheckpointPolicy, Engine, Verdict};
use simlocks::{build_mutex, FenceMask, LockKind, OrderingInstance};
use wbmem::MemoryModel;

/// `GT_2`, n=4, PSO, sequential DPOR, termination off: distinct states.
pub const GTF2_N4_STATES: u64 = 2_300_942;
/// The same proof's transitions (deterministic for the sequential engine).
pub const GTF2_N4_TRANSITIONS: u64 = 2_729_553;
/// Bakery n=3 synthesis: refinement iterations.
pub const SYNTH_ITERATIONS: usize = 10;
/// Bakery n=3 synthesis: fences in the placement.
pub const SYNTH_FENCES: usize = 9;
/// Bakery n=3 synthesis: states over every inner check.
pub const SYNTH_TOTAL_STATES: usize = 838_407;
/// Resumes a chain may take before it counts as failed (8 are ideal for
/// a cut at an eighth of the run).
pub const RESUME_CAP: u64 = 40;
/// State cap of the proofs (well above the known answer).
pub const PROVE_MAX_STATES: usize = 10_000_000;

/// One instance of the `resume_chain` workload.
#[derive(Clone, Copy, Debug)]
pub struct ChainSpec {
    /// Short name.
    pub name: &'static str,
    /// Lock.
    pub kind: LockKind,
    /// Processes.
    pub n: usize,
    /// Transitions of the uninterrupted run (PSO, `Dpor`, termination
    /// off); the chain cuts every run after `⌈T/8⌉` of them.
    pub transitions: u64,
    /// Distinct states of the uninterrupted run. A resumed run reports
    /// the combined totals, so a converged chain must end with these.
    pub states: u64,
}

/// The `resume_chain` instances.
pub const CHAIN: [ChainSpec; 3] = [
    ChainSpec {
        name: "bakery_n3",
        kind: LockKind::Bakery,
        n: 3,
        transitions: 25_872,
        states: 18_848,
    },
    ChainSpec {
        name: "gt2_n3",
        kind: LockKind::Gt { f: 2 },
        n: 3,
        transitions: 37_703,
        states: 32_968,
    },
    ChainSpec {
        name: "tournament_n4",
        kind: LockKind::Tournament,
        n: 4,
        transitions: 145_697,
        states: 125_045,
    },
];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full mutex proof of `GT_2`, n=4, PSO, sequential DPOR.
    ProveGtf2N4,
    /// The same proof on the 2-thread work-stealing engine.
    ProveGtf2N4Par2,
    /// CEGAR fence synthesis for Bakery n=3.
    SynthBakery3,
    /// Interrupt-and-resume chains over three instances.
    ResumeChain,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::ProveGtf2N4,
        Workload::ProveGtf2N4Par2,
        Workload::SynthBakery3,
        Workload::ResumeChain,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProveGtf2N4 => "prove_gtf2_n4",
            Workload::ProveGtf2N4Par2 => "prove_gtf2_n4_par2",
            Workload::SynthBakery3 => "synth_bakery3",
            Workload::ResumeChain => "resume_chain",
        }
    }

    /// Parse a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Engine threads the workload asks for.
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            Workload::ProveGtf2N4Par2 => 2,
            _ => 1,
        }
    }

    /// The engine the workload's checks run.
    #[must_use]
    pub fn engine(self) -> Engine {
        match self {
            Workload::ProveGtf2N4Par2 => Engine::ParallelDpor {
                threads: 2,
                reorder_bound: None,
            },
            _ => Engine::Dpor {
                reorder_bound: None,
            },
        }
    }

    /// The instances the workload builds, fenced everywhere.
    #[must_use]
    pub fn instances(self) -> Vec<OrderingInstance> {
        match self {
            Workload::ProveGtf2N4 | Workload::ProveGtf2N4Par2 => {
                vec![build_mutex(LockKind::Gt { f: 2 }, 4, FenceMask::ALL)]
            }
            Workload::SynthBakery3 => vec![build_mutex(LockKind::Bakery, 3, FenceMask::ALL)],
            Workload::ResumeChain => CHAIN
                .iter()
                .map(|c| build_mutex(c.kind, c.n, FenceMask::ALL))
                .collect(),
        }
    }

    /// Whether the workload's checks run with the termination property
    /// (which switches ample sets off).
    #[must_use]
    pub fn check_termination(self) -> bool {
        self == Workload::SynthBakery3
    }
}

/// Build a workload's instances and their PSO machines: the set-up every
/// operation needs before the timed call.
#[must_use]
pub fn setup(w: Workload) -> Vec<OrderingInstance> {
    let insts = w.instances();
    for inst in &insts {
        std::hint::black_box(inst.machine(MemoryModel::Pso));
    }
    insts
}

/// Fence instructions in an instance's programs.
#[must_use]
pub fn fence_count(inst: &OrderingInstance) -> u64 {
    inst.programs
        .iter()
        .map(|p| {
            p.instrs()
                .iter()
                .filter(|i| matches!(i, Instr::Fence))
                .count() as u64
        })
        .sum()
}

/// The result of one operation.
#[derive(Clone, Debug, Default)]
pub struct OpResult {
    /// What ran, e.g. `prove gt2 n=4`.
    pub label: String,
    /// Wall-clock of the timed call(s), seconds.
    pub wall_s: f64,
    /// Distinct states of the verdict.
    pub states: u64,
    /// Transitions of the verdict.
    pub transitions: u64,
    /// Verdict label (`ok`, `inconclusive`, `synthesized`, ...).
    pub verdict: String,
    /// Why the operation failed; `None` when it met its known answer.
    pub failed: Option<String>,
    /// Whether the failure is a wrong answer (as opposed to no answer).
    pub wrong: bool,
    /// The verdict's metrics (meaningful with an enabled recorder).
    pub metrics: MetricsSnapshot,
    /// Resumes taken (resume chains only).
    pub resumes: u64,
    /// Fences in the placement the operation verified or synthesized.
    pub fences: u64,
}

impl OpResult {
    fn fail(&mut self, why: String, wrong: bool) {
        self.failed = Some(why);
        self.wrong = wrong;
    }
}

fn prove_config(w: Workload, recorder: Recorder) -> CheckConfig {
    let mut cfg = CheckConfig::default()
        .with_engine(w.engine())
        .with_recorder(recorder);
    cfg.check_termination = false;
    cfg.max_states = PROVE_MAX_STATES;
    cfg
}

/// One full proof of `GT_2` n=4 under PSO, checked against the known
/// answer (exact counts for the sequential engine; exact states and
/// `transitions ≥ states − 1` for the parallel one, whose duplicate
/// claims vary the transition count).
#[must_use]
pub fn prove(w: Workload, inst: &OrderingInstance, recorder: Recorder) -> OpResult {
    let m = inst.machine(MemoryModel::Pso);
    let cfg = prove_config(w, recorder);
    let t0 = Instant::now();
    let v = check(&m, &cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    let s = v.stats();
    let mut r = OpResult {
        label: format!("prove {} ({})", inst.name, w.engine().label()),
        wall_s,
        states: s.states as u64,
        transitions: s.transitions as u64,
        verdict: v.label().to_string(),
        metrics: s.metrics,
        fences: fence_count(inst),
        ..OpResult::default()
    };
    if !v.is_ok() {
        r.fail(format!("verdict {} (expected ok)", v.label()), true);
    } else if r.states != GTF2_N4_STATES {
        r.fail(
            format!("{} states (expected {GTF2_N4_STATES})", r.states),
            true,
        );
    } else if w == Workload::ProveGtf2N4 && r.transitions != GTF2_N4_TRANSITIONS {
        r.fail(
            format!(
                "{} transitions (expected {GTF2_N4_TRANSITIONS})",
                r.transitions
            ),
            true,
        );
    } else if r.transitions + 1 < r.states {
        r.fail(
            format!("{} transitions for {} states", r.transitions, r.states),
            true,
        );
    }
    r
}

/// The synthesis configuration of `synth_bakery3`: the defaults with the
/// sequential DPOR engine.
#[must_use]
pub fn synth_config(recorder: Recorder) -> SynthConfig {
    SynthConfig {
        engine: Engine::Dpor {
            reorder_bound: None,
        },
        recorder,
        ..SynthConfig::default()
    }
}

/// Re-check a synthesized placement under PSO and TSO with termination,
/// outside any timed region. Returns the verdicts' merged metrics and
/// summed transitions, or why the placement is wrong.
pub fn verify_placement(
    syn: &Synthesis,
    recorder: &dyn Fn() -> Recorder,
) -> Result<(MetricsSnapshot, u64), String> {
    let mut metrics = MetricsSnapshot::default();
    let mut transitions = 0;
    for model in [MemoryModel::Pso, MemoryModel::Tso] {
        let cfg = CheckConfig::default()
            .with_engine(Engine::Dpor {
                reorder_bound: None,
            })
            .with_recorder(recorder());
        let v = check(&syn.instance.machine(model), &cfg);
        if !v.is_ok() {
            return Err(format!("placement re-check under {model}: {}", v.label()));
        }
        let s = v.stats();
        metrics.merge(&s.metrics);
        transitions += s.transitions as u64;
    }
    Ok((metrics, transitions))
}

/// One synthesis run on Bakery n=3, checked against the known answer and
/// re-verified. Returns the synthesis for the traced layer metrics.
pub fn synth(
    inst: &OrderingInstance,
    recorder: Recorder,
    verify_recorder: &dyn Fn() -> Recorder,
) -> (OpResult, Option<Synthesis>) {
    let cfg = synth_config(recorder);
    let t0 = Instant::now();
    let out = synthesize(inst, &cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut r = OpResult {
        label: format!("synthesize {}", inst.name),
        wall_s,
        ..OpResult::default()
    };
    let syn = match out {
        SynthOutcome::Synthesized(syn) => *syn,
        other => {
            r.verdict = match other {
                SynthOutcome::Unfixable { .. } => "unfixable",
                _ => "exhausted",
            }
            .to_string();
            r.fail(
                format!("synthesis {} (expected synthesized)", r.verdict),
                true,
            );
            return (r, None);
        }
    };
    r.verdict = "synthesized".to_string();
    r.states = syn.total_states as u64;
    r.fences = syn.fences_inserted() as u64;
    let got = (syn.iterations, syn.fences_inserted(), syn.total_states);
    let want = (SYNTH_ITERATIONS, SYNTH_FENCES, SYNTH_TOTAL_STATES);
    if got != want {
        r.fail(
            format!("(iterations, fences, total states) {got:?}, expected {want:?}"),
            true,
        );
    }
    match verify_placement(&syn, verify_recorder) {
        Ok((metrics, transitions)) => {
            r.metrics = metrics;
            r.transitions = transitions;
        }
        Err(why) => r.fail(why, true),
    }
    (r, Some(syn))
}

/// Sizes and timings of the checkpoints a chain read, for the traced
/// snapshot metrics.
#[derive(Clone, Debug, Default)]
pub struct SnapshotTimes {
    /// `Snapshot::read` (read + checksum + decode), milliseconds each.
    pub read_ms: Vec<f64>,
    /// `Snapshot::write_atomic` (encode + write + fsync + rename),
    /// milliseconds each.
    pub write_ms: Vec<f64>,
    /// File sizes, bytes.
    pub bytes: Vec<u64>,
}

/// Time reading `path` back and writing it to a sibling file, then
/// remove the sibling.
pub fn time_snapshot(path: &Path, into: &mut SnapshotTimes) -> Result<(), String> {
    let t0 = Instant::now();
    let snap = por::Snapshot::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    into.read_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    let copy = path.with_extension("copy");
    let t0 = Instant::now();
    let bytes = snap
        .write_atomic(&copy)
        .map_err(|e| format!("write {}: {e}", copy.display()))?;
    into.write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    into.bytes.push(bytes);
    let _ = std::fs::remove_file(&copy);
    Ok(())
}

/// One interrupt-and-resume chain: `check` cut after `⌈T/8⌉` transitions,
/// then `resume` with the same cut until a definitive verdict or
/// [`RESUME_CAP`] resumes. A converged chain must end `ok` with the
/// uninterrupted run's distinct states. The checkpoint at `ckpt` is deleted on every
/// exit. With `snapshots`, each checkpoint is also timed (untimed by
/// the chain's own wall-clock).
pub fn chain(
    spec: &ChainSpec,
    inst: &OrderingInstance,
    ckpt: &Path,
    recorder: &dyn Fn() -> Recorder,
    mut snapshots: Option<&mut SnapshotTimes>,
) -> OpResult {
    let m = inst.machine(MemoryModel::Pso);
    let cut = spec.transitions.div_ceil(8);
    let config = |rec: Recorder| {
        let mut cfg = CheckConfig::default()
            .with_engine(Workload::ResumeChain.engine())
            .with_recorder(rec)
            .with_checkpoint(CheckpointPolicy::at(ckpt).stop_after(cut));
        cfg.check_termination = false;
        cfg
    };
    let mut r = OpResult {
        label: format!("chain {} cut {cut}", spec.name),
        fences: fence_count(inst),
        ..OpResult::default()
    };
    let mut wall = 0.0;
    let t0 = Instant::now();
    let mut v = check(&m, &config(recorder()));
    wall += t0.elapsed().as_secs_f64();
    while let Verdict::Inconclusive(_, cov) = &v {
        if r.resumes >= RESUME_CAP {
            r.fail(
                format!(
                    "no verdict after {RESUME_CAP} resumes: {} states, frontier {}",
                    v.stats().states,
                    cov.frontier
                ),
                false,
            );
            break;
        }
        let Some(cp) = cov.checkpoint.clone() else {
            r.fail("inconclusive without a checkpoint".to_string(), true);
            break;
        };
        if let Some(times) = snapshots.as_deref_mut() {
            if let Err(e) = time_snapshot(&cp, times) {
                r.fail(e, true);
                break;
            }
        }
        r.resumes += 1;
        let t0 = Instant::now();
        v = resume(&m, &config(recorder()), &cp);
        wall += t0.elapsed().as_secs_f64();
    }
    let _ = std::fs::remove_file(ckpt);
    let s = v.stats();
    r.wall_s = wall;
    r.states = s.states as u64;
    r.transitions = s.transitions as u64;
    r.verdict = v.label().to_string();
    r.metrics = s.metrics;
    if r.failed.is_none() {
        if !v.is_ok() {
            r.fail(format!("verdict {} (expected ok)", v.label()), true);
        } else if r.states != spec.states {
            r.fail(
                format!("{} states (expected {})", r.states, spec.states),
                true,
            );
        }
    }
    r
}

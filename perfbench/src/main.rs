//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds and prints one JSON
//! result line last on stdout. With `--trace 0` it reports the
//! end-to-end metrics measured with tracing off; with `--trace 1` it runs
//! the workload once traced and once untraced plus the layer probes, and
//! reports the per-layer metrics. A run record with the run's identity
//! and every operation lands in `$FT_BENCH_OUT` (default `.bench_out`
//! under the working directory). See `NOTES.md`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ft_perfbench::layers::{
    fork_roundtrip_ns, fptable_times, self_time_s, span_total_s, synth_times,
};
use ft_perfbench::replay::{walk, Reduction, Walk};
use ft_perfbench::report::{
    median, metrics_json, peak_rss_mib, top_percentile, Identity, Json, Metric,
};
use ft_perfbench::workload::{
    chain, prove, setup, synth, synth_config, time_snapshot, OpResult, SnapshotTimes, Workload,
    CHAIN, GTF2_N4_TRANSITIONS,
};
use ftobs::{JsonlSink, Metric as M, MetricsSnapshot, Recorder};
use ftsynth::{synthesize, Synthesis};
use modelcheck::{check, CheckConfig, CheckpointPolicy, Verdict};
use simlocks::{build_mutex, FenceMask, LockKind, OrderingInstance};
use wbmem::MemoryModel;

/// Untimed set-ups first, so the timed ones do not pay the process's
/// one-time costs (allocator growth, first-touch page faults, cold caches).
const SETUP_WARMUP: usize = 50;
/// Seconds of repeated, individually timed set-ups per block. An
/// untraced run times one block before its first round and one after
/// each round, and reports the lowest of the blocks' medians: on a
/// shared host the speed of this short, cache-resident work switches
/// between a fast and a slow regime within seconds, and the fastest
/// block is the one least disturbed by the rest of the host.
const SETUP_BLOCK_S: f64 = 0.5;
/// Rounds every untraced run measures at least, so its median is never
/// a single sample.
const MIN_ROUNDS: usize = 2;
/// States each layer-replay walk visits at most.
const WALK_STATES: usize = 250_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <prove_gtf2_n4|prove_gtf2_n4_par2|synth_bakery3|resume_chain> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    let out = match std::env::var_os("FT_BENCH_OUT").map(PathBuf::from) {
        Some(p) => p,
        None => std::env::current_dir()
            .map_err(|e| format!("working directory: {e}"))?
            .join(".bench_out"),
    };
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        out,
    })
}

/// One round of a workload: one operation, or for `resume_chain` one
/// chain per instance in a seed-rotated order.
#[derive(Default)]
struct Round {
    ops: Vec<OpResult>,
    /// Wall-clock of the round's operations (excludes re-verification).
    wall_s: f64,
    /// Wall-clock of the whole round, re-verification included.
    outer_s: f64,
    states: u64,
    fences: u64,
    synthesis: Option<Synthesis>,
}

fn run_round(
    w: Workload,
    insts: &[OrderingInstance],
    order: usize,
    scratch: &Path,
    recorder: &dyn Fn() -> Recorder,
    mut snapshots: Option<&mut SnapshotTimes>,
) -> Round {
    let t0 = Instant::now();
    let mut round = Round::default();
    match w {
        Workload::ProveGtf2N4 | Workload::ProveGtf2N4Par2 => {
            round.ops.push(prove(w, &insts[0], recorder()));
        }
        Workload::SynthBakery3 => {
            let (op, syn) = synth(&insts[0], recorder(), recorder);
            round.ops.push(op);
            round.synthesis = syn;
        }
        Workload::ResumeChain => {
            for k in 0..CHAIN.len() {
                let i = (order + k) % CHAIN.len();
                let ckpt = scratch.join(format!("{}.ckpt", CHAIN[i].name));
                let op = chain(
                    &CHAIN[i],
                    &insts[i],
                    &ckpt,
                    recorder,
                    snapshots.as_deref_mut(),
                );
                round.ops.push(op);
            }
        }
    }
    round.wall_s = round.ops.iter().map(|o| o.wall_s).sum();
    round.states = round.ops.iter().map(|o| o.states).sum();
    round.fences = round.ops.iter().map(|o| o.fences).sum();
    round.outer_s = t0.elapsed().as_secs_f64();
    round
}

fn op_json(o: &OpResult) -> Json {
    let mut pairs = vec![
        ("op", Json::s(o.label.clone())),
        ("wall_s", Json::Num(o.wall_s)),
        ("verdict", Json::s(o.verdict.clone())),
        ("states", Json::Int(o.states)),
        ("transitions", Json::Int(o.transitions)),
        ("fences", Json::Int(o.fences)),
        ("resumes", Json::Int(o.resumes)),
    ];
    if let Some(why) = &o.failed {
        pairs.push(("failed", Json::s(why.clone())));
        pairs.push(("wrong_answer", Json::Bool(o.wrong)));
    }
    Json::obj(pairs)
}

/// One block of set-ups of `w`, [`SETUP_BLOCK_S`] long, each timed; the
/// block's median goes into `blocks`. Returns the instances of the last.
fn setup_block(w: Workload, blocks: &mut Vec<f64>) -> Vec<OrderingInstance> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t0 = Instant::now();
        let insts = setup(w);
        samples.push(t0.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= SETUP_BLOCK_S {
            blocks.push(median(&samples));
            return insts;
        }
    }
}

/// The timed loop of an untraced run: whole rounds, at least
/// [`MIN_ROUNDS`], then more while the next one is expected to end within
/// `seconds`; a set-up block follows each round.
fn untraced(
    args: &Args,
    insts: &[OrderingInstance],
    scratch: &Path,
    setup_blocks: &mut Vec<f64>,
) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let order = args.seed as usize + rounds.len();
        rounds.push(run_round(
            args.workload,
            insts,
            order,
            scratch,
            &Recorder::disabled,
            None,
        ));
        setup_block(args.workload, setup_blocks);
        let typical = median(&rounds.iter().map(|r| r.outer_s).collect::<Vec<_>>());
        if rounds.len() >= MIN_ROUNDS && start.elapsed().as_secs_f64() + typical > args.seconds {
            return rounds;
        }
    }
}

/// The layer-replay walks of a workload: its instances (the synthesized
/// placement for synthesis) in the engine's reduction mode.
fn layer_walk(w: Workload, insts: &[OrderingInstance], syn: Option<&Synthesis>, seed: u64) -> Walk {
    let reduction = if w.check_termination() {
        Reduction::SleepOnly
    } else {
        Reduction::Full
    };
    let targets: Vec<&OrderingInstance> = match syn {
        Some(s) => vec![&s.instance],
        None => insts.iter().collect(),
    };
    let mut total = Walk::default();
    for inst in targets {
        let machine = inst.machine(MemoryModel::Pso);
        total.merge(walk(&machine, reduction, WALK_STATES, seed));
    }
    total
}

/// Cut a check of `inst` after `cut` transitions and time the checkpoint
/// it writes; the file is removed afterwards.
fn snapshot_probe(
    w: Workload,
    inst: &OrderingInstance,
    termination: bool,
    cut: u64,
    scratch: &Path,
    into: &mut SnapshotTimes,
) -> Result<(), String> {
    let path = scratch.join("probe.ckpt");
    let mut cfg = CheckConfig::default()
        .with_engine(w.engine())
        .with_checkpoint(CheckpointPolicy::at(&path).stop_after(cut.max(1)));
    cfg.check_termination = termination;
    cfg.max_states = usize::MAX;
    let v = check(&inst.machine(MemoryModel::Pso), &cfg);
    let out = match &v {
        Verdict::Inconclusive(_, cov) => match &cov.checkpoint {
            Some(cp) => time_snapshot(cp, into),
            None => Err("cut check wrote no checkpoint".to_string()),
        },
        other => Err(format!("cut check ended {}", other.label())),
    };
    let _ = std::fs::remove_file(&path);
    out
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Rounds (the traced half first), per-layer metrics and record notes.
type TracedRun = (Vec<Round>, Vec<Metric>, Vec<(&'static str, Json)>);

/// The traced run: the workload twice traced and twice untraced, then
/// the layer probes.
fn traced(args: &Args, insts: &[OrderingInstance], scratch: &Path) -> Result<TracedRun, String> {
    let w = args.workload;
    let spans_path = scratch.join("spans.jsonl");
    let sink = Arc::new(
        JsonlSink::append(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?,
    );
    let traced_rec = || {
        Recorder::builder()
            .quiet(true)
            .heartbeat_ms(0)
            .trace(true)
            .sink(sink.clone())
            .build()
    };
    // Traced and untraced rounds alternate ABBA (or BAAB), so a host
    // that speeds up or slows down steadily biases neither side.
    let order = args.seed as usize;
    let traced_first = args.seed.is_multiple_of(2);
    let mut snaps = SnapshotTimes::default();
    let (mut traced_rounds, mut plain_rounds) = (Vec::new(), Vec::new());
    for traced_turn in [traced_first, !traced_first, !traced_first, traced_first] {
        if traced_turn {
            traced_rounds.push(run_round(
                w,
                insts,
                order,
                scratch,
                &traced_rec,
                Some(&mut snaps),
            ));
        } else {
            plain_rounds.push(run_round(
                w,
                insts,
                order,
                scratch,
                &Recorder::disabled,
                None,
            ));
        }
    }
    let per_round = traced_rounds.len() as f64;
    let t = &traced_rounds[0];
    let overhead = traced_rounds.iter().map(|r| r.wall_s).sum::<f64>()
        / plain_rounds.iter().map(|r| r.wall_s).sum::<f64>();

    let mut mc = MetricsSnapshot::default();
    for o in &t.ops {
        mc.merge(&o.metrics);
    }

    // The synthesis layer: the workload's own synthesis, or a small
    // probe synthesis (Bakery n=2) on workloads that do not synthesize
    // (and on a failed synthesis, which is already counted as failed).
    let probe_inst;
    let probe_syn;
    let (syn_inst, syn) = match &t.synthesis {
        Some(s) => (&insts[0], s),
        None => {
            probe_inst = build_mutex(LockKind::Bakery, 2, FenceMask::ALL);
            probe_syn = synthesize(&probe_inst, &synth_config(traced_rec()))
                .synthesis()
                .cloned()
                .ok_or("probe synthesis of Bakery n=2 failed")?;
            (&probe_inst, &probe_syn)
        }
    };
    let st = synth_times(syn_inst, syn, &synth_config(Recorder::disabled()), 9);

    sink.flush();
    let rows = ftobs::parse_spans(
        &std::fs::read_to_string(&spans_path)
            .map_err(|e| format!("read {}: {e}", spans_path.display()))?,
    );
    let _ = std::fs::remove_file(&spans_path);
    let engine_self_s = self_time_s(&rows, &["engine", "resume"]) / per_round;
    // Per synthesis: the probe synthesizes once, the workload per round.
    let syntheses = rows.iter().filter(|r| r.name == "synth").count().max(1);
    let check_s = span_total_s(&rows, "cegar_iter") / syntheses as f64;

    // Snapshots: the chain's own checkpoints, else a cut at an eighth of
    // the workload's check.
    match w {
        Workload::ResumeChain => {}
        Workload::ProveGtf2N4 | Workload::ProveGtf2N4Par2 => {
            snapshot_probe(
                w,
                &insts[0],
                false,
                GTF2_N4_TRANSITIONS / 8,
                scratch,
                &mut snaps,
            )?;
        }
        Workload::SynthBakery3 => {
            let cut = t.ops[0].transitions / 16;
            snapshot_probe(w, &syn.instance, true, cut, scratch, &mut snaps)?;
        }
    }

    let walked = layer_walk(w, insts, t.synthesis.as_ref(), args.seed);
    let fp = fptable_times(&walked.fingerprints);
    let nforks = walked.forks.len().max(1);
    let fork_ns = fork_roundtrip_ns(walked.forks, (20_000 / nforks).max(1));
    let lt = &walked.times;

    let resumes: u64 = t.ops.iter().map(|o| o.resumes).sum();
    let metrics = vec![
        Metric {
            name: "wbmem.step_ns",
            value: lt.step.mean_ns(),
            unit: "ns",
        },
        Metric {
            name: "wbmem.undo_ns",
            value: lt.undo.mean_ns(),
            unit: "ns",
        },
        Metric {
            name: "wbmem.choices_ns",
            value: lt.choices.mean_ns(),
            unit: "ns",
        },
        Metric {
            name: "wbmem.fingerprint_ns",
            value: lt.fingerprint.mean_ns(),
            unit: "ns",
        },
        Metric {
            name: "por.expand_ns",
            value: lt.expand.mean_ns(),
            unit: "ns",
        },
        Metric {
            name: "por.visit_claim_ns",
            value: lt.claim.mean_ns(),
            unit: "ns",
        },
        Metric {
            name: "por.fptable_insert_ns",
            value: fp.insert_ns,
            unit: "ns",
        },
        Metric {
            name: "por.fptable_insert_ns_2t",
            value: fp.insert_ns_2t,
            unit: "ns",
        },
        Metric {
            name: "por.fp_contention_per_insert",
            value: fp.contention_per_insert,
            unit: "ratio",
        },
        Metric {
            name: "por.fork_roundtrip_ns",
            value: fork_ns,
            unit: "ns",
        },
        Metric {
            name: "por.snapshot_write_ms",
            value: median(&snaps.write_ms),
            unit: "ms",
        },
        Metric {
            name: "por.snapshot_read_ms",
            value: median(&snaps.read_ms),
            unit: "ms",
        },
        Metric {
            name: "por.snapshot_bytes",
            value: median(&snaps.bytes.iter().map(|&b| b as f64).collect::<Vec<_>>()),
            unit: "bytes",
        },
        Metric {
            name: "modelcheck.states",
            value: mc.states() as f64,
            unit: "count",
        },
        Metric {
            name: "modelcheck.transitions",
            value: mc.transitions() as f64,
            unit: "count",
        },
        Metric {
            name: "modelcheck.revisit_ratio",
            value: ratio(mc.transitions(), mc.states()),
            unit: "ratio",
        },
        Metric {
            name: "modelcheck.sleep_hits",
            value: mc.get(M::SleepHits) as f64,
            unit: "count",
        },
        Metric {
            name: "modelcheck.ample_applied_ratio",
            value: ratio(
                mc.get(M::AmpleApplied),
                mc.get(M::AmpleApplied) + mc.get(M::AmpleFallbacks),
            ),
            unit: "ratio",
        },
        Metric {
            name: "modelcheck.steal_ratio",
            value: ratio(mc.get(M::ForkStolen), mc.get(M::ForkPublished)),
            unit: "ratio",
        },
        Metric {
            name: "modelcheck.resumes_per_op",
            value: ratio(resumes, t.ops.len() as u64),
            unit: "count",
        },
        Metric {
            name: "modelcheck.resume_replayed",
            value: mc.get(M::ResumeReplayed) as f64,
            unit: "count",
        },
        Metric {
            name: "modelcheck.engine_self_s",
            value: engine_self_s,
            unit: "s",
        },
        Metric {
            name: "synth.iterations",
            value: syn.iterations as f64,
            unit: "count",
        },
        Metric {
            name: "synth.total_states",
            value: syn.total_states as f64,
            unit: "count",
        },
        Metric {
            name: "synth.core_size",
            value: st.core_size,
            unit: "count",
        },
        Metric {
            name: "synth.check_s",
            value: check_s,
            unit: "s",
        },
        Metric {
            name: "synth.hitting_set_ms",
            value: st.hitting_set_ms,
            unit: "ms",
        },
        Metric {
            name: "synth.strip_ms",
            value: st.strip_ms,
            unit: "ms",
        },
        Metric {
            name: "obs.trace_overhead",
            value: overhead,
            unit: "ratio",
        },
    ];
    let notes = vec![
        (
            "traced_wall_s",
            Json::Arr(traced_rounds.iter().map(|r| Json::Num(r.wall_s)).collect()),
        ),
        (
            "untraced_wall_s",
            Json::Arr(plain_rounds.iter().map(|r| Json::Num(r.wall_s)).collect()),
        ),
        ("traced_first", Json::Bool(traced_first)),
        ("trace_spans", Json::Int(rows.len() as u64)),
        ("walk_states", Json::Int(walked.states as u64)),
        ("walk_transitions", Json::Int(walked.transitions as u64)),
        ("walk_truncated", Json::Bool(walked.truncated)),
        ("walk_sampled_calls", Json::Int(lt.step.sampled)),
        (
            "synth_source",
            Json::s(if t.synthesis.is_some() {
                "workload synthesis"
            } else {
                "probe synthesis of Bakery n=2"
            }),
        ),
        ("snapshots_timed", Json::Int(snaps.read_ms.len() as u64)),
    ];
    traced_rounds.append(&mut plain_rounds);
    Ok((traced_rounds, metrics, notes))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    let id = Identity::probe();
    if w.threads() > id.nproc {
        return Err(format!(
            "refused: {} asks for {} threads but only {} cores are available",
            w.name(),
            w.threads(),
            id.nproc
        ));
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("output directory {}: {e}", args.out.display()))?;
    let scratch = args.out.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    for _ in 0..SETUP_WARMUP {
        std::hint::black_box(setup(w));
    }
    let mut setup_blocks = Vec::new();
    let insts = setup_block(w, &mut setup_blocks);
    let result = if args.trace {
        traced(&args, &insts, &scratch)
    } else {
        let rounds = untraced(&args, &insts, &scratch, &mut setup_blocks);
        Ok((rounds, Vec::new(), Vec::new()))
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (rounds, layer_metrics, notes) = result?;

    let ops: Vec<&OpResult> = rounds.iter().flat_map(|r| &r.ops).collect();
    let attempted = ops.len() as u64;
    let failed = ops.iter().filter(|o| o.failed.is_some()).count() as u64;
    let correct = !ops.iter().any(|o| o.wrong);
    // Untraced rounds only: in a traced run they are the second half.
    let timed: Vec<&Round> = if args.trace {
        rounds[rounds.len() / 2..].iter().collect()
    } else {
        rounds.iter().collect()
    };
    let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = timed.iter().map(|r| r.states as f64 / r.wall_s).collect();
    let end_to_end = vec![
        Metric {
            name: "setup_s",
            value: setup_blocks.iter().copied().fold(f64::INFINITY, f64::min),
            unit: "s",
        },
        Metric {
            name: "wall_s",
            value: median(&walls),
            unit: "s",
        },
        Metric {
            name: "states_per_s",
            value: median(&rates),
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mib",
            value: peak_rss_mib(),
            unit: "MiB",
        },
        Metric {
            name: "fences",
            value: rounds.last().map_or(0, |r| r.fences) as f64,
            unit: "count",
        },
    ];
    let (pct, pct_value) = top_percentile(&walls);

    eprintln!(
        "perfbench {} seed {} trace {}: {} op(s), {} failed, fail_share {:.4}, correct {}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        attempted,
        failed,
        ratio(failed, attempted),
        correct
    );
    for o in &ops {
        eprintln!(
            "  {:<44} {:>9.3} s  {:<12} {:>9} states{}",
            o.label,
            o.wall_s,
            o.verdict,
            o.states,
            o.failed
                .as_ref()
                .map(|f| format!("  FAILED: {f}"))
                .unwrap_or_default()
        );
    }
    let shown = if args.trace {
        &layer_metrics
    } else {
        &end_to_end
    };
    for m in shown {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        eprintln!(
            "  wall_s over {} round(s): median {:.4} s, p{pct:.0} {pct_value:.4} s",
            walls.len(),
            median(&walls)
        );
    }

    let record = Json::obj(vec![
        ("workload", Json::s(w.name())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("git_rev", Json::s(id.git_rev.clone())),
        ("nproc", Json::Int(id.nproc as u64)),
        ("rustc", Json::s(id.rustc.clone())),
        ("profile", Json::s(id.profile)),
        ("threads_requested", Json::Int(w.threads() as u64)),
        ("threads_available", Json::Int(id.nproc as u64)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("fail_share", Json::Num(ratio(failed, attempted))),
        ("correct", Json::Bool(correct)),
        ("wall_s_samples", Json::Int(walls.len() as u64)),
        ("wall_s_top_percentile", Json::Num(pct)),
        ("wall_s_top_value", Json::Num(pct_value)),
        (
            "setup_s_block_medians",
            Json::Arr(setup_blocks.iter().map(|&b| Json::Num(b)).collect()),
        ),
        ("end_to_end", metrics_json(&end_to_end)),
        ("per_layer", metrics_json(&layer_metrics)),
        ("notes", Json::obj(notes)),
        ("ops", Json::Arr(ops.iter().map(|o| op_json(o)).collect())),
    ]);
    let record_path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&record_path, record.render() + "\n")
        .map_err(|e| format!("{}: {e}", record_path.display()))?;
    eprintln!("  record: {}", record_path.display());

    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "metrics",
            metrics_json(if args.trace {
                &layer_metrics
            } else {
                &end_to_end
            }),
        ),
    ]);
    println!("{}", line.render());
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

//! Per-layer probes for the traced run: fingerprint-table and fork-queue
//! micro-timings driven by a workload's own states, the synthesis
//! layer's pure functions, and self times derived from the program's
//! `ftobs` trace spans.

use std::collections::{BTreeMap, HashMap};
use std::sync::Barrier;
use std::time::Instant;

use fencevm::{Instr, Src};
use ftobs::SpanRow;
use ftsynth::{hitting_set, strip_instance, Site, SynthConfig, Synthesis};
use por::{ForkPoint, ForkQueue, FpTable};
use simlocks::OrderingInstance;
use wbmem::{ProcId, RegId};

use crate::report::median;

/// `FpTable::insert` timings over a fingerprint list.
#[derive(Clone, Copy, Debug, Default)]
pub struct FpTimes {
    /// One thread inserting every fingerprint, ns per insert.
    pub insert_ns: f64,
    /// Two threads inserting the same list concurrently (one from each
    /// end), mean ns per insert per thread.
    pub insert_ns_2t: f64,
    /// CAS failures per insert in the two-thread run.
    pub contention_per_insert: f64,
}

/// Time `FpTable` inserts of `fps` on one thread and on two contending
/// threads, each into a fresh table.
#[must_use]
pub fn fptable_times(fps: &[u128]) -> FpTimes {
    if fps.is_empty() {
        return FpTimes::default();
    }
    let n = fps.len() as f64;
    let table = FpTable::new();
    let t0 = Instant::now();
    for &fp in fps {
        std::hint::black_box(table.insert(fp));
    }
    let insert_ns = t0.elapsed().as_nanos() as f64 / n;

    let table = FpTable::new();
    let start = Barrier::new(2);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let forward = s.spawn(|| {
            start.wait();
            let t0 = Instant::now();
            for &fp in fps {
                std::hint::black_box(table.insert(fp));
            }
            t0.elapsed().as_nanos() as f64
        });
        let backward = s.spawn(|| {
            start.wait();
            let t0 = Instant::now();
            for &fp in fps.iter().rev() {
                std::hint::black_box(table.insert(fp));
            }
            t0.elapsed().as_nanos() as f64
        });
        [forward, backward]
            .into_iter()
            .map(|h| h.join().expect("fptable probe thread panicked"))
            .collect()
    });
    FpTimes {
        insert_ns,
        insert_ns_2t: per_thread.iter().sum::<f64>() / (2.0 * n),
        contention_per_insert: table.contention() as f64 / (2.0 * n),
    }
}

/// Mean ns of one `ForkQueue` publish + take + done round trip, cycling
/// `forks` through a queue `rounds` times.
#[must_use]
pub fn fork_roundtrip_ns(forks: Vec<ForkPoint>, rounds: usize) -> f64 {
    if forks.is_empty() || rounds == 0 {
        return 0.0;
    }
    let queue = ForkQueue::new(forks.len());
    let mut pool = forks;
    let total = pool.len() * rounds;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for f in std::mem::take(&mut pool) {
            if queue.publish(f).is_err() {
                unreachable!("queue sized to the pool");
            }
            let back = queue.take().expect("a published fork is pending");
            queue.done();
            pool.push(back);
        }
    }
    t0.elapsed().as_nanos() as f64 / total as f64
}

/// Self time of every span named in `names`: its duration minus the part
/// of it covered by its descendants (a union of intervals, so two
/// workers' concurrent tasks are not double-subtracted), summed, seconds.
#[must_use]
pub fn self_time_s(rows: &[SpanRow], names: &[&str]) -> f64 {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, r) in rows.iter().enumerate() {
        children.entry(r.parent).or_default().push(i);
    }
    let mut total_us = 0.0;
    for r in rows.iter().filter(|r| names.contains(&r.name.as_str())) {
        let (lo, hi) = (r.ts_us, r.ts_us + r.dur_us);
        let mut intervals = Vec::new();
        let mut stack = vec![r.id];
        while let Some(id) = stack.pop() {
            for &c in children.get(&id).map_or(&[][..], Vec::as_slice) {
                let row = &rows[c];
                stack.push(row.id);
                let (a, b) = (row.ts_us.max(lo), (row.ts_us + row.dur_us).min(hi));
                if b > a {
                    intervals.push((a, b));
                }
            }
        }
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in intervals {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        total_us += (r.dur_us - covered) as f64;
    }
    total_us / 1e6
}

/// Summed duration of every span named `name`, seconds.
#[must_use]
pub fn span_total_s(rows: &[SpanRow], name: &str) -> f64 {
    rows.iter()
        .filter(|r| r.name == name)
        .map(|r| r.dur_us as f64)
        .sum::<f64>()
        / 1e6
}

/// The synthesis layer's figures for one synthesis.
#[derive(Clone, Copy, Debug, Default)]
pub struct SynthTimes {
    /// Mean sites per counterexample core.
    pub core_size: f64,
    /// `hitting_set` over the synthesis's cores, median ms.
    pub hitting_set_ms: f64,
    /// `strip_instance` of the input instance, median ms.
    pub strip_ms: f64,
}

/// A site's weight as the CEGAR loop assigns it under `cfg`: the fence
/// weight plus the RMR surcharge for a store to another process's
/// register. The loop's conflict-count tie-break is left empty.
fn site_weight(cfg: &SynthConfig, baseline: &OrderingInstance, site: Site) -> u64 {
    let remote = match baseline.programs[site.proc].instrs().get(site.pc) {
        Some(Instr::Write {
            addr: Src::Imm(r), ..
        }) => u32::try_from(*r)
            .ok()
            .and_then(|r| baseline.layout.owner(RegId(r)))
            .is_some_and(|owner| owner != ProcId(site.proc as u32)),
        _ => false,
    };
    cfg.fence_weight + if remote { cfg.rmr_weight } else { 0 }
}

/// Time the synthesis layer's pure functions on `inst` and the cores of
/// its synthesis `syn` under the weights and exact-search limit of `cfg`.
#[must_use]
pub fn synth_times(
    inst: &OrderingInstance,
    syn: &Synthesis,
    cfg: &SynthConfig,
    reps: usize,
) -> SynthTimes {
    let sizes: Vec<f64> = syn.cores.iter().map(|c| c.len() as f64).collect();
    let weights: BTreeMap<Site, u64> = syn
        .cores
        .iter()
        .flatten()
        .map(|&s| (s, site_weight(cfg, &syn.baseline, s)))
        .collect();
    let tiebreak = BTreeMap::new();
    let time_ms = |f: &dyn Fn()| {
        let v: Vec<f64> = (0..reps.max(1))
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&v)
    };
    SynthTimes {
        core_size: sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
        hitting_set_ms: time_ms(&|| {
            std::hint::black_box(hitting_set(
                &syn.cores,
                &weights,
                &tiebreak,
                cfg.exact_limit,
            ));
        }),
        strip_ms: time_ms(&|| {
            std::hint::black_box(strip_instance(inst));
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, id: u64, parent: u64, ts: u64, dur: u64) -> SpanRow {
        SpanRow {
            name: name.to_string(),
            id,
            parent,
            ts_us: ts,
            dur_us: dur,
            ..SpanRow::default()
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_descendants() {
        let rows = vec![
            row("engine", 1, 0, 0, 100),
            row("task", 2, 1, 10, 40),
            row("publish", 3, 2, 20, 0),
            // Stolen through the publish instant, overlapping task 2.
            row("task", 4, 3, 30, 40),
        ];
        // Covered: [10, 70) = 60 µs of 100.
        assert!((self_time_s(&rows, &["engine"]) - 40e-6).abs() < 1e-12);
        assert!((span_total_s(&rows, "task") - 80e-6).abs() < 1e-12);
    }

    #[test]
    fn fork_queue_round_trips_every_fork() {
        let fork = ForkPoint {
            path: Vec::new(),
            sleep: por::SleepSet::new(),
            taken: Vec::new(),
            choices: Vec::new(),
            excluded: Vec::new(),
            remaining: 0,
            span: 0,
        };
        assert!(fork_roundtrip_ns(vec![fork.clone(), fork], 3) >= 0.0);
    }
}

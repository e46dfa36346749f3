//! The layer-replay walk: the DPOR engine's depth-first search rebuilt
//! from the public `wbmem`/`por` functions, calling them in the engine's
//! order and timing a sample of the calls.
//!
//! It mirrors `modelcheck`'s reduced DFS (sleep sets, ample sets with the
//! cycle proviso, the dominance-pruned visit table, slept-edge probes in
//! termination mode) but checks no property, so the same traffic reaches
//! each layer without the checker's bookkeeping. With
//! [`Reduction::Off`] it is the plain visited-set DFS of the engine's
//! disabled-reduction mode and visits exactly the states `check` does.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use ftobs::Recorder;
use por::{expand, step_weight, ForkPoint, SleepSet, VisitTable};
use wbmem::{Footprint, Machine, Process, SchedElem, StepOutcome, UndoToken};

/// Which reductions the walk applies, named after the engine settings
/// that produce the same traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduction {
    /// No sleep sets, no ample sets: plain visited-set dedup.
    Off,
    /// Sleep sets and slept-edge probes, no ample sets: the engine with
    /// `check_termination` on.
    SleepOnly,
    /// Sleep sets and ample sets: the engine with `check_termination`
    /// off.
    Full,
}

/// The walk times one call in this many per layer.
pub const SAMPLE_EVERY: u64 = 4;
/// Fork points kept for the queue probe, one per this many pushed frames.
const FORK_STRIDE: usize = 499;
/// At most this many fork points are kept.
const KEEP_FORKS: usize = 128;

/// Sampled timings of one layer call site.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub sampled: u64,
    /// Summed time of the timed calls, timer overhead subtracted.
    pub sum_ns: f64,
}

impl Acc {
    /// Mean nanoseconds per timed call (0 when nothing was timed).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.sum_ns / self.sampled as f64
        }
    }

    fn add(&mut self, other: &Acc) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sum_ns += other.sum_ns;
    }
}

/// Times a sample of calls: call `k` is timed iff `k % every == phase`.
struct Sampler {
    every: u64,
    phase: u64,
    timer_ns: f64,
}

impl Sampler {
    fn time<R>(&self, acc: &mut Acc, f: impl FnOnce() -> R) -> R {
        let timed = acc.calls % self.every == self.phase;
        acc.calls += 1;
        if !timed {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as f64 - self.timer_ns;
        acc.sampled += 1;
        acc.sum_ns += ns.max(0.0);
        r
    }
}

/// Median cost of an empty `Instant::now()` / `elapsed()` pair, the
/// overhead subtracted from every timed call.
#[must_use]
fn timer_overhead_ns() -> f64 {
    let mut v: Vec<f64> = (0..2001)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Per-layer timings of a walk.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// `Machine::step_recorded`.
    pub step: Acc,
    /// `Machine::undo`.
    pub undo: Acc,
    /// `Machine::choices_into`.
    pub choices: Acc,
    /// The checker's two-pass 128-bit fingerprint ([`fingerprint`]).
    pub fingerprint: Acc,
    /// `por::expand`.
    pub expand: Acc,
    /// `VisitTable::try_claim`.
    pub claim: Acc,
}

/// What a walk saw.
#[derive(Debug, Default)]
pub struct Walk {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken (non-no-op steps, probes excluded).
    pub transitions: usize,
    /// Whether the walk stopped at `max_states` rather than finishing.
    pub truncated: bool,
    /// Sampled timings.
    pub times: LayerTimes,
    /// Fingerprints of the distinct states, in visit order.
    pub fingerprints: Vec<u128>,
    /// Fork points captured from the stack.
    pub forks: Vec<ForkPoint>,
}

impl Walk {
    /// Fold `other` into this walk: counts and timings add up, kept
    /// fingerprints and fork points are appended.
    pub fn merge(&mut self, other: Walk) {
        let (t, u) = (&mut self.times, &other.times);
        t.step.add(&u.step);
        t.undo.add(&u.undo);
        t.choices.add(&u.choices);
        t.fingerprint.add(&u.fingerprint);
        t.expand.add(&u.expand);
        t.claim.add(&u.claim);
        self.states += other.states;
        self.transitions += other.transitions;
        self.truncated |= other.truncated;
        self.fingerprints.extend(other.fingerprints);
        self.forks.extend(other.forks);
    }
}

/// The checker's state fingerprint, rebuilt from the public
/// [`Machine::hash_state`]: two SipHash passes with distinct seeds, the
/// second also hashing the first half.
#[must_use]
pub fn fingerprint<P: Process>(m: &Machine<P>) -> u128 {
    let mut h1 = DefaultHasher::new();
    0xA5A5_A5A5u32.hash(&mut h1);
    m.hash_state(&mut h1);
    let first = h1.finish();
    let mut h2 = DefaultHasher::new();
    0x5A5A_5A5Au32.hash(&mut h2);
    first.hash(&mut h2);
    m.hash_state(&mut h2);
    0x9E37_79B9u32.hash(&mut h2);
    (u128::from(first) << 64) | u128::from(h2.finish())
}

struct Frame<P> {
    fp: u128,
    sleep: SleepSet,
    choices: Vec<SchedElem>,
    next: usize,
    taken: Vec<(SchedElem, Footprint)>,
    excluded: Vec<SchedElem>,
    token: Option<UndoToken<P>>,
}

/// Walk the state space of `initial` with `reduction` until it is
/// exhausted or `max_states` distinct states were visited, timing call
/// `phase` of every [`SAMPLE_EVERY`] calls per layer (see the module
/// docs).
#[must_use]
pub fn walk<P: Process>(
    initial: &Machine<P>,
    reduction: Reduction,
    max_states: usize,
    phase: u64,
) -> Walk {
    let sampler = Sampler {
        every: SAMPLE_EVERY,
        phase: phase % SAMPLE_EVERY,
        timer_ns: timer_overhead_ns(),
    };
    let off = reduction == Reduction::Off;
    let use_ample = reduction == Reduction::Full;
    let probe = reduction == Reduction::SleepOnly;
    let model = initial.config().model;
    let obs = Recorder::disabled();
    let mut out = Walk::default();
    let t = &mut out.times;

    let mut visited = VisitTable::new();
    let mut on_stack: HashMap<u128, u32> = HashMap::new();
    let mut m = initial.clone();
    let mut scratch = Vec::new();
    let mut path: Vec<SchedElem> = Vec::new();
    let mut frames: Vec<Frame<P>> = Vec::new();
    let mut pushed = 0usize;

    let root_fp = sampler.time(&mut t.fingerprint, || fingerprint(&m));
    let root_sleep = SleepSet::new();
    sampler.time(&mut t.claim, || {
        visited.try_claim(root_fp, &root_sleep, u32::MAX)
    });
    out.states = 1;
    out.fingerprints.push(root_fp);
    if !m.all_done() {
        sampler.time(&mut t.choices, || m.choices_into(&mut scratch));
        let mut x = sampler.time(&mut t.expand, || {
            expand(&m, &scratch, &root_sleep, use_ample, &obs)
        });
        if off {
            x.explore.reverse();
        }
        on_stack.insert(root_fp, 1);
        frames.push(Frame {
            fp: root_fp,
            sleep: root_sleep,
            choices: x.explore,
            next: 0,
            taken: Vec::new(),
            excluded: x.excluded,
            token: None,
        });
    }

    while let Some(top) = frames.last_mut() {
        if top.next == top.choices.len() {
            let frame = frames.pop().expect("non-empty stack");
            match on_stack.get_mut(&frame.fp) {
                Some(1) => {
                    on_stack.remove(&frame.fp);
                }
                Some(c) => *c -= 1,
                None => unreachable!("frame fingerprint missing from the stack set"),
            }
            if let Some(token) = frame.token {
                sampler.time(&mut t.undo, || m.undo(token));
                path.pop();
            }
            continue;
        }
        let elem = top.choices[top.next];
        top.next += 1;
        if !off {
            // The engine weighs every step against the reorder budget;
            // with no bound the weight never prunes.
            std::hint::black_box(step_weight(&m, elem));
        }
        let (outcome, token) = sampler.time(&mut t.step, || m.step_recorded(elem));
        if matches!(outcome, StepOutcome::NoOp) {
            sampler.time(&mut t.undo, || m.undo(token));
            continue;
        }
        let efp = token.footprint();
        out.transitions += 1;
        let fp = sampler.time(&mut t.fingerprint, || fingerprint(&m));

        if on_stack.contains_key(&fp) && !top.excluded.is_empty() {
            let reinstated: Vec<SchedElem> = top.excluded.drain(..).collect();
            for e in reinstated {
                if !top.sleep.contains(e) {
                    top.choices.push(e);
                }
            }
        }
        let mut child_sleep = if off {
            SleepSet::new()
        } else {
            top.sleep.inherit(efp, model)
        };
        if !off {
            for &(se, sf) in &top.taken {
                if sf.independent(efp, model) {
                    child_sleep.insert(se, sf);
                }
            }
            top.taken.push((elem, efp));
        }
        let fresh = !visited.seen(fp);
        let claimed = sampler.time(&mut t.claim, || {
            visited.try_claim(fp, &child_sleep, u32::MAX)
        });
        if !claimed {
            sampler.time(&mut t.undo, || m.undo(token));
            continue;
        }
        if fresh {
            out.states += 1;
            out.fingerprints.push(fp);
            if out.states >= max_states {
                out.truncated = true;
                sampler.time(&mut t.undo, || m.undo(token));
                break;
            }
        }
        if m.all_done() {
            sampler.time(&mut t.undo, || m.undo(token));
            continue;
        }
        sampler.time(&mut t.choices, || m.choices_into(&mut scratch));
        let mut x = sampler.time(&mut t.expand, || {
            expand(&m, &scratch, &child_sleep, use_ample, &obs)
        });
        if off {
            x.explore.reverse();
        }
        if probe && x.slept > 0 {
            for &e in scratch.iter().filter(|&&e| child_sleep.contains(e)) {
                let (o, tok) = sampler.time(&mut t.step, || m.step_recorded(e));
                if !matches!(o, StepOutcome::NoOp) {
                    std::hint::black_box(sampler.time(&mut t.fingerprint, || fingerprint(&m)));
                }
                sampler.time(&mut t.undo, || m.undo(tok));
            }
        }
        *on_stack.entry(fp).or_insert(0) += 1;
        path.push(elem);
        pushed += 1;
        if out.forks.len() < KEEP_FORKS && pushed.is_multiple_of(FORK_STRIDE) {
            out.forks.push(ForkPoint {
                path: path.clone(),
                sleep: child_sleep.clone(),
                taken: Vec::new(),
                choices: x.explore.clone(),
                excluded: x.excluded.clone(),
                remaining: u32::MAX,
                span: 0,
            });
        }
        frames.push(Frame {
            fp,
            sleep: child_sleep,
            choices: x.explore,
            next: 0,
            taken: Vec::new(),
            excluded: x.excluded,
            token: Some(token),
        });
    }
    out
}

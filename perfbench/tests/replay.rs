//! The layer-replay walk must carry the same traffic as the engine it
//! times: on Bakery n=3 under PSO it visits exactly the distinct states
//! `modelcheck::check` does with the matching configuration.

use ft_perfbench::replay::{walk, Reduction};
use modelcheck::{check, CheckConfig, Engine};
use simlocks::{build_mutex, FenceMask, LockKind};
use wbmem::MemoryModel;

/// Distinct states of Bakery n=3, PSO, every fence, no reduction.
const BAKERY3_PSO_STATES: usize = 66_541;

fn checked_states(reorder_bound: Option<u32>, termination: bool) -> usize {
    let inst = build_mutex(LockKind::Bakery, 3, FenceMask::ALL);
    let mut cfg = CheckConfig::default().with_engine(Engine::Dpor { reorder_bound });
    cfg.check_termination = termination;
    let v = check(&inst.machine(MemoryModel::Pso), &cfg);
    assert!(v.is_ok(), "check: {}", v.label());
    v.stats().states
}

fn walked_states(reduction: Reduction) -> usize {
    let inst = build_mutex(LockKind::Bakery, 3, FenceMask::ALL);
    let w = walk(&inst.machine(MemoryModel::Pso), reduction, usize::MAX, 0);
    assert!(!w.truncated);
    w.states
}

#[test]
fn unreduced_walk_visits_the_checked_state_space() {
    // `Some(u32::MAX)` is the engine's disabled-reduction mode.
    assert_eq!(checked_states(Some(u32::MAX), false), BAKERY3_PSO_STATES);
    assert_eq!(walked_states(Reduction::Off), BAKERY3_PSO_STATES);
}

#[test]
fn reduced_walks_match_the_dpor_engine() {
    assert_eq!(walked_states(Reduction::Full), checked_states(None, false));
    assert_eq!(
        walked_states(Reduction::SleepOnly),
        checked_states(None, true)
    );
}

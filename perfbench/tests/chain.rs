//! The recorded answers of the `resume_chain` instances are those of an
//! uninterrupted `check` with the chain's configuration.

use ft_perfbench::workload::{Workload, CHAIN};
use modelcheck::{check, CheckConfig};
use simlocks::{build_mutex, FenceMask};
use wbmem::MemoryModel;

#[test]
fn chain_answers_match_an_uninterrupted_check() {
    for spec in &CHAIN {
        let inst = build_mutex(spec.kind, spec.n, FenceMask::ALL);
        let mut cfg = CheckConfig::default().with_engine(Workload::ResumeChain.engine());
        cfg.check_termination = false;
        let v = check(&inst.machine(MemoryModel::Pso), &cfg);
        assert!(v.is_ok(), "{}: {}", spec.name, v.label());
        let s = v.stats();
        assert_eq!(
            (s.states as u64, s.transitions as u64),
            (spec.states, spec.transitions),
            "{}: (states, transitions)",
            spec.name
        );
    }
}

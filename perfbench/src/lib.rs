//! The repository benchmark; see `NOTES.md` for the workloads, their
//! known answers and what each metric measures.

#![forbid(unsafe_code)]

pub mod layers;
pub mod replay;
pub mod report;
pub mod workload;

//! Paper-reproduction harness for the EmbRace reproduction.
//!
//! One binary per paper table/figure (`src/bin/`): each prints the
//! regenerated rows/series next to the paper's reported values —
//! `cargo run --release -p embrace-bench --bin fig7` etc.; the complete
//! index lives in DESIGN.md §5. Beside them: the `chaos` fault matrix,
//! the `embrace_sim` driver (simulate / `verify-plan` / `trace` /
//! `scenarios`).
//!
//! Performance is measured in one place, the `benchmark/` crate at the
//! repo root (BENCHMARK.json); nothing here records or gates timings.

#![forbid(unsafe_code)]

pub mod cli;
pub mod scenarios;
pub mod trace_cmd;
pub mod verify_plan;

use embrace_simnet::Cluster;

/// The GPU-count axis of the paper's end-to-end figures.
pub const WORLDS: [usize; 3] = [4, 8, 16];

/// Both evaluation clusters at a given world size.
pub fn clusters(world: usize) -> [Cluster; 2] {
    [Cluster::rtx3090(world), Cluster::rtx2080(world)]
}

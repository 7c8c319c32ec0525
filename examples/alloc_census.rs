//! Where the allocator is called: the allocation half of "where host time
//! goes".
//!
//! ```text
//! cargo run --release --example alloc_census
//! ```
//!
//! Runs the five closed-loop benchmarks of Figs. 5-7 and Fig. 10's BST under
//! flat, closed and checkpoint nesting through `workloads::run` at a fixed
//! seed and prints, per run, allocation calls and bytes requested per
//! committed root transaction. The counts cover the whole run, setup
//! included; they are a function of the seed, so a parent/change pair of
//! this table shows what a change to the read or commit path saves without
//! a profiler.

use qr_dtm::prelude::*;
use qr_dtm::workloads::{run, Benchmark, RunSpec, WorkloadParams};

#[path = "../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::Allocated;

fn main() {
    println!(
        "{:<9} {:<7} {:>7} {:>18} {:>18}",
        "benchmark", "mode", "commits", "alloc_calls/commit", "alloc_bytes/commit"
    );
    for bench in Benchmark::FIGURE_SET.into_iter().chain([Benchmark::Bst]) {
        for mode in NestingMode::ALL {
            let before = Allocated::now();
            let r = run(
                DtmConfig {
                    nodes: 13,
                    mode,
                    seed: 7,
                    ..Default::default()
                },
                &RunSpec {
                    bench,
                    params: WorkloadParams {
                        read_pct: 50,
                        calls: 3,
                        objects: 64,
                    },
                    warmup: SimDuration::ZERO,
                    duration: SimDuration::from_secs(20),
                    clients_per_node: 1,
                    failures: 0,
                },
            );
            let a = Allocated::since(before);
            let commits = r.commits.max(1);
            println!(
                "{:<9} {:<7} {:>7} {:>18.1} {:>18.1}",
                bench.name(),
                mode.to_string(),
                r.commits,
                a.calls as f64 / commits as f64,
                a.bytes as f64 / commits as f64,
            );
        }
    }
}

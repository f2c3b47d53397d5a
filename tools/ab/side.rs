// One side of the A/B comparison, written against the simulator crates
// under the aliases `sim_core`, `sim_uarch` and `sim_workloads`.
// `main.rs` includes it once per side, with the aliases bound to that
// side's crates.

use sim_core::{ObsConfig, SimConfig, Simulator, WrongPathMode};
use sim_uarch::CoreConfig;
use sim_workloads::speclike::{
    big_code, binary_search, dense_mv, filter_scan, interp_dispatch, pointer_chase, spmv,
    stream_triad,
};
use sim_workloads::{gap, Graph, Workload as Kernel};
use std::time::Instant;

/// The kernels of `workload` at ffbench's full scale and default seeds
/// (`ffbench/sim.rs`, `kernels`), with their names.
pub fn kernels(workload: Workload) -> Vec<(String, Kernel)> {
    let valid = |k: Result<Kernel, sim_workloads::WorkloadError>| {
        let k = k.expect("ffbench's kernel parameters are in range");
        (k.name().to_string(), k)
    };
    let seed = SPEC_SEED;
    match workload {
        Workload::GapBranchy => {
            let g = Graph::rmat(1 << GAP_SCALE, GAP_DEGREE, GAP_SEED);
            let src = g.max_degree_vertex();
            vec![valid(gap::bc(&g, src)), valid(gap::tc(&g))]
        }
        Workload::SpecBranchy => vec![
            valid(binary_search(1 << 16, 40_000, seed ^ 2)),
            valid(filter_scan(1 << 18, seed ^ 10)),
            valid(interp_dispatch(200_000, seed ^ 8)),
            valid(big_code(3_000, 60_000, seed ^ 7)),
        ],
        Workload::SpecPredictable => vec![
            valid(stream_triad(1 << 16, 8)),
            valid(dense_mv(320, 6)),
            valid(spmv(1 << 14, 8, 6, seed ^ 9)),
            valid(pointer_chase(1 << 17, 200_000, seed)),
        ],
    }
}

/// The label of technique `mode`, an index into `WrongPathMode::ALL`.
pub fn label(mode: usize) -> &'static str {
    WrongPathMode::ALL[mode].label()
}

/// Simulates `kernel` under technique `mode` (an index into
/// `WrongPathMode::ALL`) for `budget` instructions with observability off,
/// timing the copy of its inputs, the construction and the run as ffbench
/// does. Returns the host nanoseconds and the pinned outcome.
pub fn simulate(kernel: &Kernel, mode: usize, budget: u64) -> (f64, Outcome) {
    let start = Instant::now();
    let mut cfg = SimConfig::with_core(CoreConfig::golden_cove_like(), WrongPathMode::ALL[mode]);
    cfg.max_instructions = Some(budget);
    cfg.obs = ObsConfig::disabled();
    let (program, memory) = (kernel.program().clone(), kernel.memory().clone());
    let r = Simulator::new(program, memory, cfg)
        .and_then(Simulator::run)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", kernel.name(), WrongPathMode::ALL[mode]));
    let ns = start.elapsed().as_nanos() as f64;
    let outcome = Outcome {
        instructions: r.instructions,
        cycles: r.cycles,
        wrong_path: r.wrong_path_instructions,
        digest: r.state_digest,
    };
    (ns, outcome)
}

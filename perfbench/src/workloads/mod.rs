//! The four workloads. Each module's docs say why it was chosen, which
//! layers it stresses and which it bypasses (see also `perfbench/README.md`).

pub mod rt_cholesky;
pub mod rt_fine;
pub mod serve_mix;
pub mod sim_cholesky;

use std::time::Instant;

use mp_platform::link::Link;
use mp_platform::presets::hetero_node;
use mp_platform::types::Platform;
use mp_runtime::{RunError, RunReport, Runtime};
use mp_sched::Scheduler;

use crate::trace::{span, Name, NO_TASK};
use crate::wrap::traced_global_lock;
use crate::Workload;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["sim-cholesky", "rt-fine", "rt-cholesky", "serve-mix"];

/// Build the named workload for `seed`; `None` for an unknown name.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sim-cholesky" => Box::new(sim_cholesky::SimCholesky::new(seed, sim_cholesky::TILES)),
        "rt-fine" => Box::new(rt_fine::RtFine::new(seed)),
        "rt-cholesky" => Box::new(rt_cholesky::RtCholesky::new(seed)),
        "serve-mix" => Box::new(serve_mix::ServeMix::new(seed)),
        _ => return None,
    })
}

/// `simple(1, 1)` as the threaded runtime executes it: its two classes
/// share one memory, so the simulator gets a free link. Used for the
/// virtual makespan of the threaded workloads.
pub fn unified_1x1() -> Platform {
    hetero_node("unified", 2, 1.0, 1, 1.0, 64 << 30, 1, Link::new(1e9, 0.0))
}

/// `Runtime::run` for an untraced repetition; for a traced one, the
/// same global-lock front-end with the policy and the front-end both
/// wrapped, driven through `Runtime::run_concurrent`. Returns the
/// report and the host seconds of the call.
pub fn timed_run(
    rt: &mut Runtime,
    policy: Box<dyn Scheduler>,
    traced: bool,
) -> (Result<RunReport, RunError>, f64) {
    if traced {
        let front = traced_global_lock(policy);
        let t = Instant::now();
        let r = {
            let _s = span(Name::Run, NO_TASK);
            rt.run_concurrent(&front)
        };
        (r, t.elapsed().as_secs_f64())
    } else {
        let t = Instant::now();
        let r = rt.run(policy);
        (r, t.elapsed().as_secs_f64())
    }
}

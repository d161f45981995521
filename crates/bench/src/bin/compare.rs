//! `compare` — one-shot scheduler comparison on any built-in workload,
//! rendered as a markdown table.
//!
//! ```text
//! compare <workload> [platform] [schedulers...]
//!   workload : potrf | getrf | geqrf | fmm | sparseqr:<matrix> | hier | random
//!   platform : intel (default) | amd | simple
//! ```
//!
//! Example: `compare sparseqr:e18 intel multiprio dmdas heteroprio`
//!
//! An unknown workload, matrix, platform or scheduler name prints the
//! valid names to stderr and exits with status 2 before anything runs.

use mp_apps::dense::{geqrf, getrf, potrf, DenseConfig};
use mp_apps::fmm::{fmm, Distribution, FmmConfig};
use mp_apps::hierarchical::{hierarchical, hierarchical_model, HierConfig};
use mp_apps::random::{random_dag, random_model, RandomDagConfig};
use mp_apps::sparseqr::{matrix, sparse_qr, SparseQrConfig, FIG7_MATRICES};
use mp_apps::{dense_model, fmm_model, sparseqr_model};
use mp_bench::figures::fig8::SPARSE_NOISE_CV;
use mp_bench::harness::check_scheduler;
use mp_bench::report::{compare, to_markdown};
use mp_dag::TaskGraph;
use mp_perfmodel::TableModel;

/// Exit with status 2 after printing `why` to stderr.
fn name_error(why: &str) -> ! {
    eprintln!("compare: {why}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args.first().map(String::as_str).unwrap_or("potrf");
    let platform = match args.get(1).map(String::as_str).unwrap_or("intel") {
        "intel" => mp_platform::presets::intel_v100_streams(2),
        "amd" => mp_platform::presets::amd_a100_streams(2),
        "simple" => mp_platform::presets::simple(4, 1),
        other => name_error(&format!(
            "unknown platform {other}; the platforms are intel, amd, simple"
        )),
    };
    let mut schedulers: Vec<&str> = args.iter().skip(2).map(String::as_str).collect();
    if schedulers.is_empty() {
        schedulers = vec!["dmdas", "multiprio", "heteroprio", "lws", "fifo"];
    }
    for s in &schedulers {
        if let Err(e) = check_scheduler(s) {
            name_error(&e);
        }
    }

    let (graph, model, noise): (TaskGraph, TableModel, f64) = match workload {
        "potrf" => (
            potrf(DenseConfig::new(16 * 960, 960)).graph,
            dense_model(),
            0.0,
        ),
        "getrf" => (
            getrf(DenseConfig::new(12 * 960, 960)).graph,
            dense_model(),
            0.0,
        ),
        "geqrf" => (
            geqrf(DenseConfig::new(12 * 960, 960)).graph,
            dense_model(),
            0.0,
        ),
        "fmm" => (
            fmm(FmmConfig {
                particles: 100_000,
                tree_height: 5,
                group_size: 32,
                distribution: Distribution::Uniform,
                seed: 6,
            })
            .graph,
            fmm_model(),
            0.2,
        ),
        "hier" => (
            hierarchical(HierConfig::default()).graph,
            hierarchical_model(),
            0.0,
        ),
        "random" => (random_dag(RandomDagConfig::default()), random_model(), 0.1),
        w if w.starts_with("sparseqr:") => {
            let name = &w["sparseqr:".len()..];
            let meta = matrix(name).unwrap_or_else(|| {
                let presets: Vec<&str> = FIG7_MATRICES.iter().map(|m| m.name).collect();
                name_error(&format!(
                    "unknown matrix {name}; the Fig. 7 presets are {}",
                    presets.join(", ")
                ))
            });
            (
                sparse_qr(meta, SparseQrConfig::default()).graph,
                sparseqr_model(),
                SPARSE_NOISE_CV,
            )
        }
        other => name_error(&format!(
            "unknown workload {other}; the workloads are potrf, getrf, geqrf, fmm, \
             sparseqr:<matrix>, hier, random"
        )),
    };

    let rows = compare(&graph, &platform, &model, &schedulers, 7, noise);
    let title = format!(
        "{workload} on {} ({} tasks, noise cv {noise})",
        platform.name,
        graph.task_count()
    );
    print!("{}", to_markdown(&title, &rows));
}

//! `serve-mix`: threaded serving with a result cache. `Runtime::serve`
//! under `prio` with one worker thread plus the submitting thread, four
//! tenants weighted 4/2/1/1, and a seeded stream of small fork-join
//! sub-DAGs.
//! Half of the submissions repeat an earlier request and hit a fresh
//! per-run `ResultCache`; the rest execute and insert their results.
//! STF staging, admission, the graph `RwLock` and cache reads and writes
//! sit on this workload's critical path and on no other's; the
//! simulator is bypassed, and the policy is a plain priority queue.
//!
//! The whole stream is offered at once (an open loop at unbounded
//! rate): the API has no wall-clock arrival schedule, so this measures
//! throughput only. Each run gets a fresh `Runtime`, because serving
//! again on the same one re-executes its grown graph.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use mp_audit::streaming_audit_cached;
use mp_cache::ResultCache;
use mp_dag::{AccessMode, DataId, StfBuilder};
use mp_perfmodel::{PerfModel, TableModel, TimeFn};
use mp_platform::presets::homogeneous;
use mp_platform::types::{ArchClass, Platform};
use mp_runtime::serve::TenantSpec;
use mp_runtime::{Runtime, StreamConfig, StreamReport, Submission, TaskBuilder, TaskCtx};
use mp_sched::EagerPrioScheduler;
use mp_sim::{simulate_cached, SimConfig};

use crate::layers::Ledger;
use crate::order::Mix;
use crate::trace::{span, Name, NO_TASK};
use crate::wrap::{model_for, traced_global_lock};
use crate::{Call, Fact, Ops, Rep, Workload};

/// Submissions per stream.
pub const SUBMISSIONS: usize = 2000;
/// Readers per sub-DAG (each sub-DAG is root, readers, join).
pub const FANOUT: usize = 4;
/// Request kinds; a kind owns its root, reader and join handles.
pub const KINDS: usize = 64;
/// Elements per buffer.
pub const LEN: usize = 16;
/// Tenant weights.
pub const WEIGHTS: [f64; 4] = [4.0, 2.0, 1.0, 1.0];

const TASKS_PER_SUB: usize = FANOUT + 2;

/// One request: a sub-DAG over kind `kind`'s handles with parameter
/// `param`. Equal requests compute equal results and share cache keys.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Request {
    tenant: usize,
    kind: usize,
    param: u64,
}

/// The seeded stream: exactly half the submissions (never the first)
/// repeat an earlier request, possibly for another tenant.
fn plan(seed: u64) -> Vec<Request> {
    let mut mix = Mix(seed ^ 0x5e7e_a11c_0ffe_e000);
    let mut slots: Vec<usize> = (1..SUBMISSIONS).collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, mix.below(i + 1));
    }
    let mut repeat = vec![false; SUBMISSIONS];
    for &s in &slots[..SUBMISSIONS / 2] {
        repeat[s] = true;
    }
    let mut out: Vec<Request> = Vec::with_capacity(SUBMISSIONS);
    for (i, &rep) in repeat.iter().enumerate() {
        let tenant = mix.below(WEIGHTS.len());
        let req = if rep {
            let earlier = out[mix.below(i)];
            Request { tenant, ..earlier }
        } else {
            Request {
                tenant,
                kind: mix.below(KINDS),
                param: i as u64,
            }
        };
        out.push(req);
    }
    out
}

/// Handles of one kind.
#[derive(Clone, Debug)]
struct KindHandles {
    root: DataId,
    outs: Vec<DataId>,
    join: DataId,
}

/// One task of a request: kernel type, accesses, flops.
type TaskShape = (&'static str, Vec<(DataId, AccessMode)>, f64);

/// A request's tasks, in STF order. The root only writes its handle, so
/// its cache key depends on the request alone; the parameter enters
/// through its flops.
fn shape(h: &KindHandles, param: u64) -> Vec<TaskShape> {
    let mut tasks = vec![(
        "ROOT",
        vec![(h.root, AccessMode::Write)],
        1000.0 + param as f64,
    )];
    for &o in &h.outs {
        tasks.push((
            "READ",
            vec![(h.root, AccessMode::Read), (o, AccessMode::Write)],
            100.0,
        ));
    }
    let mut join: Vec<(DataId, AccessMode)> =
        h.outs.iter().map(|&o| (o, AccessMode::Read)).collect();
    join.push((h.join, AccessMode::Write));
    tasks.push(("JOIN", join, 100.0));
    tasks
}

fn kernel(
    kind: &'static str,
    param: u64,
    task: u32,
) -> impl Fn(&mut TaskCtx<'_>) + Send + Sync + 'static {
    move |ctx: &mut TaskCtx<'_>| {
        let _s = span(Name::Kernel, task);
        let last = ctx.len() - 1;
        let acc: f64 = match kind {
            "ROOT" => param as f64 * 1e-3,
            _ => (0..last).map(|i| ctx.r(i).iter().sum::<f64>()).sum::<f64>() * 0.5,
        };
        for (j, v) in ctx.w(last).iter_mut().enumerate() {
            *v = acc + j as f64;
        }
    }
}

/// The root's estimate follows its flops, which carry the request
/// parameter; readers and joins cost a constant.
fn model() -> TableModel {
    TableModel::builder()
        .set(
            "ROOT",
            ArchClass::Cpu,
            TimeFn::Rate {
                gflops: 1.0,
                overhead_us: 0.2,
            },
        )
        .set("READ", ArchClass::Cpu, TimeFn::Const(0.3))
        .set("JOIN", ArchClass::Cpu, TimeFn::Const(0.4))
        .build()
}

/// The workload.
pub struct ServeMix {
    platform: Platform,
    model: Arc<TableModel>,
    plan: Vec<Request>,
    cfg: StreamConfig,
    /// Digest of a cache-off serve of the same stream.
    reference: Option<u64>,
    /// Cache hits of the first cached run; later runs must repeat them.
    hits: Option<u64>,
    misses: u64,
    edges: usize,
    virtual_makespan_us: f64,
}

impl ServeMix {
    /// The workload for `seed`; serves the stream once without a cache
    /// for the reference digest, outside every timing.
    pub fn new(seed: u64) -> Self {
        let mut cfg = StreamConfig::new(
            WEIGHTS
                .iter()
                .enumerate()
                .map(|(i, &w)| TenantSpec::new(format!("t{i}"), w))
                .collect(),
        );
        cfg.admission.max_in_flight = SUBMISSIONS * TASKS_PER_SUB;
        let mut w = Self {
            platform: homogeneous(1),
            model: Arc::new(model()),
            plan: plan(seed),
            cfg,
            reference: None,
            hits: None,
            misses: 0,
            edges: 0,
            virtual_makespan_us: f64::NAN,
        };
        let (mut rt, kinds) = w.runtime(false, false);
        let stream = w.stream(&kinds);
        if let Ok(r) = rt.serve(Box::new(EagerPrioScheduler::new()), &w.cfg, stream) {
            let clean = r.is_complete()
                && r.subdags_rejected == 0
                && streaming_audit_cached(rt.graph(), &r.trace, 0).is_empty();
            if clean {
                w.reference = Some(rt.buffers_digest());
            }
        }
        w.edges = rt.graph().edge_count();
        let cache = ResultCache::new();
        let mut policy = EagerPrioScheduler::new();
        let sim = simulate_cached(
            rt.graph(),
            &w.platform,
            &*w.model,
            &mut policy,
            SimConfig::seeded(seed),
            Some(&cache),
        );
        if sim.is_complete() {
            w.virtual_makespan_us = sim.makespan;
        }
        w
    }

    fn runtime(&self, cached: bool, traced: bool) -> (Runtime, Vec<KindHandles>) {
        let model = model_for(Arc::clone(&self.model) as Arc<dyn PerfModel>, traced);
        let mut rt = Runtime::new(self.platform.clone(), model);
        if cached {
            rt.set_cache(Arc::new(ResultCache::new()));
        }
        let mut reg = |label: String| {
            let _s = span(Name::Register, NO_TASK);
            rt.register(vec![0.0; LEN], &label)
        };
        let kinds = (0..KINDS)
            .map(|k| KindHandles {
                root: reg(format!("root{k}")),
                outs: (0..FANOUT).map(|j| reg(format!("out{k}.{j}"))).collect(),
                join: reg(format!("join{k}")),
            })
            .collect();
        (rt, kinds)
    }

    fn stream(&self, kinds: &[KindHandles]) -> Vec<Submission> {
        let mut next = 0u32;
        self.plan
            .iter()
            .map(|r| Submission {
                tenant: r.tenant,
                tasks: shape(&kinds[r.kind], r.param)
                    .into_iter()
                    .map(|(kind, accesses, flops)| {
                        let mut tb = TaskBuilder::new(kind).flops(flops);
                        for (d, m) in accesses {
                            tb = tb.access(d, m);
                        }
                        next += 1;
                        tb.cpu(kernel(kind, r.param, next - 1))
                    })
                    .collect(),
            })
            .collect()
    }

    /// Stage and commit the stream through a bare `StfBuilder`, timing
    /// the ingest path on its own. Returns the tasks staged.
    fn stage_alone(&self, kinds: &[KindHandles]) -> u64 {
        let mut stf = StfBuilder::new();
        for _ in 0..KINDS * (FANOUT + 2) {
            stf.graph_mut().add_data((LEN * 8) as u64, "h");
        }
        let _s = span(Name::Stage, NO_TASK);
        let mut staged = 0u64;
        for r in &self.plan {
            let tasks: Vec<_> = shape(&kinds[r.kind], r.param)
                .into_iter()
                .map(|(kind, acc, flops)| {
                    (stf.graph_mut().register_type(kind, true, false), acc, flops)
                })
                .collect();
            let mut stage = stf.begin_submission();
            for (tt, acc, flops) in tasks {
                stage.submit_prio(tt, acc, flops, 0, "");
            }
            staged += stage.commit().len() as u64;
        }
        staged
    }

    fn check(&mut self, rt: &Runtime, r: &StreamReport) -> bool {
        let hits = *self.hits.get_or_insert(r.cache_hits);
        self.misses = r.cache_misses;
        r.is_complete()
            && r.subdags_rejected == 0
            && r.cache_hits == hits
            && streaming_audit_cached(rt.graph(), &r.trace, r.cache_hits).is_empty()
            && self.reference == Some(rt.buffers_digest())
    }
}

impl Workload for ServeMix {
    fn rep(&mut self, ledger: Option<&mut Ledger>) -> Rep {
        let traced = ledger.is_some();
        let mut ops = Ops::default();
        let t = Instant::now();
        let (mut rt, kinds) = self.runtime(true, traced);
        let stream = self.stream(&kinds);
        let setup_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let report = if traced {
            let front = traced_global_lock(Box::new(EagerPrioScheduler::new()));
            let _s = span(Name::Serve, NO_TASK);
            rt.serve_concurrent(&front, &self.cfg, stream)
        } else {
            rt.serve(Box::new(EagerPrioScheduler::new()), &self.cfg, stream)
        };
        let wall_s = t.elapsed().as_secs_f64();

        let (ok, tasks, rejected) = match &report {
            Ok(r) => (
                self.check(&rt, r),
                r.tasks_completed as u64,
                r.subdags_rejected,
            ),
            Err(_) => (false, 0, 0),
        };
        ops.check(
            ok,
            "stream completes unrejected, audits clean and matches the cache-off digest",
        );
        // Each sub-DAG is an operation too; a rejected one failed.
        ops.add(SUBMISSIONS as u64, rejected);
        if let (Some(l), Ok(r)) = (ledger, &report) {
            l.cache_hits += r.cache_hits;
            l.cache_misses += r.cache_misses;
            l.rejected += r.subdags_rejected;
            l.graph_tasks += rt.graph().task_count() as u64;
            l.staged_tasks += self.stage_alone(&kinds);
        }
        Rep {
            setup_s,
            calls: vec![Call {
                wall_s,
                tasks,
                threads: 1,
            }],
            ops,
        }
    }

    fn virtual_makespan_s(&self) -> f64 {
        self.virtual_makespan_us * 1e-6
    }

    fn facts(&self) -> Vec<(&'static str, Fact)> {
        let mut seen = HashSet::new();
        let repeats = self
            .plan
            .iter()
            .filter(|r| !seen.insert((r.kind, r.param)))
            .count();
        let hits = self.hits.unwrap_or(0);
        vec![
            ("tasks", Fact::Int((SUBMISSIONS * TASKS_PER_SUB) as u64)),
            ("edges", Fact::Int(self.edges as u64)),
            ("threads", Fact::Int(2)),
            (
                "loop",
                Fact::Text("open, unbounded rate: the whole stream offered at once".into()),
            ),
            (
                "input",
                Fact::Text(format!(
                    "{SUBMISSIONS} fork-join sub-DAGs of {TASKS_PER_SUB} tasks, 4 tenants 4/2/1/1, prio, 1 worker"
                )),
            ),
            (
                "repeated_share",
                Fact::Real(repeats as f64 / SUBMISSIONS as f64),
            ),
            (
                "hit_ratio",
                Fact::Real(hits as f64 / (hits + self.misses).max(1) as f64),
            ),
        ]
    }
}

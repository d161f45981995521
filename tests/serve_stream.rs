//! Property-based streaming-serving tests: random interleaved
//! multi-tenant submission streams through the threaded runtime's
//! serving mode must execute exactly once with per-sub-DAG precedence —
//! under the global-lock, sharded *and* relaxed front-ends — and
//! admission rejections must never strand admitted work.
//!
//! The oracle has two layers: `mp_audit::streaming_audit_cached` with
//! zero hits checks exactly-once + precedence over the final grown
//! graph (which *is* the admitted set — rejected stages never touch
//! it), and a counting kernel on every root handle cross-checks that
//! the number of committed root executions equals the number of
//! admitted submissions that wrote that handle — a rejected stage that
//! left residue, a stranded dependency, or a double execution all break
//! the count.
//!
//! The cache-backed properties run the *same* random stream with the
//! result cache on and off: the final buffer digests must be
//! bit-identical across all three front-ends (a hit may serve wrong
//! speed, never wrong data), the cache-aware audit must account for
//! every span-less hit, and a rejected sub-DAG must never strand a
//! cache entry.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use multiprio_suite::audit::streaming_audit_cached;
use multiprio_suite::dag::{AccessMode, DataId, TaskId};
use multiprio_suite::perfmodel::{PerfModel, TableModel, TimeFn};
use multiprio_suite::platform::presets::{homogeneous, simple};
use multiprio_suite::platform::types::{ArchClass, WorkerId};
use multiprio_suite::runtime::serve::TenantSpec;
use multiprio_suite::runtime::{
    FaultPlan, RelaxedConfig, RelaxedMultiQueue, ResultCache, RetryPolicy, RunError, RunReport,
    Runtime, ShardedAdapter, StreamConfig, Submission, TaskBuilder,
};
use multiprio_suite::sched::api::{PrefetchReq, SchedEvent, SchedView, Scheduler};
use multiprio_suite::sched::{ConcurrentScheduler, EagerPrioScheduler, GlobalLock};
use multiprio_suite::trace::obs::obs_enabled;
use proptest::prelude::*;

/// Tiny deterministic generator (splitmix64) for shaping streams.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Workers of every serving platform in this file.
const WORKERS: usize = 3;

fn model() -> Arc<dyn PerfModel> {
    Arc::new(
        TableModel::builder()
            .set("K", ArchClass::Cpu, TimeFn::Const(2.0))
            .build(),
    )
}

/// One fork-join sub-DAG: a counting root writer on `handle` plus
/// `width` readers. Chains with every other submission on the same
/// handle by data identity.
fn subdag(tenant: usize, handle: multiprio_suite::dag::DataId, width: usize) -> Submission {
    let mut tasks = vec![TaskBuilder::new("K")
        .access(handle, AccessMode::ReadWrite)
        .cpu(|ctx| ctx.w(0)[0] += 1.0)
        .flops(4.0)];
    for _ in 0..width {
        tasks.push(
            TaskBuilder::new("K")
                .access(handle, AccessMode::Read)
                .cpu(|_| {})
                .flops(4.0),
        );
    }
    Submission { tenant, tasks }
}

/// Serve `stream` through front-end `front`: 0 the global lock, 1 two
/// sharded `prio` instances, anything else the relaxed multi-queue over
/// the platform's `workers` workers.
fn serve_on(
    rt: &mut Runtime,
    front: usize,
    workers: usize,
    cfg: &StreamConfig,
    stream: Vec<Submission>,
) -> Result<RunReport, RunError> {
    match front {
        0 => rt.serve(Box::new(EagerPrioScheduler::new()), cfg, stream),
        1 => rt.serve_concurrent(
            &ShardedAdapter::new(2, &|| Box::new(EagerPrioScheduler::new())),
            cfg,
            stream,
        ),
        _ => rt.serve_concurrent(
            &RelaxedMultiQueue::new(workers, RelaxedConfig::default()),
            cfg,
            stream,
        ),
    }
}

/// Run one random stream through the chosen front-end and check every
/// serving invariant.
fn check_stream(
    seed: u64,
    submissions: usize,
    tenants: usize,
    handles: usize,
    max_in_flight: usize,
    per_tenant_cap: Option<usize>,
    front: usize,
) {
    let mut rt = Runtime::new(homogeneous(WORKERS), model());
    let roots: Vec<_> = (0..handles)
        .map(|i| rt.register(vec![0.0], &format!("h{i}")))
        .collect();
    let mut cfg = StreamConfig::new(
        (0..tenants)
            .map(|i| TenantSpec::new(format!("t{i}"), (i + 1) as f64))
            .collect(),
    );
    cfg.admission.max_in_flight = max_in_flight;
    cfg.admission.max_tenant_in_flight = per_tenant_cap;

    let mut mix = Mix(seed);
    let mut writes_planned: Vec<(usize, usize)> = Vec::new(); // (submission, handle)
    let stream: Vec<Submission> = (0..submissions)
        .map(|si| {
            let h = mix.below(handles);
            writes_planned.push((si, h));
            subdag(mix.below(tenants), roots[h], mix.below(3) + 1)
        })
        .collect();

    let report = serve_on(&mut rt, front, WORKERS, &cfg, stream).expect("serve failed");

    // Every admitted task completed; the stream never stalled.
    assert!(report.is_complete(), "error: {:?}", report.error);
    // The admission ledger balances.
    assert_eq!(
        report.subdags_admitted + report.subdags_rejected,
        submissions as u64
    );
    assert_eq!(report.admitted.len(), submissions);
    assert_eq!(report.rejections.len(), report.subdags_rejected as usize);
    // The final graph is exactly the admitted set.
    assert_eq!(report.tasks_admitted, rt.graph().task_count());
    // Exactly-once + per-sub-DAG precedence (including cross-submission
    // edges resolved by data identity) over the whole grown graph.
    let findings = streaming_audit_cached(rt.graph(), &report.trace, 0);
    assert!(findings.is_empty(), "{findings:?}");
    // Counting oracle: each handle's root chain ran once per *admitted*
    // submission that wrote it — rejections left no residue, nothing
    // stranded, nothing double-executed.
    let mut admitted_writes = vec![0u64; handles];
    for &(si, h) in &writes_planned {
        if report.admitted[si].is_some() {
            admitted_writes[h] += 1;
        }
    }
    for (h, &root) in roots.iter().enumerate() {
        assert_eq!(
            rt.buffer(root)[0] as u64,
            admitted_writes[h],
            "handle {h} write count"
        );
    }
}

/// A mixed sub-DAG for the cache properties: a counting `ReadWrite`
/// root on `count_h` (re-versions every commit, so it can never hit —
/// the write oracle stays exact) plus a cacheable write-only task on
/// `warm_h` and `width` readers of it (identical resubmissions hit).
fn mixed_subdag(
    tenant: usize,
    count_h: multiprio_suite::dag::DataId,
    warm_h: multiprio_suite::dag::DataId,
    width: usize,
) -> Submission {
    let mut tasks = vec![
        TaskBuilder::new("K")
            .access(count_h, AccessMode::ReadWrite)
            .cpu(|ctx| ctx.w(0)[0] += 1.0)
            .flops(4.0),
        TaskBuilder::new("K")
            .access(warm_h, AccessMode::Write)
            .cpu(|ctx| ctx.w(0)[0] = 5.0)
            .flops(4.0),
    ];
    for _ in 0..width {
        tasks.push(
            TaskBuilder::new("K")
                .access(warm_h, AccessMode::Read)
                .cpu(|_| {})
                .flops(4.0),
        );
    }
    Submission { tenant, tasks }
}

/// Run the same random stream cache-off and cache-on through one
/// front-end; the final buffer digests must agree bit for bit and the
/// cache-aware audit must account for every hit.
fn check_cached_stream(
    seed: u64,
    submissions: usize,
    tenants: usize,
    handles: usize,
    front: usize,
) {
    let run = |cached: bool| -> (u64, u64, Vec<u64>) {
        let mut rt = Runtime::new(homogeneous(WORKERS), model());
        if cached {
            rt.set_cache(Arc::new(ResultCache::new()));
        }
        let counts: Vec<_> = (0..handles)
            .map(|i| rt.register(vec![0.0], &format!("c{i}")))
            .collect();
        let warms: Vec<_> = (0..handles)
            .map(|i| rt.register(vec![0.0], &format!("w{i}")))
            .collect();
        let cfg = StreamConfig::new(
            (0..tenants)
                .map(|i| TenantSpec::new(format!("t{i}"), (i + 1) as f64))
                .collect(),
        );
        let mut mix = Mix(seed);
        let mut writes_planned: Vec<usize> = Vec::new();
        let stream: Vec<Submission> = (0..submissions)
            .map(|_| {
                let h = mix.below(handles);
                writes_planned.push(h);
                mixed_subdag(mix.below(tenants), counts[h], warms[h], mix.below(3) + 1)
            })
            .collect();
        let report = serve_on(&mut rt, front, WORKERS, &cfg, stream).expect("serve failed");
        assert!(report.is_complete(), "error: {:?}", report.error);
        // Generous default admission: identical graphs on both runs.
        assert_eq!(report.subdags_rejected, 0);
        let findings = streaming_audit_cached(rt.graph(), &report.trace, report.cache_hits);
        assert!(findings.is_empty(), "{findings:?}");
        if !cached {
            assert_eq!(report.cache_hits, 0);
            assert_eq!(report.cache_misses, 0);
        }
        // The counting roots can never be served from the cache: their
        // fingerprints re-version every commit.
        let mut count_writes = vec![0u64; handles];
        for &h in &writes_planned {
            count_writes[h] += 1;
        }
        for (h, &c) in counts.iter().enumerate() {
            assert_eq!(rt.buffer(c)[0] as u64, count_writes[h], "count handle {h}");
        }
        (rt.buffers_digest(), report.cache_hits, count_writes)
    };
    let (cold_digest, _, cold_counts) = run(false);
    let (warm_digest, warm_hits, warm_counts) = run(true);
    assert_eq!(
        cold_digest, warm_digest,
        "cache on/off must leave bit-identical buffers"
    );
    assert_eq!(cold_counts, warm_counts);
    // Each warm handle warms up after its first write-only round, so
    // any resubmitted shape produces hits.
    if submissions > 2 * handles {
        assert!(warm_hits > 0, "warm stream of {submissions} never hit");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Global-lock front-end, generous admission: everything admits,
    /// everything runs exactly once in precedence order.
    #[test]
    fn prop_streamed_subdags_execute_exactly_once_global(
        seed in 0u64..1000,
        submissions in 4usize..24,
        tenants in 1usize..4,
        handles in 1usize..4,
    ) {
        check_stream(seed, submissions, tenants, handles, 4096, None, 0);
    }

    /// Sharded front-end under tight global backpressure: rejections
    /// happen and must never strand admitted predecessors.
    #[test]
    fn prop_backpressure_strands_nothing_sharded(
        seed in 0u64..1000,
        submissions in 8usize..32,
        tenants in 1usize..4,
        handles in 1usize..3,
        max_in_flight in 4usize..16,
    ) {
        check_stream(seed, submissions, tenants, handles, max_in_flight, None, 1);
    }

    /// Relaxed multi-queue front-end with per-tenant caps: relaxed pop
    /// ordering must not break exactly-once or precedence.
    #[test]
    fn prop_relaxed_front_end_keeps_serving_invariants(
        seed in 0u64..1000,
        submissions in 8usize..32,
        tenants in 2usize..4,
        handles in 1usize..3,
        tenant_cap in 4usize..12,
    ) {
        check_stream(seed, submissions, tenants, handles, 64, Some(tenant_cap), 2);
    }

    /// Cache on/off digest equality, global-lock front-end.
    #[test]
    fn prop_cache_on_off_digests_agree_global(
        seed in 0u64..1000,
        submissions in 4usize..20,
        tenants in 1usize..4,
        handles in 1usize..3,
    ) {
        check_cached_stream(seed, submissions, tenants, handles, 0);
    }

    /// Cache on/off digest equality, sharded front-end.
    #[test]
    fn prop_cache_on_off_digests_agree_sharded(
        seed in 0u64..1000,
        submissions in 4usize..20,
        tenants in 1usize..4,
        handles in 1usize..3,
    ) {
        check_cached_stream(seed, submissions, tenants, handles, 1);
    }

    /// Cache on/off digest equality, relaxed multi-queue front-end.
    #[test]
    fn prop_cache_on_off_digests_agree_relaxed(
        seed in 0u64..1000,
        submissions in 4usize..20,
        tenants in 1usize..4,
        handles in 1usize..3,
    ) {
        check_cached_stream(seed, submissions, tenants, handles, 2);
    }

    /// Tight admission with the cache on: a rejected sub-DAG is dropped
    /// before it can be probed or populated, so every cache entry
    /// corresponds to a committed task's fingerprint — rejections
    /// strand no entries.
    #[test]
    fn prop_rejected_subdags_strand_no_cache_entries(
        seed in 0u64..1000,
        submissions in 8usize..32,
        tenants in 1usize..4,
        handles in 1usize..3,
        max_in_flight in 6usize..16,
    ) {
        let cache = Arc::new(ResultCache::new());
        let mut rt = Runtime::new(homogeneous(WORKERS), model());
        rt.set_cache(Arc::clone(&cache));
        let counts: Vec<_> = (0..handles)
            .map(|i| rt.register(vec![0.0], &format!("c{i}")))
            .collect();
        let warms: Vec<_> = (0..handles)
            .map(|i| rt.register(vec![0.0], &format!("w{i}")))
            .collect();
        let mut cfg = StreamConfig::new(TenantSpec::equal(tenants));
        cfg.admission.max_in_flight = max_in_flight;
        let mut mix = Mix(seed);
        let stream: Vec<Submission> = (0..submissions)
            .map(|_| {
                let h = mix.below(handles);
                mixed_subdag(mix.below(tenants), counts[h], warms[h], mix.below(3) + 1)
            })
            .collect();
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        prop_assert!(report.is_complete(), "error: {:?}", report.error);
        prop_assert_eq!(
            report.subdags_admitted + report.subdags_rejected,
            submissions as u64
        );
        let findings = streaming_audit_cached(rt.graph(), &report.trace, report.cache_hits);
        prop_assert!(findings.is_empty(), "{:?}", findings);
        // The grown graph is exactly the admitted set; only its
        // fingerprints can ever be populated. Every committed task was
        // executed or hit, so the entry count matches exactly.
        let g = rt.graph();
        let committed_keys: HashSet<u64> = (0..g.task_count())
            .filter_map(|i| g.cache_meta(multiprio_suite::dag::TaskId::from_index(i)))
            .map(|m| m.key)
            .collect();
        prop_assert_eq!(cache.len(), committed_keys.len());
    }
}

/// A fixed stream of `n` counting fork-join sub-DAGs over `handles`
/// roots, round-robin over two tenants.
fn fixed_stream(roots: &[multiprio_suite::dag::DataId], n: usize) -> Vec<Submission> {
    (0..n)
        .map(|i| subdag(i % 2, roots[i % roots.len()], 1 + i % 3))
        .collect()
}

/// Serve `n` fixed sub-DAGs on a fresh runtime under `plan`/`retry`
/// through front-end `front`; returns the runtime and the report.
fn serve_fixed(
    front: usize,
    n: usize,
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
) -> (Runtime, RunReport) {
    let mut rt = Runtime::new(homogeneous(WORKERS), model());
    let roots: Vec<_> = (0..3)
        .map(|i| rt.register(vec![0.0], &format!("h{i}")))
        .collect();
    if let Some(plan) = plan {
        rt.set_faults(plan);
    }
    rt.set_retry_policy(retry);
    let cfg = StreamConfig::new(TenantSpec::equal(2));
    let stream = fixed_stream(&roots, n);
    let report = serve_on(&mut rt, front, WORKERS, &cfg, stream).expect("serve failed");
    (rt, report)
}

/// Serving retries injected transient failures like a closed run: the
/// stream completes, every task commits exactly once, and the counting
/// kernels leave the buffers of a fault-free serve.
#[test]
fn fault_transient_failures_are_retried_while_serving() {
    for front in 0..3 {
        let (clean_rt, clean) = serve_fixed(front, 40, None, RetryPolicy::default());
        assert!(clean.is_complete(), "front {front}: {:?}", clean.error);
        let plan = FaultPlan {
            seed: 11,
            transient_fail_prob: 0.3,
            ..FaultPlan::default()
        };
        let (rt, report) = serve_fixed(front, 40, Some(plan), RetryPolicy::new(16, 0.0));
        assert!(report.is_complete(), "front {front}: {:?}", report.error);
        assert_eq!(report.subdags_admitted, 40, "front {front}");
        let findings = streaming_audit_cached(rt.graph(), &report.trace, 0);
        assert!(findings.is_empty(), "front {front}: {findings:?}");
        assert_eq!(
            rt.buffers_digest(),
            clean_rt.buffers_digest(),
            "front {front}: failed attempts left an effect"
        );
    }
}

/// A stream whose every attempt fails ends typed once the retry budget
/// is spent, instead of serving the failing tasks anyway.
#[test]
fn fault_exhausted_retries_end_the_stream_typed() {
    for front in 0..3 {
        let plan = FaultPlan {
            seed: 3,
            transient_fail_prob: 1.0,
            ..FaultPlan::default()
        };
        let (_, report) = serve_fixed(front, 40, Some(plan), RetryPolicy::new(3, 0.0));
        assert!(
            matches!(
                report.error,
                Some(RunError::RetryExhausted { attempts: 3, .. })
            ),
            "front {front}: got {:?}",
            report.error
        );
        assert!(!report.is_complete());
        assert!(report.trace.tasks.is_empty(), "front {front}: a task ran");
    }
}

/// A worker killed mid-stream is quarantined: it commits at most the one
/// task its kill threshold allows, and the survivors finish the stream.
#[test]
fn fault_killed_worker_is_quarantined_while_serving() {
    for front in 0..3 {
        let plan = FaultPlan::default().kill_worker(0, 1);
        let (rt, report) = serve_fixed(front, 40, Some(plan), RetryPolicy::default());
        assert!(report.is_complete(), "front {front}: {:?}", report.error);
        let on_killed = report
            .trace
            .tasks
            .iter()
            .filter(|s| s.worker.index() == 0)
            .count();
        assert!(
            on_killed <= 1,
            "front {front}: {on_killed} spans on the killed worker"
        );
        let findings = streaming_audit_cached(rt.graph(), &report.trace, 0);
        assert!(findings.is_empty(), "front {front}: {findings:?}");
    }
}

/// Killing the only GPU worker while the stream still holds a GPU-only
/// task ends the stream with `NoCapableWorker`, whichever of the kill
/// and the task's commit comes first: a task committed before the death
/// is caught by the kill-time sweep, one committed after it by the
/// commit-time check. The worker dies before its first pop. A task
/// submitted before the stream is committed before any worker starts;
/// one streamed behind 64 CPU sub-DAGs almost always commits after the
/// death. The watchdog turns a hang into a failure.
#[test]
fn fault_killing_the_only_capable_worker_mid_stream_is_typed() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let model: Arc<dyn PerfModel> = Arc::new(
            TableModel::builder()
                .set("K", ArchClass::Cpu, TimeFn::Const(2.0))
                .set("G", ArchClass::Gpu, TimeFn::Const(2.0))
                .build(),
        );
        for round in 0..40 {
            for front in 0..3 {
                let streamed = round % 2 == 1;
                // simple(1, 1): worker 0 is the CPU, worker 1 the GPU.
                let mut rt = Runtime::new(simple(1, 1), Arc::clone(&model));
                let cpu_h = rt.register(vec![0.0], "cpu");
                let gpu_h = rt.register(vec![0.0], "gpu");
                let gpu_only = || {
                    TaskBuilder::new("G")
                        .access(gpu_h, AccessMode::ReadWrite)
                        .gpu(|ctx| ctx.w(0)[0] += 1.0)
                };
                let early = (!streamed).then(|| rt.submit(gpu_only()));
                rt.set_faults(FaultPlan::default().kill_worker(1, 0));
                let mut stream: Vec<Submission> = (0..64).map(|_| subdag(0, cpu_h, 1)).collect();
                if streamed {
                    stream.push(Submission {
                        tenant: 0,
                        tasks: vec![gpu_only()],
                    });
                }
                let cfg = StreamConfig::new(TenantSpec::equal(1));
                let report = serve_on(&mut rt, front, 2, &cfg, stream).expect("serve failed");
                let doomed = early.unwrap_or_else(|| {
                    report
                        .admitted
                        .last()
                        .cloned()
                        .flatten()
                        .expect("GPU task committed")[0]
                });
                assert_eq!(
                    report.error,
                    Some(RunError::NoCapableWorker { task: doomed }),
                    "round {round}, front {front}"
                );
                assert!(!report.is_complete());
            }
        }
        let _ = tx.send(());
    });
    rx.recv_timeout(std::time::Duration::from_secs(120))
        .expect("a stream with a doomed task hung instead of ending typed");
}

/// A serve over a byte-capped, persisting cache reports the cache's
/// evictions and persisted records on its report, as a closed run does,
/// and leaves the obs counters empty without `obs`.
#[test]
fn serving_reports_cache_evictions_and_persist_writes() {
    let dir = std::env::temp_dir().join(format!("mp-serve-evict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ResultCache::with_capacity(300));
    cache.persist_to(&dir).expect("persist dir");
    let mut rt = Runtime::new(homogeneous(WORKERS), model());
    rt.set_cache(Arc::clone(&cache));
    let handles: Vec<_> = (0..40)
        .map(|i| rt.register(vec![0.0; 4], &format!("w{i}")))
        .collect();
    let evictions_before = cache.evictions();
    let writes_before = cache.persist_stats().writes;
    // 40 distinct 32-byte results against a 300-byte budget.
    let stream: Vec<Submission> = handles
        .iter()
        .enumerate()
        .map(|(i, &h)| Submission {
            tenant: 0,
            tasks: vec![TaskBuilder::new("K")
                .access(h, AccessMode::Write)
                .cpu(move |ctx| ctx.w(0).fill(i as f64))
                .flops(4.0)],
        })
        .collect();
    let cfg = StreamConfig::new(TenantSpec::equal(1));
    let report = rt
        .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
        .expect("serve failed");
    assert!(report.is_complete(), "{:?}", report.error);
    let evicted = cache.evictions() - evictions_before;
    let written = cache.persist_stats().writes - writes_before;
    assert!(evicted > 0, "the byte cap never evicted");
    assert!(written > 0, "nothing was persisted");
    assert_eq!(report.cache_evictions, evicted);
    assert_eq!(report.persist.writes, written);
    if !obs_enabled() {
        assert!(report.counters.is_empty(), "{}", report.counters.render());
    }
    drop(rt);
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A submission naming a tenant the stream does not have is a typed
/// error before anything runs.
#[test]
fn unknown_tenant_is_a_typed_error() {
    let mut rt = Runtime::new(homogeneous(WORKERS), model());
    let h = rt.register(vec![0.0], "h");
    let cfg = StreamConfig::new(TenantSpec::equal(2));
    let stream = vec![subdag(1, h, 1), subdag(5, h, 1)];
    let err = rt
        .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
        .expect_err("tenant 5 of 2 was served");
    assert_eq!(
        err,
        RunError::UnknownTenant {
            submission: 1,
            tenant: 5,
            tenants: 2
        }
    );
    assert_eq!(rt.graph().task_count(), 0, "nothing was committed");
    assert_eq!(rt.buffer(h)[0], 0.0);
}

/// With no tenants, a non-empty stream names an unknown tenant, while an
/// empty one is a closed run of the tasks submitted before it.
#[test]
fn empty_tenant_list_serves_only_an_empty_stream() {
    let mut rt = Runtime::new(homogeneous(WORKERS), model());
    let h = rt.register(vec![0.0], "h");
    let cfg = StreamConfig::new(Vec::new());
    let err = rt
        .serve(
            Box::new(EagerPrioScheduler::new()),
            &cfg,
            vec![subdag(0, h, 1)],
        )
        .expect_err("a tenant-less stream was served");
    assert_eq!(
        err,
        RunError::UnknownTenant {
            submission: 0,
            tenant: 0,
            tenants: 0
        }
    );
    rt.submit(
        TaskBuilder::new("K")
            .access(h, AccessMode::ReadWrite)
            .cpu(|ctx| ctx.w(0)[0] += 1.0),
    );
    let report = rt
        .serve(Box::new(EagerPrioScheduler::new()), &cfg, Vec::new())
        .expect("an empty stream needs no tenants");
    assert!(report.is_complete(), "{:?}", report.error);
    assert_eq!(report.tasks_completed, 1);
    assert_eq!(rt.buffer(h)[0], 1.0);
}

/// A streamed task with no implementation at all is a typed error,
/// reported with the id it would have had.
#[test]
fn streamed_task_without_an_implementation_is_a_typed_error() {
    let mut rt = Runtime::new(homogeneous(WORKERS), model());
    let h = rt.register(vec![0.0], "h");
    let cfg = StreamConfig::new(TenantSpec::equal(1));
    let stream = vec![
        subdag(0, h, 2),
        Submission {
            tenant: 0,
            tasks: vec![TaskBuilder::new("K").access(h, AccessMode::Read)],
        },
    ];
    match rt.serve(Box::new(EagerPrioScheduler::new()), &cfg, stream) {
        Err(RunError::NoUsableImpl { task, label, .. }) => {
            assert_eq!(task.index(), 3, "three tasks precede it");
            assert_eq!(label, "K");
        }
        other => panic!("expected NoUsableImpl, got {other:?}"),
    }
}

/// A streamed task whose type is already registered with another
/// implementation set is a typed error, whether the type came from a
/// task submitted before the stream or from an earlier streamed task.
#[test]
fn type_registered_with_other_implementations_is_a_typed_error() {
    let cfg = StreamConfig::new(TenantSpec::equal(1));
    let both = |ttype: &str, h| {
        TaskBuilder::new(ttype)
            .access(h, AccessMode::Read)
            .cpu(|_| {})
            .gpu(|_| {})
    };

    let mut rt = Runtime::new(homogeneous(WORKERS), model());
    let h = rt.register(vec![0.0], "h");
    rt.submit(
        TaskBuilder::new("K")
            .access(h, AccessMode::ReadWrite)
            .cpu(|ctx| ctx.w(0)[0] += 1.0),
    );
    let stream = vec![
        subdag(0, h, 1),
        Submission {
            tenant: 0,
            tasks: vec![both("K", h)],
        },
    ];
    let err = rt
        .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
        .expect_err("a CPU-only type was re-registered for the GPU");
    assert_eq!(
        err,
        RunError::TypeMismatch {
            task: TaskId::from_index(3),
            ttype: "K".into(),
            registered: vec![ArchClass::Cpu],
            provided: vec![ArchClass::Cpu, ArchClass::Gpu],
        }
    );
    assert_eq!(rt.graph().task_count(), 1, "nothing was committed");

    let mut rt = Runtime::new(homogeneous(WORKERS), model());
    let h = rt.register(vec![0.0], "h");
    let stream = vec![
        Submission {
            tenant: 0,
            tasks: vec![TaskBuilder::new("G")
                .access(h, AccessMode::Write)
                .cpu(|_| {})],
        },
        Submission {
            tenant: 0,
            tasks: vec![both("G", h)],
        },
    ];
    let err = rt
        .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
        .expect_err("a streamed type changed its implementations");
    assert_eq!(
        err,
        RunError::TypeMismatch {
            task: TaskId::from_index(1),
            ttype: "G".into(),
            registered: vec![ArchClass::Cpu],
            provided: vec![ArchClass::Cpu, ArchClass::Gpu],
        }
    );
    assert_eq!(rt.graph().type_id("G"), None, "nothing was registered");
}

/// A streamed access to a handle the runtime never registered is a typed
/// error, reported with the id the task would have had.
#[test]
fn access_to_an_unregistered_handle_is_a_typed_error() {
    let mut rt = Runtime::new(homogeneous(WORKERS), model());
    let h = rt.register(vec![0.0], "h");
    let foreign = DataId::from_index(7);
    let cfg = StreamConfig::new(TenantSpec::equal(1));
    let stream = vec![subdag(0, h, 1), subdag(0, foreign, 0)];
    let err = rt
        .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
        .expect_err("an unregistered handle was served");
    assert_eq!(
        err,
        RunError::UnknownData {
            task: TaskId::from_index(2),
            data: foreign,
        }
    );
    assert_eq!(rt.graph().task_count(), 0, "nothing was committed");
}

/// `prio`, except that a push without a releaser panics. With nothing
/// submitted before the stream, only the driver pushes that way.
struct PanicsOnDriverPush(EagerPrioScheduler);

impl Scheduler for PanicsOnDriverPush {
    fn name(&self) -> &'static str {
        "panics-on-driver-push"
    }

    fn push(&mut self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>) {
        assert!(releaser.is_some(), "the driver released {t:?}");
        self.0.push(t, releaser, view);
    }

    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        self.0.pop(w, view)
    }

    fn pending(&self) -> usize {
        self.0.pending()
    }
}

/// A panic on the driver thread ends the serve with that panic once the
/// workers have exited, instead of leaving them waiting for a stream
/// that never closes. The watchdog turns a hang into a failure.
#[test]
fn driver_panic_ends_the_serve_instead_of_hanging() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut rt = Runtime::new(homogeneous(WORKERS), model());
        let h = rt.register(vec![0.0], "h");
        let cfg = StreamConfig::new(TenantSpec::equal(1));
        let stream: Vec<Submission> = (0..8).map(|_| subdag(0, h, 2)).collect();
        let policy = Box::new(PanicsOnDriverPush(EagerPrioScheduler::new()));
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.serve(policy, &cfg, stream)
        }));
        let _ = tx.send(served.is_err());
    });
    let panicked = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("a panicking driver hung the serve");
    assert!(panicked, "the driver's panic did not reach the caller");
}

/// Spin until `flag` is set, for at most 5 s.
fn await_flag(flag: &AtomicBool) {
    let start = Instant::now();
    while !flag.load(Ordering::Acquire) && start.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
}

/// The global-lock front-end, except that the first pop sets `entered`
/// and then waits for `open` while it holds the worker's graph read
/// guard. The driver cannot link meanwhile, so its submissions pile up
/// staged.
struct FirstPopWaits {
    inner: GlobalLock,
    entered: Arc<AtomicBool>,
    open: Arc<AtomicBool>,
}

impl ConcurrentScheduler for FirstPopWaits {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn push(&self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>) {
        self.inner.push(t, releaser, view);
    }

    fn pop(&self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        if !self.entered.swap(true, Ordering::AcqRel) {
            await_flag(&self.open);
        }
        self.inner.pop(w, view)
    }

    fn feedback(&self, ev: &SchedEvent, view: &SchedView<'_>) {
        self.inner.feedback(ev, view);
    }

    fn worker_disabled(&self, w: WorkerId, view: &SchedView<'_>) {
        self.inner.worker_disabled(w, view);
    }

    fn push_retry(&self, t: TaskId, attempt: u32, view: &SchedView<'_>) {
        self.inner.push_retry(t, attempt, view);
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn drain_prefetches(&self) -> Vec<PrefetchReq> {
        self.inner.drain_prefetches()
    }
}

/// Held by a kernel; acts when the driver drops the kernel, which it
/// does when it rejects the kernel's submission.
enum OnDrop {
    /// Wait for the flag.
    Await(Arc<AtomicBool>),
    /// Set the flag.
    Set(Arc<AtomicBool>),
}

impl Drop for OnDrop {
    fn drop(&mut self) {
        match self {
            OnDrop::Await(flag) => await_flag(flag),
            OnDrop::Set(flag) => flag.store(true, Ordering::Release),
        }
    }
}

/// Inferred but unlinked tasks count as in flight. The first submission
/// is too large to admit; dropping it holds the driver until the lone
/// worker sits in its first pop with its read guard held. From then on
/// nothing completes and the driver can only stage, yet admission must
/// stop at `max_in_flight`. The last submission, rejected in turn, lets
/// the pop go on.
#[test]
fn staged_tasks_count_against_admission() {
    const MAX: usize = 8;
    const SUBMISSIONS: usize = 1000;
    let entered = Arc::new(AtomicBool::new(false));
    let open = Arc::new(AtomicBool::new(false));
    let mut rt = Runtime::new(homogeneous(1), model());
    let h = rt.register(vec![0.0], "h");
    let mut cfg = StreamConfig::new(TenantSpec::equal(2));
    cfg.admission.max_in_flight = MAX;
    let reader = |hook: Option<OnDrop>| {
        TaskBuilder::new("K")
            .access(h, AccessMode::Read)
            .cpu(move |_| {
                let _keep = &hook;
            })
    };
    let mut stream = vec![Submission {
        tenant: 0,
        tasks: (0..=MAX)
            .map(|j| reader((j == 0).then(|| OnDrop::Await(Arc::clone(&entered)))))
            .collect(),
    }];
    stream.extend((1..SUBMISSIONS).map(|i| Submission {
        tenant: i % 2,
        tasks: vec![reader(
            (i + 1 == SUBMISSIONS).then(|| OnDrop::Set(Arc::clone(&open))),
        )],
    }));
    let front = FirstPopWaits {
        inner: GlobalLock::new(Box::new(EagerPrioScheduler::new())),
        entered,
        open,
    };
    let report = rt
        .serve_concurrent(&front, &cfg, stream)
        .expect("serve failed");
    assert!(report.is_complete(), "{:?}", report.error);
    assert_eq!(report.tasks_admitted, MAX, "admitted past max_in_flight");
    assert_eq!(report.subdags_admitted, MAX as u64);
    assert!(report.admitted[1..=MAX].iter().all(Option::is_some));
    assert_eq!(report.rejections[0].0, 0);
    let findings = streaming_audit_cached(rt.graph(), &report.trace, 0);
    assert!(findings.is_empty(), "{findings:?}");
}

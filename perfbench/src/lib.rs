//! Host-time benchmark of the MultiPrio stack.
//!
//! Four seeded workloads ([`workloads`]) each run a repetition loop for
//! a fixed number of seconds: a set-up (timed as `setup_s`), one or more
//! timed calls into the program (timed for `tasks_per_s`), and output
//! checks (counted in `ok_share`). The untraced run reports the
//! end-to-end metrics. The traced run alternates untraced and traced
//! repetitions: traced ones swap in the transparent wrappers of
//! [`wrap`] and record spans ([`trace`]) that [`layers`] turns into
//! per-layer metrics; the untraced ones give the tracing overhead.

pub mod layers;
pub mod order;
pub mod tiles;
pub mod trace;
pub mod workloads;
pub mod wrap;

use std::io::Write;
use std::time::Instant;

use layers::Ledger;

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
}

/// One timed call into the program.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Host seconds of the call.
    pub wall_s: f64,
    /// Tasks it completed (cache hits included).
    pub tasks: u64,
    /// Worker threads it ran (1 for the simulator).
    pub threads: usize,
}

/// Operations attempted and failed. An operation is a set-up, a timed
/// call or a streamed sub-DAG; it fails when any check on it fails.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Count one operation; `what` names it in the failure message.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

/// What one repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds of the set-up.
    pub setup_s: f64,
    /// The timed calls.
    pub calls: Vec<Call>,
    /// Checked operations.
    pub ops: Ops,
}

/// A JSON scalar for the report line.
#[derive(Clone, Debug)]
pub enum Fact {
    /// An integer.
    Int(u64),
    /// A real.
    Real(f64),
    /// A string (no quotes or backslashes).
    Text(String),
}

/// A benchmark workload.
pub trait Workload {
    /// One repetition. `ledger` is `Some` for a traced repetition: spans
    /// are being recorded, and the workload adds the counts the program
    /// reports itself.
    fn rep(&mut self, ledger: Option<&mut Ledger>) -> Rep;

    /// The workload's simulated makespan in virtual seconds.
    fn virtual_makespan_s(&self) -> f64;

    /// Input facts for the report line.
    fn facts(&self) -> Vec<(&'static str, Fact)>;
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine so far (`/proc/stat`).
/// Steal is time the host ran something else while this machine's
/// virtual CPUs wanted to run; it slows every timed call alike.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Worker threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark result: the `correct/attempted/failed/metrics` line.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed and every metric is a finite number.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The report line's facts.
    pub facts: Vec<(&'static str, Fact)>,
}

/// Run `w` for `opts.seconds` after one warm-up repetition.
pub fn measure(w: &mut dyn Workload, opts: &Opts) -> Outcome {
    let mut ops = Ops::default();
    let warm = w.rep(None);
    ops.add(warm.ops.attempted, warm.ops.failed);

    let mut ledger = Ledger::default();
    let mut last_spans = Vec::new();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut reps = 0u64;
    let ticks_at_start = cpu_ticks();
    let start = Instant::now();
    let min_reps = if opts.trace { 2 } else { 3 };
    while reps < min_reps || start.elapsed().as_secs_f64() < opts.seconds {
        let traced = opts.trace && reps % 2 == 1;
        let rep = if traced {
            trace::drain();
            trace::set_enabled(true);
            ledger.setups += 1;
            let rep = w.rep(Some(&mut ledger));
            trace::set_enabled(false);
            last_spans = trace::drain();
            ledger.absorb(&last_spans);
            rep
        } else {
            w.rep(None)
        };
        for c in &rep.calls {
            if traced {
                ledger.calls += 1;
                ledger.tasks += c.tasks;
                ledger.thread_ns += c.threads as f64 * c.wall_s * 1e9;
                ledger.traced_walls.push(c.wall_s);
            } else {
                ledger.untraced_walls.push(c.wall_s);
                rates.push(c.tasks as f64 / c.wall_s);
            }
        }
        if !traced {
            setups.push(rep.setup_s);
        }
        ops.add(rep.ops.attempted, rep.ops.failed);
        reps += 1;
    }

    let mut facts = w.facts();
    facts.push(("reps", Fact::Int(reps)));
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_at_start, cpu_ticks()) {
        if t1 > t0 {
            let share = (s1 - s0) as f64 / (t1 - t0) as f64;
            facts.push(("host_steal_share", Fact::Real(share)));
        }
    }
    if !rates.is_empty() {
        // Spread of single calls within this run, next to its median.
        let mut r = rates.clone();
        r.sort_by(f64::total_cmp);
        let q = |p: f64| r[((r.len() - 1) as f64 * p).round() as usize];
        facts.push(("timed_calls", Fact::Int(r.len() as u64)));
        facts.push(("call_tasks_per_s_p25", Fact::Real(q(0.25))));
        facts.push(("call_tasks_per_s_p75", Fact::Real(q(0.75))));
    }
    if opts.trace {
        let path = std::path::PathBuf::from(format!(
            ".perfbench/spans-{}-seed{}.tsv",
            opts.workload, opts.seed
        ));
        match trace::write_tsv(&path, &last_spans) {
            Ok(()) => facts.push(("spans_file", Fact::Text(path.display().to_string()))),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    facts.push(("nproc", Fact::Int(nproc() as u64)));
    let metrics: Vec<(&'static str, f64, &'static str)> = if opts.trace {
        ledger.metrics()
    } else {
        let ok_share = (ops.attempted - ops.failed) as f64 / ops.attempted.max(1) as f64;
        vec![
            ("tasks_per_s", median(&rates), "1/s"),
            ("setup_s", median(&setups), "s"),
            ("virtual_makespan_s", w.virtual_makespan_s(), "s"),
            ("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
            ("ok_share", ok_share, "share"),
        ]
    };
    let finite = metrics.iter().all(|m| m.1.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not a finite number: {metrics:?}");
    }
    Outcome {
        correct: ops.failed == 0 && ops.attempted > 0 && finite,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        facts,
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Print the report line and, last, the result line.
pub fn print(out: &Outcome, opts: &Opts) {
    let mut facts = vec![
        format!("\"workload\": \"{}\"", opts.workload),
        format!("\"seed\": {}", opts.seed),
        format!("\"seconds\": {}", json_num(opts.seconds)),
        format!("\"traced\": {}", opts.trace),
    ];
    for (k, v) in &out.facts {
        let v = match v {
            Fact::Int(i) => i.to_string(),
            Fact::Real(r) => json_num(*r),
            Fact::Text(t) => format!("\"{t}\""),
        };
        facts.push(format!("\"{k}\": {v}"));
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{{\"report\": {{{}}}}}", facts.join(", "));
    let _ = writeln!(
        stdout,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    let _ = stdout.flush();
}

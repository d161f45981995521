//! Per-layer metrics from the traced run.
//!
//! [`Ledger`] accumulates the spans of every traced repetition plus the
//! counts the program reports itself (`SimStats`, `StreamReport`), and
//! turns them into the per-layer metrics named in `BENCHMARK.json`.
//! A layer a workload never enters reads 0.

use std::collections::HashMap;

use crate::trace::{flag, Name, Span};

/// Unit and direction of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str, &str); 29] = [
    ("apps.generate_s", "s", "lower"),
    ("dag.submit_ns", "ns", "lower"),
    ("dag.register_s", "s", "lower"),
    ("dag.stage_ns", "ns", "lower"),
    ("sched.push_ns", "ns", "lower"),
    ("sched.pop_ns", "ns", "lower"),
    ("sched.feedback_ns", "ns", "lower"),
    ("sched.pops_per_task", "count", "lower"),
    ("sched.pop_yield", "share", "higher"),
    ("sched.holdbacks_per_task", "count", "lower"),
    ("front.wait_ns", "ns", "lower"),
    ("model.estimates_per_task", "count", "lower"),
    ("model.estimate_ns", "ns", "lower"),
    ("model.record_ns", "ns", "lower"),
    ("sim.self_ns_per_task", "ns", "lower"),
    ("sim.transfer_mb_per_task", "MB", "lower"),
    ("sim.empty_pops_per_task", "count", "lower"),
    ("rt.dispatch_ns", "ns", "lower"),
    ("rt.complete_ns", "ns", "lower"),
    ("rt.park_ns", "ns", "lower"),
    ("rt.parks_per_task", "count", "lower"),
    ("rt.kernel_share", "share", "higher"),
    ("kernel.ns", "ns", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "share", "higher"),
    ("serve.rejected", "count", "lower"),
    ("serve.graph_tasks", "count", "lower"),
    ("trace.overhead", "share", "lower"),
];

#[derive(Clone, Copy, Debug, Default)]
struct Sum {
    n: u64,
    total: u64,
}

impl Sum {
    fn add(&mut self, v: u64) {
        self.n += 1;
        self.total += v;
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total as f64 / self.n as f64
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Accumulated traced measurements.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Tasks completed by traced timed calls (cache hits included).
    pub tasks: u64,
    /// Σ over traced timed calls of `threads × wall ns`.
    pub thread_ns: f64,
    /// Set-ups made in traced repetitions.
    pub setups: u64,
    /// Tasks mirrored into runtimes (the `Mirror` spans cover them).
    pub mirrored_tasks: u64,
    /// Tasks staged by `Stage` spans.
    pub staged_tasks: u64,
    /// Bytes moved by the simulator (demand, prefetch, write-back).
    pub sim_transfer_bytes: u64,
    /// Simulator pops that returned nothing.
    pub sim_empty_pops: u64,
    /// Cache hits and misses reported by the runtime.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// Rejected sub-DAGs.
    pub rejected: u64,
    /// Σ of the grown graph's size over traced serve calls.
    pub graph_tasks: u64,
    /// Traced timed calls.
    pub calls: u64,
    /// Wall time of traced and untraced timed calls, for the overhead.
    pub traced_walls: Vec<f64>,
    /// See `traced_walls`.
    pub untraced_walls: Vec<f64>,
    self_ns: HashMap<Name, Sum>,
    dur_ns: HashMap<Name, u64>,
    pop_hits: u64,
    holdbacks: u64,
    dispatch: Sum,
    complete: Sum,
    park: Sum,
    empty_front_pops: u64,
    kernel: Sum,
}

impl Ledger {
    /// Fold in the spans of one traced repetition (from
    /// [`crate::trace::drain`]).
    pub fn absorb(&mut self, threads: &[Vec<Span>]) {
        for spans in threads {
            for s in spans {
                self.self_ns.entry(s.name).or_default().add(s.self_ns());
                *self.dur_ns.entry(s.name).or_default() += s.dur();
                if s.name == Name::SchedPop && s.flags & flag::POP_HIT != 0 {
                    self.pop_hits += 1;
                }
                if s.flags & flag::HOLDBACK != 0 {
                    self.holdbacks += 1;
                }
            }
            if spans.iter().any(|s| s.name == Name::FrontPop) {
                self.worker_timeline(spans);
            }
        }
    }

    /// Walk one worker thread's top-level spans in time order and cut
    /// its life into dispatch, kernel, completion and park gaps. The
    /// kernel is the benchmark's own kernel span when the workload has
    /// one; otherwise it is the interval between the task-start
    /// feedback and the model's `record` call, which brackets buffer
    /// locking and the kernel body.
    fn worker_timeline(&mut self, spans: &[Span]) {
        #[derive(Clone, Copy)]
        enum At {
            Idle,
            Popped { end: u64, wrapped: u64 },
            InKernel { start: u64 },
            Finished { end: u64, wrapped: u64 },
            Empty { end: u64 },
        }
        let mut top: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
        top.sort_by_key(|s| s.start);
        let own_kernel = top.iter().any(|s| s.name == Name::Kernel);
        let mut at = At::Idle;
        for s in top {
            at = match (s.name, at) {
                (Name::FrontPop, prev) => {
                    match prev {
                        At::Finished { end, wrapped } => {
                            self.complete.add((s.start - end).saturating_sub(wrapped))
                        }
                        At::Empty { end } => self.park.add(s.start - end),
                        _ => {}
                    }
                    if s.flags & flag::POP_HIT != 0 {
                        At::Popped {
                            end: s.end,
                            wrapped: 0,
                        }
                    } else {
                        self.empty_front_pops += 1;
                        At::Empty { end: s.end }
                    }
                }
                (Name::Kernel, prev) if own_kernel => {
                    if let At::Popped { end, wrapped } = prev {
                        self.dispatch.add((s.start - end).saturating_sub(wrapped));
                    }
                    self.kernel.add(s.dur());
                    At::Finished {
                        end: s.end,
                        wrapped: 0,
                    }
                }
                (Name::FrontFeedback, At::Popped { end, wrapped })
                    if !own_kernel && s.flags & flag::STARTED != 0 =>
                {
                    self.dispatch.add((s.start - end).saturating_sub(wrapped));
                    At::InKernel { start: s.end }
                }
                (Name::ModelRecord, At::InKernel { start }) => {
                    self.kernel.add(s.start.saturating_sub(start));
                    At::Finished {
                        end: s.start,
                        wrapped: s.dur(),
                    }
                }
                (_, At::Popped { end, wrapped }) => At::Popped {
                    end,
                    wrapped: wrapped + s.dur(),
                },
                (_, At::Finished { end, wrapped }) => At::Finished {
                    end,
                    wrapped: wrapped + s.dur(),
                },
                (_, prev) => prev,
            };
        }
    }

    fn mean_self(&self, n: Name) -> f64 {
        self.self_ns.get(&n).map_or(0.0, Sum::mean)
    }

    fn count(&self, n: Name) -> u64 {
        self.self_ns.get(&n).map_or(0, |s| s.n)
    }

    fn total_dur(&self, n: Name) -> u64 {
        self.dur_ns.get(&n).copied().unwrap_or(0)
    }

    fn total_self(&self, n: Name) -> u64 {
        self.self_ns.get(&n).map_or(0, |s| s.total)
    }

    /// The per-layer metrics as `(name, value, unit)`, in [`PER_LAYER`]
    /// order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let tasks = self.tasks as f64;
        let setups = self.setups as f64;
        let fronts = [
            Name::FrontPush,
            Name::FrontPop,
            Name::FrontFeedback,
            Name::FrontOther,
        ];
        let front_self: u64 = fronts.iter().map(|&n| self.total_self(n)).sum();
        let front_n: u64 = fronts.iter().map(|&n| self.count(n)).sum();
        let submits = self.count(Name::Submit) + self.mirrored_tasks;
        let submit_ns = self.total_dur(Name::Submit) + self.total_dur(Name::Mirror);
        let pops = self.count(Name::SchedPop) as f64;
        let probes = (self.cache_hits + self.cache_misses) as f64;
        let calls = self.calls as f64;
        let overhead = if self.traced_walls.is_empty() || self.untraced_walls.is_empty() {
            0.0
        } else {
            crate::median(&self.traced_walls) / crate::median(&self.untraced_walls) - 1.0
        };
        let values: [f64; PER_LAYER.len()] = [
            ratio(self.total_dur(Name::Generate) as f64 * 1e-9, setups),
            ratio(submit_ns as f64, submits as f64),
            ratio(self.total_dur(Name::Register) as f64 * 1e-9, setups),
            ratio(self.total_dur(Name::Stage) as f64, self.staged_tasks as f64),
            self.mean_self(Name::SchedPush),
            self.mean_self(Name::SchedPop),
            self.mean_self(Name::SchedFeedback),
            ratio(pops, tasks),
            ratio(self.pop_hits as f64, pops),
            ratio(self.holdbacks as f64, tasks),
            ratio(front_self as f64, front_n as f64),
            ratio(self.count(Name::ModelEstimate) as f64, tasks),
            self.mean_self(Name::ModelEstimate),
            self.mean_self(Name::ModelRecord),
            ratio(self.total_self(Name::Simulate) as f64, tasks),
            ratio(self.sim_transfer_bytes as f64 * 1e-6, tasks),
            ratio(self.sim_empty_pops as f64, tasks),
            self.dispatch.mean(),
            self.complete.mean(),
            self.park.mean(),
            ratio(self.empty_front_pops as f64, tasks),
            ratio(self.kernel.total as f64, self.thread_ns),
            self.kernel.mean(),
            ratio(self.cache_hits as f64, calls),
            ratio(self.cache_misses as f64, calls),
            ratio(self.cache_hits as f64, probes),
            ratio(self.rejected as f64, calls),
            ratio(self.graph_tasks as f64, calls),
            overhead,
        ];
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| (name, v, unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: Name, start: u64, end: u64, flags: u8) -> Span {
        Span {
            thread: 1,
            id: start + 1,
            parent: 0,
            name,
            task: 0,
            start,
            end,
            child_ns: 0,
            flags,
        }
    }

    #[test]
    fn worker_gaps_exclude_wrapped_calls() {
        let spans = vec![
            s(Name::FrontPop, 0, 10, flag::POP_HIT),
            s(Name::FrontFeedback, 14, 20, flag::STARTED),
            s(Name::Kernel, 25, 125, 0),
            s(Name::FrontPush, 130, 140, 0),
            s(Name::FrontPop, 150, 160, 0),
            s(Name::FrontOther, 161, 162, 0),
            s(Name::FrontPop, 200, 210, flag::POP_HIT),
        ];
        let mut l = Ledger {
            tasks: 1,
            thread_ns: 1000.0,
            ..Ledger::default()
        };
        l.absorb(&[spans]);
        let m: HashMap<_, _> = l.metrics().into_iter().map(|(k, v, _)| (k, v)).collect();
        // 10 → 25 minus the 6 ns feedback.
        assert_eq!(m["rt.dispatch_ns"], 9.0);
        // 125 → 150 minus the 10 ns push.
        assert_eq!(m["rt.complete_ns"], 15.0);
        assert_eq!(m["rt.park_ns"], 40.0);
        assert_eq!(m["rt.parks_per_task"], 1.0);
        assert_eq!(m["kernel.ns"], 100.0);
        assert_eq!(m["rt.kernel_share"], 0.1);
    }

    #[test]
    fn marker_kernel_spans_feedback_to_record() {
        let spans = vec![
            s(Name::FrontPop, 0, 10, flag::POP_HIT),
            s(Name::ModelEstimate, 12, 14, 0),
            s(Name::FrontFeedback, 20, 30, flag::STARTED),
            s(Name::ModelRecord, 80, 84, 0),
            s(Name::FrontFeedback, 85, 90, 0),
            s(Name::FrontPop, 100, 110, flag::POP_HIT),
        ];
        let mut l = Ledger {
            tasks: 1,
            thread_ns: 100.0,
            ..Ledger::default()
        };
        l.absorb(&[spans]);
        let m: HashMap<_, _> = l.metrics().into_iter().map(|(k, v, _)| (k, v)).collect();
        assert_eq!(m["rt.dispatch_ns"], 8.0);
        assert_eq!(m["kernel.ns"], 50.0);
        // 80 → 100 minus record (4) and feedback (5).
        assert_eq!(m["rt.complete_ns"], 11.0);
    }
}

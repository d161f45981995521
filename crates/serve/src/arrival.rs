//! Deterministic open-loop arrival processes.
//!
//! Arrival instants are pure functions of `(process, seed, index)` built
//! on the suite's splitmix64 idiom (`mp_fault::unit`) — no wall clock,
//! no shared RNG state — so two drivers with the same configuration
//! produce bit-identical arrival sequences on any machine.

use mp_fault::unit;

/// Salt decorrelating arrival draws from every other consumer of the
/// run seed.
const SALT_ARRIVAL: u64 = 0x5345_5256_4152_5256; // "SERVARRV"

/// An open-loop arrival process over virtual time.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: i.i.d. exponential gaps with the given mean
    /// rate (submissions per virtual second).
    Poisson {
        /// Mean arrival rate, submissions/s.
        rate_per_sec: f64,
    },
    /// Bursty arrivals: burst epochs are Poisson with rate
    /// `rate_per_sec / burst`, and each epoch releases `burst`
    /// submissions at the same instant — same long-run rate as
    /// `Poisson`, maximally clumped. Exercises admission control and
    /// the latency tail.
    Bursty {
        /// Mean arrival rate, submissions/s (across bursts).
        rate_per_sec: f64,
        /// Submissions released per burst epoch.
        burst: usize,
    },
}

impl ArrivalProcess {
    /// Parse `"poisson:RATE"` or `"bursty:RATE[:BURST]"` (rate in
    /// submissions per second; burst defaults to 8).
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let kind = parts.next().unwrap_or("");
        let rate: f64 = parts
            .next()
            .ok_or_else(|| format!("arrival spec '{s}' is missing a rate"))?
            .parse()
            .map_err(|_| format!("arrival spec '{s}' has a non-numeric rate"))?;
        let process = match kind {
            "poisson" => ArrivalProcess::Poisson { rate_per_sec: rate },
            "bursty" => ArrivalProcess::Bursty {
                rate_per_sec: rate,
                burst: match parts.next() {
                    Some(b) => b
                        .parse()
                        .map_err(|_| format!("arrival spec '{s}' has a bad burst size"))?,
                    None => 8,
                },
            },
            _ => {
                return Err(format!(
                    "unknown arrival process '{kind}' (expected poisson|bursty)"
                ))
            }
        };
        process.check().map(|()| process)
    }

    /// Can this process generate arrivals? Its rate must be finite and
    /// positive — a zero rate puts every arrival at infinity — and a
    /// burst must release at least one submission, or [`Self::times_us`]
    /// never fills.
    pub fn check(&self) -> Result<(), String> {
        let (rate, burst) = match *self {
            ArrivalProcess::Poisson { rate_per_sec } => (rate_per_sec, 1),
            ArrivalProcess::Bursty {
                rate_per_sec,
                burst,
            } => (rate_per_sec, burst),
        };
        if !(rate.is_finite() && rate > 0.0) {
            return Err(format!(
                "arrival process '{}' needs a finite positive rate",
                self.label()
            ));
        }
        if burst == 0 {
            return Err(format!(
                "arrival process '{}' needs a burst of at least 1",
                self.label()
            ));
        }
        Ok(())
    }

    /// Canonical spec string (round-trips through [`Self::parse`]).
    pub fn label(&self) -> String {
        match self {
            ArrivalProcess::Poisson { rate_per_sec } => format!("poisson:{rate_per_sec}"),
            ArrivalProcess::Bursty {
                rate_per_sec,
                burst,
            } => format!("bursty:{rate_per_sec}:{burst}"),
        }
    }

    /// The first `n` arrival instants in virtual µs, strictly
    /// non-decreasing, deterministic in `(self, seed)`. The process must
    /// pass [`Self::check`].
    pub fn times_us(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                let rate_us = rate_per_sec / 1e6;
                let mut t = 0.0;
                for k in 0..n {
                    t += exp_gap(seed, k as u64, rate_us);
                    out.push(t);
                }
            }
            ArrivalProcess::Bursty {
                rate_per_sec,
                burst,
            } => {
                let epoch_rate_us = rate_per_sec / 1e6 / burst as f64;
                let mut t = 0.0;
                let mut k = 0u64;
                while out.len() < n {
                    t += exp_gap(seed, k, epoch_rate_us);
                    k += 1;
                    for _ in 0..burst.min(n - out.len()) {
                        out.push(t);
                    }
                }
            }
        }
        out
    }
}

/// One exponential inter-arrival gap in µs (inverse-CDF sampling of the
/// splitmix-derived uniform).
fn exp_gap(seed: u64, k: u64, rate_us: f64) -> f64 {
    let u = unit(seed, k, SALT_ARRIVAL);
    -(1.0 - u).ln() / rate_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in ["poisson:800", "bursty:500:16"] {
            let p = ArrivalProcess::parse(s).unwrap();
            assert_eq!(p.label(), s);
        }
        assert_eq!(
            ArrivalProcess::parse("bursty:100").unwrap(),
            ArrivalProcess::Bursty {
                rate_per_sec: 100.0,
                burst: 8
            }
        );
        assert!(ArrivalProcess::parse("uniform:1").is_err());
        assert!(ArrivalProcess::parse("poisson:-3").is_err());
        assert!(ArrivalProcess::parse("poisson:0").is_err());
        assert!(ArrivalProcess::parse("poisson:inf").is_err());
        assert!(ArrivalProcess::parse("poisson").is_err());
        assert!(ArrivalProcess::parse("bursty:10:0").is_err());
    }

    #[test]
    fn poisson_times_are_deterministic_and_rate_plausible() {
        let p = ArrivalProcess::Poisson {
            rate_per_sec: 1000.0,
        };
        let a = p.times_us(4000, 42);
        let b = p.times_us(4000, 42);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap should be within 10% of 1/rate = 1000 µs.
        let mean_gap = a.last().unwrap() / a.len() as f64;
        assert!((mean_gap - 1000.0).abs() < 100.0, "mean gap {mean_gap}");
        // A different seed must give a different sequence.
        assert_ne!(a, p.times_us(4000, 43));
    }

    #[test]
    fn bursty_clumps_but_keeps_the_rate() {
        let p = ArrivalProcess::Bursty {
            rate_per_sec: 1000.0,
            burst: 10,
        };
        let a = p.times_us(4000, 42);
        // Bursts share an instant.
        assert_eq!(a[0], a[9]);
        assert!(a[10] > a[9]);
        let mean_gap = a.last().unwrap() / a.len() as f64;
        assert!((mean_gap - 1000.0).abs() < 150.0, "mean gap {mean_gap}");
    }
}

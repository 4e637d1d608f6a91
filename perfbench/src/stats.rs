//! Summary statistics and the failure tally of a timed loop.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Fewest timed renders a run takes, whatever its length: one more than
/// [`TAIL_BEYOND`], so that a tail percentile always exists.
pub const MIN_SAMPLES: usize = TAIL_BEYOND + 1;

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest nearest-rank percentile that
/// still has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in `(0, 100)`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples ranked beyond `value`.
    pub beyond: usize,
}

/// The tail of `xs`, or `None` when it holds [`TAIL_BEYOND`] samples or
/// fewer. Under the nearest-rank definition the `p`-th percentile of `n`
/// sorted samples is the one at rank `ceil(p/100 * n)`; the highest rank
/// with ten ranks above it is `n - 10`, reached first at
/// `p = 100 * (n - 10) / n`.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
        beyond: TAIL_BEYOND,
    })
}

/// Why one timed render counts as failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The run returned a `RunError`.
    Run(String),
    /// The image's digest differs from the reference image's.
    Image {
        /// Digest of the rendered image.
        got: u64,
        /// Digest of the reference image.
        want: u64,
    },
    /// A ledger or model invariant broke (out-of-core conservation,
    /// residency, or the simulator's makespan).
    Ledger(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Run(e) => write!(f, "run error: {e}"),
            Failure::Image { got, want } => {
                write!(f, "image digest {got:#018x}, reference {want:#018x}")
            }
            Failure::Ledger(e) => write!(f, "invariant broken: {e}"),
        }
    }
}

/// Renders attempted and failed in a timed loop. A render fails once,
/// however many of its checks break; the first failure is kept for the
/// report and the loop goes on.
#[derive(Debug, Default)]
pub struct Tally {
    /// Renders attempted.
    pub attempted: u64,
    /// Renders with at least one failure.
    pub failed: u64,
    /// The first failure seen, for the report.
    pub first_failure: Option<Failure>,
}

impl Tally {
    /// Count one render whose checks produced `failures`.
    pub fn record(&mut self, failures: Vec<Failure>) {
        self.attempted += 1;
        if let Some(first) = failures.into_iter().next() {
            self.failed += 1;
            self.first_failure.get_or_insert(first);
        }
    }

    /// Failed renders over renders attempted; 1 when nothing was attempted,
    /// so an empty loop never reads as clean.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

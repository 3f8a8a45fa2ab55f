//! orion-obs: the observability substrate.
//!
//! The paper's §3.1 requires that an OODB carry over *all* conventional
//! database facilities — resource management included — and the
//! performance arguments of §3.2/§3.3 (index choice, clustering, cache
//! residency) are only testable when every layer exposes counters. This
//! crate provides the primitives those layers share:
//!
//! * [`Counter`] / [`Gauge`] — single atomics, `Relaxed` ordering, no
//!   locks anywhere.
//! * [`Histogram`] — fixed-bucket latency distribution. Buckets are
//!   compile-time constants so recording is one comparison loop plus two
//!   `fetch_add`s; no allocation, no locking.
//! * [`SpanTimer`] — a start [`Instant`] captured *by the caller*, so a
//!   layer that already holds a timestamp (or measures nothing on the
//!   fast path) never pays for a clock read it didn't ask for. There is
//!   no wall-clock (`SystemTime`) anywhere in this crate.
//! * [`metrics!`] — one declaration per metric: a table of fields, each
//!   with its kind, series name and help text, from which the macro
//!   generates a layer's sink struct, its `Copy` snapshot struct, the
//!   copy between them and the Prometheus rendering.
//! * [`render`] — Prometheus-style text exposition of one series, called
//!   only by the code [`metrics!`] generates.
//!
//! Concurrency contract: every mutation is a single `Relaxed` atomic
//! RMW, so counters are monotonic under arbitrary thread interleaving —
//! nothing ever zeroes one; a measurement is the difference of two
//! snapshots. Snapshots are safe to take from any thread at any time: a
//! snapshot may be mid-update-skewed (e.g. a histogram `count` one
//! ahead of `sum`) but never torn per field.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

/// A monotonically increasing event counter. It has no reset: measure
/// a phase as the difference of two [`Counter::get`] reads.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Count one event.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Count `n` events at once (batch accounting).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

// ---------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------

/// A last-write-wins instantaneous value (e.g. the parallelism of the
/// most recent query execution).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Set the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Upper bounds (microseconds, inclusive) of the latency buckets; the
/// implicit final bucket is `+Inf`. Chosen to straddle everything from a
/// contended atomic (sub-µs) to a 5 s lock-timeout wait.
pub const BUCKET_BOUNDS_US: [u64; 11] =
    [1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000, 100_000, 1_000_000];

const NUM_BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1; // + the +Inf bucket

/// A fixed-bucket latency histogram. Recording is lock-free: one linear
/// bucket search over a compile-time array and two `Relaxed` adds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Record one observation of `d`.
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_micros(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record one observation of `us` microseconds.
    #[inline]
    pub fn observe_micros(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(NUM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_micros.fetch_add(us, Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Relaxed),
            sum_micros: self.sum_micros.load(Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, in microseconds.
    pub sum_micros: u64,
    /// Per-bucket (non-cumulative) counts; the last entry is `+Inf`.
    pub buckets: [u64; NUM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean observation in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / self.count as f64
        }
    }

    /// Cumulative `(upper_bound_us, count ≤ bound)` pairs in Prometheus
    /// `le` convention; the final pair uses `u64::MAX` for `+Inf`.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut acc = 0u64;
        BUCKET_BOUNDS_US
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.buckets.iter())
            .map(|(bound, c)| {
                acc += c;
                (bound, acc)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// SpanTimer
// ---------------------------------------------------------------------

/// A lightweight span: the caller supplies both endpoints, so a layer
/// that already read the clock for its own purposes pays nothing extra,
/// and code paths that skip timing never touch the clock at all.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer {
    start: Instant,
}

impl SpanTimer {
    /// A span starting at `start` (typically `Instant::now()` taken by
    /// the caller outside any lock).
    pub fn starting_at(start: Instant) -> Self {
        SpanTimer { start }
    }

    /// The span's duration as of `end` (saturating to zero).
    pub fn elapsed_at(&self, end: Instant) -> Duration {
        end.saturating_duration_since(self.start)
    }

    /// Close the span at `end` and record it into `hist`.
    pub fn record(self, end: Instant, hist: &Histogram) {
        hist.observe(self.elapsed_at(end));
    }
}

// ---------------------------------------------------------------------
// Metric declarations
// ---------------------------------------------------------------------

/// Declare a group of metrics once. Each entry names a field, its kind
/// and its Prometheus series and help text:
///
/// ```
/// orion_obs::metrics! {
///     /// Counters of a hypothetical pool (the snapshot).
///     pub struct PoolStats;
///     /// The pool's live sinks.
///     pub struct PoolMetrics;
///     /// Page requests satisfied without I/O.
///     hits: counter("orion_pool_hits_total", "Pool hits"),
///     /// Flush latency.
///     flush: histogram("orion_pool_flush_seconds", "Flush latency"),
/// }
/// let m = PoolMetrics::default();
/// m.hits.inc();
/// let mut out = String::new();
/// m.snapshot().render(&mut out);
/// assert!(out.contains("orion_pool_hits_total 1"));
/// ```
///
/// The kinds are `counter` and `gauge` (a [`Counter`] or [`Gauge`] sink,
/// a `u64` in the snapshot), `histogram` (a [`Histogram`] of durations,
/// rendered in seconds) and `plain_histogram` (a [`Histogram`] of plain
/// numbers such as a batch size or a chain length, rendered unscaled).
///
/// The macro generates the snapshot struct (`Debug, Default, Clone,
/// Copy, PartialEq, Eq`, one `pub` field per entry) with `render`,
/// which appends its series in declaration order; and, when a second
/// `struct` line names one, the sink struct (`Debug, Default`) with
/// `snapshot`, which reads every sink. Without a sink line the snapshot
/// struct is filled by its owner.
#[macro_export]
macro_rules! metrics {
    (@sink counter) => { $crate::Counter };
    (@sink gauge) => { $crate::Gauge };
    (@sink histogram) => { $crate::Histogram };
    (@sink plain_histogram) => { $crate::Histogram };
    (@value counter) => { u64 };
    (@value gauge) => { u64 };
    (@value histogram) => { $crate::HistogramSnapshot };
    (@value plain_histogram) => { $crate::HistogramSnapshot };
    (@read counter $sink:expr) => { $sink.get() };
    (@read gauge $sink:expr) => { $sink.get() };
    (@read histogram $sink:expr) => { $sink.snapshot() };
    (@read plain_histogram $sink:expr) => { $sink.snapshot() };
    (
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $snap:ident;
        $(#[$sink_meta:meta])*
        $sink_vis:vis struct $sink:ident;
        $( $(#[$doc:meta])* $field:ident : $kind:ident($series:literal, $help:literal) ),* $(,)?
    ) => {
        $crate::metrics! {
            $(#[$snap_meta])*
            $snap_vis struct $snap;
            $( $(#[$doc])* $field: $kind($series, $help), )*
        }

        $(#[$sink_meta])*
        #[derive(Debug, Default)]
        $sink_vis struct $sink {
            $( $(#[$doc])* pub $field: $crate::metrics!(@sink $kind), )*
        }

        impl $sink {
            /// A point-in-time copy of every sink. Each field is read on
            /// its own (`Relaxed`), so a copy taken mid-update may be
            /// skewed across fields, but no value is torn.
            pub fn snapshot(&self) -> $snap {
                $snap { $( $field: $crate::metrics!(@read $kind self.$field), )* }
            }
        }
    };
    (
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $snap:ident;
        $( $(#[$doc:meta])* $field:ident : $kind:ident($series:literal, $help:literal) ),* $(,)?
    ) => {
        $(#[$snap_meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        $snap_vis struct $snap {
            $( $(#[$doc])* pub $field: $crate::metrics!(@value $kind), )*
        }

        impl $snap {
            /// Append this group's series to `out` in the Prometheus
            /// text format, in declaration order.
            pub fn render(&self, out: &mut String) {
                $( $crate::render::$kind(out, $series, $help, self.$field); )*
            }
        }
    };
}

// ---------------------------------------------------------------------
// Prometheus-style text exposition
// ---------------------------------------------------------------------

/// Text exposition in the Prometheus format, for scripts that scrape a
/// stats dump rather than consume the structured snapshot.
pub mod render {
    use super::HistogramSnapshot;
    use std::fmt::Write;

    /// Render one counter metric.
    pub fn counter(out: &mut String, name: &str, help: &str, value: u64) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }

    /// Render one gauge metric.
    pub fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }

    /// Render one histogram metric (seconds, per Prometheus convention).
    pub fn histogram(out: &mut String, name: &str, help: &str, snap: HistogramSnapshot) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (bound, cum) in snap.cumulative() {
            if bound == u64::MAX {
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
            } else {
                let le = bound as f64 / 1e6;
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
            }
        }
        let _ = writeln!(out, "{name}_sum {}", snap.sum_micros as f64 / 1e6);
        let _ = writeln!(out, "{name}_count {}", snap.count);
    }

    /// Render one histogram whose observations are plain numbers (a
    /// batch size, a chain length) rather than durations: bucket
    /// bounds and the sum are emitted verbatim, not scaled to seconds.
    pub fn plain_histogram(out: &mut String, name: &str, help: &str, snap: HistogramSnapshot) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (bound, cum) in snap.cumulative() {
            if bound == u64::MAX {
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
            } else {
                let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
            }
        }
        let _ = writeln!(out, "{name}_sum {}", snap.sum_micros);
        let _ = writeln!(out, "{name}_count {}", snap.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(17);
        assert_eq!(g.get(), 17);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let h = Histogram::new();
        h.observe_micros(0); // ≤ 1
        h.observe_micros(1); // ≤ 1
        h.observe_micros(7); // ≤ 10
        h.observe_micros(2_000_000); // +Inf
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_micros, 2_000_008);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[NUM_BUCKETS - 1], 1);
        let cum = s.cumulative();
        assert_eq!(cum.last().unwrap().1, 4, "+Inf is cumulative total");
        assert!((s.mean_micros() - 500_002.0).abs() < 1e-6);
    }

    #[test]
    fn span_timer_uses_caller_instants() {
        let h = Histogram::new();
        let t0 = Instant::now();
        let span = SpanTimer::starting_at(t0);
        span.record(t0 + Duration::from_micros(42), &h);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum_micros, 42);
        // Reversed endpoints saturate instead of panicking.
        let span = SpanTimer::starting_at(t0 + Duration::from_secs(1));
        assert_eq!(span.elapsed_at(t0), Duration::ZERO);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let c = Arc::new(Counter::new());
        let h = Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe_micros(i % 50);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.snapshot().count, 8000);
    }

    #[test]
    fn prometheus_rendering_shapes() {
        let mut out = String::new();
        render::counter(&mut out, "orion_test_total", "a test counter", 9);
        assert!(out.contains("# TYPE orion_test_total counter"));
        assert!(out.contains("orion_test_total 9"));

        let h = Histogram::new();
        h.observe_micros(3);
        let mut out = String::new();
        render::histogram(&mut out, "orion_wait_seconds", "waits", h.snapshot());
        assert!(out.contains("orion_wait_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(out.contains("orion_wait_seconds_count 1"));
    }
}

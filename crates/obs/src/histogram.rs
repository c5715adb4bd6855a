//! Latency histograms: the one [`Histogram`] type behind both
//! `wwt_http_request_duration_seconds` and the per-stage family
//! `wwt_stage_duration_us{stage=...}` (a fixed stage set × 12
//! microsecond buckets).
//!
//! Observation is a single first-fitting-bucket scan plus three relaxed
//! atomic increments — cheap enough to run on every query, fed from the
//! `StageTimings` the engine already measures (no extra clock reads).

use crate::series::{write_header, Kind, Scalar};
use std::fmt::Write;

/// Bucket upper bounds in microseconds. Chosen around the bench
/// trajectory: cold-query median ≈ 900 µs, dominant stage (column map)
/// 50 µs – 3.5 ms, tails up to the deadline range.
pub const STAGE_BUCKET_BOUNDS_US: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
];

/// The instrumented pipeline stages (the `stage` label values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// First index probe (scatter-gather over shards).
    Probe1,
    /// Reading stage-1 candidate tables from the store.
    Read1,
    /// Second index probe, seeded by high-relevance mappings.
    Probe2,
    /// Reading stage-2 candidate tables from the store.
    Read2,
    /// Column mapping (the dominant cost).
    ColumnMap,
    /// Answer consolidation and ranking.
    Consolidate,
    /// Response-cache lookup in the service layer.
    CacheLookup,
    /// Wire serialization of the response body.
    Serialize,
}

impl Stage {
    /// Every stage, in render order.
    pub const ALL: [Stage; 8] = [
        Stage::Probe1,
        Stage::Read1,
        Stage::Probe2,
        Stage::Read2,
        Stage::ColumnMap,
        Stage::Consolidate,
        Stage::CacheLookup,
        Stage::Serialize,
    ];

    /// The Prometheus `stage` label value.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Probe1 => "probe1",
            Stage::Read1 => "read1",
            Stage::Probe2 => "probe2",
            Stage::Read2 => "read2",
            Stage::ColumnMap => "column_map",
            Stage::Consolidate => "consolidate",
            Stage::CacheLookup => "cache_lookup",
            Stage::Serialize => "serialize",
        }
    }
}

/// A fixed-bucket latency histogram over microsecond observations:
/// observing is a first-fitting-bucket scan plus three relaxed atomic
/// increments.
#[derive(Debug)]
pub struct Histogram<const N: usize> {
    bounds: &'static [u64; N],
    /// Microseconds per exported unit: 1 for `_us` families, 1e6 for
    /// `_seconds` ones.
    us_per_unit: f64,
    /// Observations per bucket; each lands in its first fitting bucket,
    /// overflows only count toward `+Inf` (cumulative counts are taken
    /// at render time).
    buckets: [Scalar; N],
    sum_us: Scalar,
    count: Scalar,
}

impl<const N: usize> Histogram<N> {
    /// An empty histogram with inclusive upper `bounds` in microseconds,
    /// exported in units of `us_per_unit` microseconds.
    pub fn new(bounds: &'static [u64; N], us_per_unit: f64) -> Self {
        Histogram {
            bounds,
            us_per_unit,
            buckets: std::array::from_fn(|_| Scalar::default()),
            sum_us: Scalar::default(),
            count: Scalar::default(),
        }
    }

    /// Records one observation.
    pub fn observe(&self, us: u64) {
        if let Some(bucket) = self.bounds.iter().position(|&bound| us <= bound) {
            self.buckets[bucket].inc();
        }
        self.sum_us.add(us);
        self.count.inc();
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    fn exported(&self, us: u64) -> String {
        (us as f64 / self.us_per_unit).to_string()
    }

    /// Appends the `_bucket`, `_sum` and `_count` samples of family
    /// `name`, each carrying `labels` (`stage="probe1"`, or empty).
    ///
    /// Buckets render cumulatively. The count is read *after* the
    /// buckets and clamped to their total, so an observe racing this
    /// render can never leave a finite bucket above `+Inf` or `_count`
    /// (Prometheus treats a non-monotone histogram as corrupt).
    pub fn write_prometheus(&self, out: &mut String, name: &str, labels: &str) {
        let (le_prefix, braced) = if labels.is_empty() {
            (String::new(), String::new())
        } else {
            (format!("{labels},"), format!("{{{labels}}}"))
        };
        let mut cumulative = 0u64;
        for (bound, bucket) in self.bounds.iter().zip(&self.buckets) {
            cumulative += bucket.get();
            let le = self.exported(*bound);
            let _ = writeln!(out, "{name}_bucket{{{le_prefix}le=\"{le}\"}} {cumulative}");
        }
        let count = self.count.get().max(cumulative);
        let sum = self.exported(self.sum_us.get());
        let _ = write!(
            out,
            "{name}_bucket{{{le_prefix}le=\"+Inf\"}} {count}\n\
             {name}_sum{braced} {sum}\n\
             {name}_count{braced} {count}\n"
        );
    }
}

/// The full per-stage histogram family.
#[derive(Debug)]
pub struct StageHistograms {
    stages: [Histogram<{ STAGE_BUCKET_BOUNDS_US.len() }>; Stage::ALL.len()],
}

impl Default for StageHistograms {
    fn default() -> Self {
        StageHistograms {
            stages: std::array::from_fn(|_| Histogram::new(&STAGE_BUCKET_BOUNDS_US, 1.0)),
        }
    }
}

impl StageHistograms {
    /// An empty family (all counters zero).
    pub fn new() -> Self {
        StageHistograms::default()
    }

    /// Records one stage duration in microseconds.
    pub fn observe(&self, stage: Stage, us: u64) {
        self.stages[stage as usize].observe(us);
    }

    /// Total observations for one stage (tests, /stats).
    pub fn count(&self, stage: Stage) -> u64 {
        self.stages[stage as usize].count()
    }

    /// Appends the family in Prometheus text exposition format 0.0.4.
    pub fn render_prometheus(&self, out: &mut String) {
        const NAME: &str = "wwt_stage_duration_us";
        write_header(
            out,
            NAME,
            Kind::Histogram,
            "Query pipeline stage duration in microseconds.",
        );
        for stage in Stage::ALL {
            let labels = format!("stage=\"{}\"", stage.label());
            self.stages[stage as usize].write_prometheus(out, NAME, &labels);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_lands_in_first_fitting_bucket() {
        let h = StageHistograms::new();
        h.observe(Stage::Probe1, 50); // boundary: le="50" includes 50
        h.observe(Stage::Probe1, 51);
        h.observe(Stage::Probe1, 300_000); // beyond last bound: +Inf only
        assert_eq!(h.count(Stage::Probe1), 3);
        let mut out = String::new();
        h.render_prometheus(&mut out);
        assert!(out.contains(r#"wwt_stage_duration_us_bucket{stage="probe1",le="50"} 1"#));
        assert!(out.contains(r#"wwt_stage_duration_us_bucket{stage="probe1",le="100"} 2"#));
        assert!(out.contains(r#"wwt_stage_duration_us_bucket{stage="probe1",le="250000"} 2"#));
        assert!(out.contains(r#"wwt_stage_duration_us_bucket{stage="probe1",le="+Inf"} 3"#));
        assert!(out.contains(r#"wwt_stage_duration_us_sum{stage="probe1"} 300101"#));
        assert!(out.contains(r#"wwt_stage_duration_us_count{stage="probe1"} 3"#));
    }

    #[test]
    fn every_stage_renders_even_when_empty() {
        let h = StageHistograms::new();
        let mut out = String::new();
        h.render_prometheus(&mut out);
        for stage in Stage::ALL {
            assert!(
                out.contains(&format!(
                    "wwt_stage_duration_us_count{{stage=\"{}\"}} 0",
                    stage.label()
                )),
                "missing series for {stage:?}"
            );
        }
        // One HELP/TYPE pair for the whole family.
        assert_eq!(out.matches("# TYPE wwt_stage_duration_us").count(), 1);
    }

    #[test]
    fn a_render_racing_an_observe_stays_monotone() {
        // What a scrape sees in the middle of `observe`: the bucket is
        // already bumped, the count not yet.
        let h = StageHistograms::new();
        h.stages[Stage::Probe1 as usize].buckets[STAGE_BUCKET_BOUNDS_US.len() - 1].inc();
        let mut out = String::new();
        h.render_prometheus(&mut out);
        assert!(out.contains(r#"wwt_stage_duration_us_bucket{stage="probe1",le="250000"} 1"#));
        assert!(
            out.contains(r#"wwt_stage_duration_us_bucket{stage="probe1",le="+Inf"} 1"#),
            "{out}"
        );
        assert!(
            out.contains(r#"wwt_stage_duration_us_count{stage="probe1"} 1"#),
            "{out}"
        );
    }

    #[test]
    fn buckets_are_cumulative_and_monotone() {
        let h = StageHistograms::new();
        for us in [10, 60, 120, 260, 600, 1200, 9_999, 240_000] {
            h.observe(Stage::ColumnMap, us);
        }
        let mut out = String::new();
        h.render_prometheus(&mut out);
        let mut last = 0u64;
        for line in out
            .lines()
            .filter(|l| l.contains(r#"stage="column_map",le="#))
        {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last, "non-monotone cumulative buckets: {out}");
            last = n;
        }
        assert_eq!(last, 8);
    }
}

//! Per-stage timing of the online pipeline (paper Figure 7 splits query
//! time into: 1st index probe, 1st table read, 2nd index probe, 2nd table
//! read, column mapping, consolidation).

use std::time::Duration;
use wwt_obs::Stage;

/// Wall-clock time spent in each online stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// First index probe.
    pub index1: Duration,
    /// Reading stage-1 candidate tables from the store.
    pub read1: Duration,
    /// Second index probe (zero when not used).
    pub index2: Duration,
    /// Reading stage-2 candidate tables.
    pub read2: Duration,
    /// Column mapping (including the top-2 pre-mapping for the probe).
    pub column_map: Duration,
    /// Consolidation + ranking.
    pub consolidate: Duration,
    /// First probe, per index shard, in scatter order — the straggler
    /// view of the scatter-gather (one entry per shard; a single-shard
    /// engine reports one entry).
    pub probe1_shards: Vec<Duration>,
    /// Second probe, per index shard (empty when the probe did not fire).
    pub probe2_shards: Vec<Duration>,
}

impl StageTimings {
    /// Total time across stages.
    pub fn total(&self) -> Duration {
        self.index1 + self.read1 + self.index2 + self.read2 + self.column_map + self.consolidate
    }

    /// The stage durations in Figure 7's stacking order, each with its
    /// stage: the one list the stage histograms and recorded traces use.
    pub fn stages(&self) -> [(Stage, Duration); 6] {
        [
            (Stage::Probe1, self.index1),
            (Stage::Read1, self.read1),
            (Stage::Probe2, self.index2),
            (Stage::Read2, self.read2),
            (Stage::ColumnMap, self.column_map),
            (Stage::Consolidate, self.consolidate),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let t = StageTimings {
            index1: Duration::from_millis(5),
            read1: Duration::from_millis(10),
            index2: Duration::from_millis(3),
            read2: Duration::from_millis(7),
            column_map: Duration::from_millis(20),
            consolidate: Duration::from_millis(5),
            ..Default::default()
        };
        assert_eq!(t.total(), Duration::from_millis(50));
        let stages = t.stages();
        assert_eq!(stages[4], (Stage::ColumnMap, Duration::from_millis(20)));
        let sum: Duration = stages.iter().map(|(_, d)| *d).sum();
        assert_eq!(sum, t.total());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(StageTimings::default().total(), Duration::ZERO);
    }
}

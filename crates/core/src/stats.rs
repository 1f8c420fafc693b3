//! Linkage statistics (paper Table III) and retrieval degradation
//! accounting for the resilience layer.

use crate::preprocess::ProcessedTable;
use kglink_search::MetricsSnapshot;
use serde::{Deserialize, Serialize};

/// The linkage class of a column, per the paper's Table III taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkageClass {
    /// All cells numeric/date — never linked to the KG.
    Numeric,
    /// Non-numeric, but zero KG linkage: no feature vector possible
    /// ("Non-numeric columns w/o fv").
    NoKgInfo,
    /// Non-numeric with some linkage but no candidate types survived
    /// ("Non-numeric columns w/o ct").
    NoCandidateTypes,
    /// Non-numeric with candidate types.
    Full,
}

/// Aggregate linkage statistics over a dataset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkStatistics {
    pub numeric_columns: usize,
    /// Non-numeric columns with no KG information at all (w/o fv).
    pub non_numeric_without_fv: usize,
    /// Non-numeric columns with no candidate type (w/o ct) — includes the
    /// w/o fv columns, matching the paper's nesting.
    pub non_numeric_without_ct: usize,
    pub total_columns: usize,
}

impl LinkStatistics {
    /// Classify one column of a processed table.
    pub fn classify(pt: &ProcessedTable, c: usize) -> LinkageClass {
        if pt.is_numeric_column(c) {
            LinkageClass::Numeric
        } else if !pt.has_linkage[c] {
            LinkageClass::NoKgInfo
        } else if pt.candidate_type_names[c].is_empty() {
            LinkageClass::NoCandidateTypes
        } else {
            LinkageClass::Full
        }
    }

    /// Accumulate statistics over processed tables.
    pub fn compute<'a, I: IntoIterator<Item = &'a ProcessedTable>>(tables: I) -> Self {
        let mut s = LinkStatistics::default();
        for pt in tables {
            for c in 0..pt.table.n_cols() {
                s.total_columns += 1;
                match Self::classify(pt, c) {
                    LinkageClass::Numeric => s.numeric_columns += 1,
                    LinkageClass::NoKgInfo => {
                        s.non_numeric_without_fv += 1;
                        s.non_numeric_without_ct += 1;
                    }
                    LinkageClass::NoCandidateTypes => s.non_numeric_without_ct += 1,
                    LinkageClass::Full => {}
                }
            }
        }
        s
    }

    /// Percentage helper.
    pub fn pct(&self, count: usize) -> f64 {
        if self.total_columns == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.total_columns as f64
        }
    }
}

impl std::fmt::Display for LinkStatistics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Numeric columns:               {:>6} ({:.1}%)",
            self.numeric_columns,
            self.pct(self.numeric_columns)
        )?;
        writeln!(
            f,
            "Non-numeric columns w/o fv:    {:>6} ({:.1}%)",
            self.non_numeric_without_fv,
            self.pct(self.non_numeric_without_fv)
        )?;
        writeln!(
            f,
            "Non-numeric columns w/o ct:    {:>6} ({:.1}%)",
            self.non_numeric_without_ct,
            self.pct(self.non_numeric_without_ct)
        )?;
        write!(
            f,
            "Total columns:                 {:>6} (100%)",
            self.total_columns
        )
    }
}

/// How much of a preprocessing pass ran in degraded (no-KG) mode, plus the
/// retrieval-layer counters when the backend exposes them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradationStats {
    /// Columns seen across all processed chunks.
    pub total_columns: usize,
    /// Columns degraded to the no-linkage path by retrieval failures.
    pub degraded_columns: usize,
    /// Cells whose retrieval was attempted but failed.
    pub failed_cells: usize,
    /// Retry attempts made by the resilient decorator (0 without one).
    pub retries: u64,
    /// Circuit-breaker trips (0 without one).
    pub breaker_trips: u64,
    /// Queries rejected outright by an open breaker (0 without one).
    pub breaker_rejections: u64,
    /// p50 simulated latency of successful retrievals, microseconds.
    pub retrieval_p50_us: u64,
    /// p99 simulated latency of successful retrievals, microseconds.
    pub retrieval_p99_us: u64,
}

impl DegradationStats {
    /// Column/cell accounting from processed tables.
    pub fn from_processed<'a, I: IntoIterator<Item = &'a ProcessedTable>>(tables: I) -> Self {
        let mut s = DegradationStats::default();
        for pt in tables {
            s.total_columns += pt.table.n_cols();
            s.degraded_columns += pt.degraded_columns();
            s.failed_cells += pt.failed_cells;
        }
        s
    }

    /// Merge in the retrieval-layer counters of a resilient backend.
    pub fn with_backend(mut self, m: &MetricsSnapshot) -> Self {
        self.retries = m.retries;
        self.breaker_trips = m.breaker_trips;
        self.breaker_rejections = m.breaker_rejections;
        self.retrieval_p50_us = m.latency_p50_us();
        self.retrieval_p99_us = m.latency_p99_us();
        self
    }

    /// Fraction of columns that degraded, in [0, 1].
    pub fn degraded_fraction(&self) -> f64 {
        if self.total_columns == 0 {
            0.0
        } else {
            self.degraded_columns as f64 / self.total_columns as f64
        }
    }
}

impl std::fmt::Display for DegradationStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Degraded columns:   {:>6} / {} ({:.1}%)",
            self.degraded_columns,
            self.total_columns,
            100.0 * self.degraded_fraction()
        )?;
        writeln!(f, "Failed cells:       {:>6}", self.failed_cells)?;
        writeln!(
            f,
            "Retries:            {:>6}   breaker trips: {}   breaker rejections: {}",
            self.retries, self.breaker_trips, self.breaker_rejections
        )?;
        write!(
            f,
            "Retrieval latency:  p50 {}us, p99 {}us (simulated)",
            self.retrieval_p50_us, self.retrieval_p99_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KgLinkConfig;
    use crate::preprocess::Preprocessor;
    use kglink_datagen::{viznet_like, VizNetConfig};
    use kglink_kg::{SyntheticWorld, WorldConfig};
    use kglink_store::DiskWorld;

    #[test]
    fn viznet_like_statistics_have_the_papers_shape() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(31));
        let bench = viznet_like(&world, &VizNetConfig::tiny(31));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let pre = Preprocessor::new(&disk.graph, &disk.backend, KgLinkConfig::fast_test());
        let processed: Vec<_> = bench
            .dataset
            .tables
            .iter()
            .flat_map(|t| pre.process(t))
            .collect();
        let stats = LinkStatistics::compute(&processed);
        assert!(stats.total_columns > 0);
        assert!(stats.numeric_columns > 0, "VizNet-like has numeric columns");
        assert!(
            stats.non_numeric_without_fv > 0,
            "address/code columns lack KG info"
        );
        assert!(
            stats.non_numeric_without_ct >= stats.non_numeric_without_fv,
            "w/o ct nests w/o fv"
        );
        assert!(stats.numeric_columns + stats.non_numeric_without_ct <= stats.total_columns);
    }

    #[test]
    fn display_renders_percentages() {
        let s = LinkStatistics {
            numeric_columns: 1,
            non_numeric_without_fv: 2,
            non_numeric_without_ct: 3,
            total_columns: 10,
        };
        let text = s.to_string();
        assert!(text.contains("10.0%"));
        assert!(text.contains("30.0%"));
        assert_eq!(s.pct(5), 50.0);
    }

    #[test]
    fn empty_stats() {
        let s = LinkStatistics::default();
        assert_eq!(s.pct(0), 0.0);
    }

    #[test]
    fn degradation_stats_track_outages() {
        use kglink_datagen::{semtab_like, SemTabConfig};
        use kglink_search::{FaultConfig, FaultyBackend, ResilienceConfig, ResilientBackend};

        let world = SyntheticWorld::generate(&WorldConfig::tiny(32));
        let bench = semtab_like(&world, &SemTabConfig::tiny(32));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();

        // Healthy backend: nothing degrades.
        let pre = Preprocessor::new(&disk.graph, &disk.backend, KgLinkConfig::fast_test());
        let healthy: Vec<_> = bench
            .dataset
            .tables
            .iter()
            .take(4)
            .flat_map(|t| pre.process(t))
            .collect();
        let s = DegradationStats::from_processed(&healthy);
        assert!(s.total_columns > 0);
        assert_eq!(s.degraded_columns, 0);
        assert_eq!(s.failed_cells, 0);
        assert_eq!(s.degraded_fraction(), 0.0);

        // Full outage behind the resilient decorator: everything linkable
        // degrades and the decorator's counters surface.
        let faulty = FaultyBackend::new(&disk.backend, FaultConfig::with_fault_rate(5, 1.0));
        let resilient = ResilientBackend::new(&faulty, ResilienceConfig::default());
        let pre = Preprocessor::new(&disk.graph, &resilient, KgLinkConfig::fast_test());
        let dead: Vec<_> = bench
            .dataset
            .tables
            .iter()
            .take(4)
            .flat_map(|t| pre.process(t))
            .collect();
        let s = DegradationStats::from_processed(&dead).with_backend(&resilient.metrics());
        assert!(s.degraded_columns > 0);
        assert!(s.failed_cells > 0);
        assert!(
            s.retries > 0,
            "transient faults are retried before giving up"
        );
        assert!(s.degraded_fraction() > 0.0);
        let text = s.to_string();
        assert!(text.contains("Degraded columns"));
        assert!(text.contains("breaker trips"));
    }
}

//! Throughput metrics — the paper's y-axis.
//!
//! Every experiment in §V reports *cumulative throughput*: total output
//! tuples produced by time *t*. [`ThroughputSeries`] collects samples on a
//! fixed virtual-time grid so different methods' curves align exactly, and
//! offers the summary statistics the figures and tables need.

use amri_stream::{VirtualDuration, VirtualTime};
use serde::{Deserialize, Serialize};

/// One sample point of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sample {
    /// Virtual instant of the sample.
    pub t: VirtualTime,
    /// Cumulative output tuples produced by `t`.
    pub outputs: u64,
    /// Accounted memory bytes at `t`.
    pub memory: u64,
    /// Queued routing jobs at `t` (backlog depth).
    pub backlog: u64,
}

/// A cumulative-throughput time series sampled on a fixed grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputSeries {
    interval: VirtualDuration,
    samples: Vec<Sample>,
}

impl ThroughputSeries {
    /// New series sampling every `interval`.
    ///
    /// # Panics
    /// Panics on a zero interval.
    pub fn new(interval: VirtualDuration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        ThroughputSeries {
            interval,
            samples: Vec::new(),
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> VirtualDuration {
        self.interval
    }

    /// The recorded samples, time-ascending.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The next instant at which a sample is due (grid-aligned).
    pub fn next_due(&self) -> VirtualTime {
        VirtualTime(self.samples.len() as u64 * self.interval.0)
    }

    /// Record samples for every grid point up to and including `now`
    /// (a slow simulation step may cross several grid points; all get the
    /// same cumulative values, keeping curves step-accurate).
    pub fn record_until(&mut self, now: VirtualTime, outputs: u64, memory: u64, backlog: u64) {
        while self.next_due() <= now {
            self.samples.push(Sample {
                t: self.next_due(),
                outputs,
                memory,
                backlog,
            });
        }
    }

    /// Cumulative outputs at the final sample (0 if empty).
    pub fn final_outputs(&self) -> u64 {
        self.samples.last().map(|s| s.outputs).unwrap_or(0)
    }

    /// Cumulative outputs at the latest sample not after `t`.
    pub fn outputs_at(&self, t: VirtualTime) -> u64 {
        self.samples
            .iter()
            .take_while(|s| s.t <= t)
            .last()
            .map(|s| s.outputs)
            .unwrap_or(0)
    }

    /// Peak memory across the run.
    pub fn peak_memory(&self) -> u64 {
        self.samples.iter().map(|s| s.memory).max().unwrap_or(0)
    }

    /// Peak backlog depth across the run.
    pub fn peak_backlog(&self) -> u64 {
        self.samples.iter().map(|s| s.backlog).max().unwrap_or(0)
    }

    /// Serialize the recorded samples into a snapshot section (the
    /// interval is construction-time configuration, saved only to be
    /// cross-checked on restore).
    pub fn save(&self, w: &mut amri_core::snapshot_io::SectionWriter) {
        w.put_str("SERIES");
        w.put_duration(self.interval);
        w.put_usize(self.samples.len());
        for s in &self.samples {
            w.put_time(s.t);
            w.put_u64(s.outputs);
            w.put_u64(s.memory);
            w.put_u64(s.backlog);
        }
    }

    /// Overwrite the samples from a [`save`](Self::save)d section.
    ///
    /// # Errors
    /// [`SnapshotError`](amri_core::snapshot_io::SnapshotError) on decode
    /// failure or an interval that disagrees with this run's grid.
    pub fn restore_from(
        &mut self,
        r: &mut amri_core::snapshot_io::SectionReader<'_>,
    ) -> Result<(), amri_core::snapshot_io::SnapshotError> {
        amri_core::snapshot_io::expect_tag(r, "SERIES")?;
        let interval = r.get_duration()?;
        if interval != self.interval {
            return Err(amri_core::snapshot_io::SnapshotError::Malformed(format!(
                "series sampled every {interval:?}, this run samples every {:?}",
                self.interval
            )));
        }
        let n = r.get_count(4 * 8, "series sample count")?;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            samples.push(Sample {
                t: r.get_time()?,
                outputs: r.get_u64()?,
                memory: r.get_u64()?,
                backlog: r.get_u64()?,
            });
        }
        self.samples = samples;
        Ok(())
    }
}

/// One index-retuning event, for the migration timeline reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetuneRecord {
    /// When the migration happened.
    pub t: VirtualTime,
    /// Which state migrated.
    pub state: u16,
    /// Human-readable new configuration.
    pub config: String,
    /// Entries relocated.
    pub moved: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> VirtualTime {
        VirtualTime::from_secs(s)
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_interval() {
        let _ = ThroughputSeries::new(VirtualDuration::ZERO);
    }

    #[test]
    fn records_on_the_grid() {
        let mut s = ThroughputSeries::new(VirtualDuration::from_secs(1));
        s.record_until(secs(0), 0, 10, 0);
        s.record_until(secs(2), 50, 20, 3);
        assert_eq!(s.samples().len(), 3); // t = 0, 1, 2
        assert_eq!(s.samples()[1].outputs, 50, "skipped grid point backfilled");
        assert_eq!(s.samples()[2].t, secs(2));
        assert_eq!(s.final_outputs(), 50);
    }

    #[test]
    fn crossing_many_grid_points_backfills_all() {
        let mut s = ThroughputSeries::new(VirtualDuration::from_secs(1));
        s.record_until(secs(5), 100, 1, 2);
        assert_eq!(s.samples().len(), 6);
        assert!(s.samples().iter().all(|x| x.outputs == 100));
    }

    #[test]
    fn outputs_at_interpolates_stepwise() {
        let mut s = ThroughputSeries::new(VirtualDuration::from_secs(1));
        s.record_until(secs(0), 0, 0, 0);
        s.record_until(secs(1), 10, 0, 0);
        s.record_until(secs(2), 30, 0, 0);
        assert_eq!(s.outputs_at(secs(0)), 0);
        assert_eq!(s.outputs_at(secs(1)), 10);
        assert_eq!(s.outputs_at(secs(5)), 30, "clamps to last sample");
    }

    #[test]
    fn peaks() {
        let mut s = ThroughputSeries::new(VirtualDuration::from_secs(1));
        s.record_until(secs(0), 0, 5, 1);
        s.record_until(secs(1), 1, 50, 9);
        s.record_until(secs(2), 2, 20, 4);
        assert_eq!(s.peak_memory(), 50);
        assert_eq!(s.peak_backlog(), 9);
        assert_eq!(s.interval(), VirtualDuration::from_secs(1));
    }

    /// An image claiming more samples than its bytes hold is `Malformed`,
    /// not an allocation abort.
    #[test]
    fn restore_refuses_a_sample_count_the_section_cannot_hold() {
        use amri_core::snapshot_io::{SectionReader, SectionWriter, SnapshotError};
        let mut w = SectionWriter::new();
        w.put_str("SERIES");
        w.put_duration(VirtualDuration::from_secs(1));
        w.put_usize(1 << 40);
        let image = w.into_bytes();
        let mut s = ThroughputSeries::new(VirtualDuration::from_secs(1));
        match s.restore_from(&mut SectionReader::new(&image)) {
            Err(SnapshotError::Malformed(why)) => assert!(why.contains("sample count"), "{why}"),
            other => panic!("expected Malformed(sample count), got {other:?}"),
        }
    }

    #[test]
    fn empty_series_is_sane() {
        let s = ThroughputSeries::new(VirtualDuration::from_secs(1));
        assert_eq!(s.final_outputs(), 0);
        assert_eq!(s.peak_memory(), 0);
        assert_eq!(s.outputs_at(secs(100)), 0);
    }
}

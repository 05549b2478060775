//! Figure-shaped reporting: aligned time-series tables, run summaries and
//! CSV emission.

use amri_engine::{MaintenanceStats, RunOutcome, RunResult};
use amri_stream::VirtualTime;
use std::fmt::Write as _;
use std::path::Path;

/// Render a Figure-6-style table: one row per sampled minute fraction, one
/// column per run's cumulative throughput ("-" after a run died).
pub fn render_series_table(runs: &[RunResult], points: usize) -> String {
    let mut out = String::new();
    let horizon = runs
        .iter()
        .map(|r| r.final_time)
        .max()
        .unwrap_or(VirtualTime::ZERO);
    let mut header = format!("{:>9}", "t(min)");
    for r in runs {
        write!(header, " {:>18}", r.label).unwrap();
    }
    out.push_str(&header);
    out.push('\n');
    let points = points.max(2);
    for p in 0..points {
        let t = VirtualTime(horizon.0 * p as u64 / (points as u64 - 1));
        write!(out, "{:>9.2}", t.as_mins_f64()).unwrap();
        for r in runs {
            let dead = r.death_time().is_some_and(|d| d < t);
            if dead {
                write!(out, " {:>18}", "-").unwrap();
            } else {
                write!(out, " {:>18}", r.series.outputs_at(t)).unwrap();
            }
        }
        out.push('\n');
    }
    out
}

/// Render a per-run summary block: outcome, outputs, peaks, retunes, and
/// the degradation/fault counters (zeros for undisturbed runs).
pub fn render_summary(runs: &[RunResult]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:>18} {:>12} {:>12} {:>12} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "run",
        "outputs",
        "outcome",
        "peak-mem(B)",
        "backlog",
        "retunes",
        "shed",
        "evicted",
        "faults"
    )
    .unwrap();
    for r in runs {
        let outcome = match r.outcome {
            RunOutcome::Completed => "done".to_string(),
            RunOutcome::OutOfMemory { at } => format!("oom@{:.1}m", at.as_mins_f64()),
            RunOutcome::Degraded { first_at, .. } => {
                format!("deg@{:.1}m", first_at.as_mins_f64())
            }
        };
        writeln!(
            out,
            "{:>18} {:>12} {:>12} {:>12} {:>9} {:>8} {:>8} {:>8} {:>8}",
            r.label,
            r.outputs,
            outcome,
            r.series.peak_memory(),
            r.series.peak_backlog(),
            r.retunes.len(),
            r.degradation.shed_jobs,
            r.degradation.evicted_tuples,
            r.faults.total()
        )
        .unwrap();
    }
    out
}

/// Render the per-run maintenance-cost block: deterministic virtual
/// nanoseconds spent on ingest (insert + expire) and on index migration,
/// plus how many retunes fired while a probe backlog was pending
/// (`stalls` — migrations that delayed visible work). `ingest%` relates
/// ingest time to the run's total virtual time (ticks model microseconds,
/// so ns/1000 per tick). The trailing spill columns come from each run's
/// [`SpillStats`](amri_core::SpillStats) rollup: demand block reads, the
/// block-cache hit fraction, and readahead-loaded blocks (all zeros for
/// tierless runs). `maint` aligns with `runs`; missing
/// entries render as zeros, so lineups that never collected stats still
/// tabulate.
pub fn render_maintenance_table(runs: &[RunResult], maint: &[MaintenanceStats]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:>18} {:>14} {:>14} {:>8} {:>8} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "run",
        "ingest-ns",
        "migrate-ns",
        "stalls",
        "retunes",
        "pred-ns",
        "realized-ns",
        "regret-ns",
        "ingest%",
        "spill-rd",
        "cache-hit%",
        "prefetched"
    )
    .unwrap();
    for (i, r) in runs.iter().enumerate() {
        let m = maint.get(i).copied().unwrap_or_default();
        let total = r.final_time.0.max(1);
        let pct = 100.0 * (m.ingest_ns as f64 / 1000.0) / total as f64;
        writeln!(
            out,
            "{:>18} {:>14} {:>14} {:>8} {:>8} {:>12} {:>12} {:>12} {:>9.1}% {:>10} {:>9.1}% {:>10}",
            r.label,
            m.ingest_ns,
            m.migrate_ns,
            m.migrate_stalls,
            r.retunes.len(),
            m.retune_benefit_predicted_ns,
            m.retune_benefit_realized_ns,
            m.regret_vs_static_ns,
            pct,
            r.spill.blocks_read,
            100.0 * r.spill.cache_hit_frac(),
            r.spill.prefetched_blocks
        )
        .unwrap();
    }
    out
}

/// Render the runs as an ASCII chart (time on x, cumulative outputs on y,
/// one glyph per run; the closest thing to the paper's figures a terminal
/// can show). Dead runs stop plotting at their death time.
pub fn render_ascii_chart(runs: &[RunResult], width: usize, height: usize) -> String {
    let width = width.max(20);
    let height = height.max(5);
    let horizon = runs
        .iter()
        .map(|r| r.final_time)
        .max()
        .unwrap_or(VirtualTime::ZERO);
    let y_max = runs.iter().map(|r| r.outputs).max().unwrap_or(1).max(1);
    let glyphs = ['*', 'o', '+', 'x', '#', '@', '%', '&', '='];
    let mut grid = vec![vec![' '; width]; height];
    for (ri, r) in runs.iter().enumerate() {
        let glyph = glyphs[ri % glyphs.len()];
        #[allow(clippy::needless_range_loop)] // col drives both t and grid
        for col in 0..width {
            let t = VirtualTime(horizon.0 * col as u64 / (width as u64 - 1).max(1));
            if r.death_time().is_some_and(|d| d < t) {
                break;
            }
            let v = r.series.outputs_at(t);
            let row = ((v as f64 / y_max as f64) * (height as f64 - 1.0)).round() as usize;
            let row = height - 1 - row.min(height - 1);
            if grid[row][col] == ' ' {
                grid[row][col] = glyph;
            }
        }
    }
    let mut out = String::new();
    writeln!(out, "cumulative outputs (y max {y_max})").unwrap();
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat_n('-', width));
    out.push('\n');
    writeln!(out, " 0 .. {:.1} virtual minutes", horizon.as_mins_f64()).unwrap();
    for (ri, r) in runs.iter().enumerate() {
        writeln!(out, "  {}  {}", glyphs[ri % glyphs.len()], r.label).unwrap();
    }
    out
}

/// Write the aligned series of several runs as CSV
/// (`t_secs,label1,label2,...`; empty cell after death).
pub fn write_csv(runs: &[RunResult], path: &Path) -> std::io::Result<()> {
    let mut body = String::from("t_secs");
    for r in runs {
        write!(body, ",{}", r.label).unwrap();
    }
    body.push('\n');
    let max_len = runs
        .iter()
        .map(|r| r.series.samples().len())
        .max()
        .unwrap_or(0);
    for i in 0..max_len {
        let t = runs
            .iter()
            .find_map(|r| r.series.samples().get(i).map(|s| s.t))
            .unwrap_or(VirtualTime::ZERO);
        write!(body, "{:.0}", t.as_secs_f64()).unwrap();
        for r in runs {
            match r.series.samples().get(i) {
                Some(s) => write!(body, ",{}", s.outputs).unwrap(),
                None => body.push(','),
            }
        }
        body.push('\n');
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, body)
}

/// Per-run checkpoint bookkeeping for [`write_summary_csv`]: how many
/// snapshots the run wrote and, when it was resumed from one, the step it
/// restarted at. This lives bench-side on purpose — checkpointing is a
/// pure observer and must not appear in [`RunResult`], whose Debug render
/// is the byte-identity oracle the recovery tests diff.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointNote {
    /// Snapshots written during the run (0 when checkpointing was off).
    pub checkpoints_taken: u64,
    /// Step the run was resumed at, `None` for uninterrupted runs.
    pub resumed_from_step: Option<u64>,
    /// Corrupt snapshot files recovery skipped on the way to the restored
    /// one, with reasons (from
    /// [`RestoreReport::notes`](amri_engine::RestoreReport::notes));
    /// empty for clean restores and uninterrupted runs.
    pub restore_notes: String,
}

/// Write one summary row per run as CSV, including the degradation and
/// fault-injection counters — the experiment-facing face of
/// [`RunOutcome::Degraded`] (empty cells where a counter does not apply).
/// `threads` records the worker-thread count the runs executed with, so a
/// summary produced under `--threads N` is distinguishable from (and
/// diffable against) the sequential one. `notes` aligns with `runs` and
/// fills the `checkpoints_taken`/`resumed_from_step` columns; pass `&[]`
/// for uncheckpointed lineups (zero / empty cells). `maint` aligns with
/// `runs` and fills the maintenance-cost columns (`ingest_ns`,
/// `migrate_ns`, `migrate_stalls`) plus the tuner-ledger trio
/// (`retune_benefit_predicted_ns`, `retune_benefit_realized_ns`,
/// `regret_vs_static_ns`) that makes thrash observable: predicted vs
/// realized retune benefit and cumulative regret against the static seed
/// IC. The `_ns` columns carry deterministic *virtual* nanoseconds, not
/// wall-clock ones, so repeated runs diff byte-for-byte (realized benefit
/// is signed — a mispredicted retune loses time). Pass `&[]` when stats
/// were not collected (zeros).
///
/// The trailing spill columns come from each run's own
/// [`SpillStats`](amri_core::SpillStats) rollup: `spilled_buckets`
/// (blocks written to the cold store), `promoted_buckets` (blocks
/// promoted back to RAM) and `spill_read_ns` (virtual nanoseconds charged
/// for block reads), then the block-cache counters — `cache_hits`,
/// `cache_misses`, `coalesced_reads`, `prefetched_blocks`,
/// `cache_evictions` — all zeros when no spill tier (or no cache) was
/// configured. The final `notes` column carries each run's restore notes
/// (corrupt checkpoints skipped during recovery); commas are folded to
/// `;` to keep the CSV one-cell-per-column.
pub fn write_summary_csv(
    runs: &[RunResult],
    path: &Path,
    threads: usize,
    notes: &[CheckpointNote],
    maint: &[MaintenanceStats],
) -> std::io::Result<()> {
    let mut body = String::from(
        "label,outcome,outputs,peak_mem_bytes,peak_backlog,retunes,\
         shed_jobs,evicted_tuples,first_degraded_secs,death_secs,\
         faults_dropped,faults_duplicated,faults_delayed,faults_reordered,\
         threads,checkpoints_taken,resumed_from_step,\
         ingest_ns,migrate_ns,migrate_stalls,\
         retune_benefit_predicted_ns,retune_benefit_realized_ns,regret_vs_static_ns,\
         spilled_buckets,promoted_buckets,spill_read_ns,\
         cache_hits,cache_misses,coalesced_reads,prefetched_blocks,\
         cache_evictions,notes\n",
    );
    for (i, r) in runs.iter().enumerate() {
        let note = notes.get(i).cloned().unwrap_or_default();
        let m = maint.get(i).copied().unwrap_or_default();
        let outcome = match r.outcome {
            RunOutcome::Completed => "completed",
            RunOutcome::OutOfMemory { .. } => "oom",
            RunOutcome::Degraded { .. } => "degraded",
        };
        let first_degraded = r
            .degradation
            .first_at
            .map(|t| format!("{:.3}", t.as_secs_f64()))
            .unwrap_or_default();
        let death = r
            .death_time()
            .map(|t| format!("{:.3}", t.as_secs_f64()))
            .unwrap_or_default();
        let resumed = note
            .resumed_from_step
            .map(|s| s.to_string())
            .unwrap_or_default();
        writeln!(
            body,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.label,
            outcome,
            r.outputs,
            r.series.peak_memory(),
            r.series.peak_backlog(),
            r.retunes.len(),
            r.degradation.shed_jobs,
            r.degradation.evicted_tuples,
            first_degraded,
            death,
            r.faults.dropped,
            r.faults.duplicated,
            r.faults.delayed,
            r.faults.reordered,
            threads,
            note.checkpoints_taken,
            resumed,
            m.ingest_ns,
            m.migrate_ns,
            m.migrate_stalls,
            m.retune_benefit_predicted_ns,
            m.retune_benefit_realized_ns,
            m.regret_vs_static_ns,
            r.spill.blocks_written,
            r.spill.promoted_blocks,
            r.spill.read_ns,
            r.spill.cache_hits,
            r.spill.cache_misses,
            r.spill.coalesced_reads,
            r.spill.prefetched_blocks,
            r.spill.cache_evictions,
            note.restore_notes.replace(',', ";")
        )
        .unwrap();
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_engine::ThroughputSeries;
    use amri_stream::VirtualDuration;

    fn fake_run(label: &str, per_sec: u64, secs: u64, die_at: Option<u64>) -> RunResult {
        let mut series = ThroughputSeries::new(VirtualDuration::from_secs(1));
        let end = die_at.unwrap_or(secs);
        for s in 0..=end {
            series.record_until(VirtualTime::from_secs(s), s * per_sec, 1000 + s, s / 2);
        }
        RunResult {
            label: label.to_string(),
            series,
            outcome: match die_at {
                Some(d) => RunOutcome::OutOfMemory {
                    at: VirtualTime::from_secs(d),
                },
                None => RunOutcome::Completed,
            },
            outputs: end * per_sec,
            retunes: vec![],
            pattern_stats: vec![],
            requests: vec![],
            final_time: VirtualTime::from_secs(end),
            mean_job_latency_ticks: 0.0,
            degradation: Default::default(),
            faults: Default::default(),
            spill: Default::default(),
            output_digest: 0,
        }
    }

    #[test]
    fn series_table_marks_dead_runs() {
        let runs = vec![
            fake_run("amri", 100, 10, None),
            fake_run("hash", 50, 10, Some(5)),
        ];
        let table = render_series_table(&runs, 6);
        assert!(table.contains("amri"));
        assert!(table.contains("hash"));
        // Final row: hash is dead.
        let last = table.lines().last().unwrap();
        assert!(last.contains('-'), "{last}");
        assert!(last.contains("1000"), "{last}");
    }

    #[test]
    fn summary_includes_oom_time() {
        let runs = vec![fake_run("bitmap", 10, 20, Some(12))];
        let s = render_summary(&runs);
        assert!(s.contains("oom@0.2m"), "{s}");
        assert!(s.contains("bitmap"));
    }

    #[test]
    fn ascii_chart_plots_all_runs_and_legend() {
        let runs = vec![
            fake_run("amri", 100, 10, None),
            fake_run("hash", 40, 10, Some(6)),
        ];
        let chart = render_ascii_chart(&runs, 40, 10);
        assert!(chart.contains('*'), "{chart}");
        assert!(chart.contains('o'), "{chart}");
        assert!(chart.contains("amri"));
        assert!(chart.contains("hash"));
        assert!(chart.contains("y max 1000"));
        // The dead run's glyph must not reach the last column.
        let rows: Vec<&str> = chart.lines().filter(|l| l.starts_with('|')).collect();
        let last_col_has_o = rows.iter().any(|r| r.ends_with('o'));
        assert!(!last_col_has_o, "dead run plotted past its death:\n{chart}");
    }

    #[test]
    fn ascii_chart_handles_degenerate_sizes() {
        let runs = vec![fake_run("x", 1, 2, None)];
        let chart = render_ascii_chart(&runs, 1, 1); // clamped to minimums
        assert!(chart.contains('x'));
    }

    #[test]
    fn summary_reports_degraded_runs_and_csv_counters() {
        let mut degraded = fake_run("amri-gov", 10, 20, None);
        degraded.outcome = RunOutcome::Degraded {
            first_at: VirtualTime::from_secs(12),
            shed_jobs: 7,
            evicted_tuples: 40,
            lost_tuples: 0,
        };
        degraded.degradation.first_at = Some(VirtualTime::from_secs(12));
        degraded.degradation.shed_jobs = 7;
        degraded.degradation.evicted_tuples = 40;
        degraded.faults.dropped = 3;
        let runs = vec![degraded, fake_run("plain", 10, 20, None)];
        let s = render_summary(&runs);
        assert!(s.contains("deg@0.2m"), "{s}");
        assert!(s.contains("shed"), "{s}");

        let dir = std::env::temp_dir().join("amri_bench_summary_test");
        let path = dir.join("summary.csv");
        let notes = [CheckpointNote {
            checkpoints_taken: 5,
            resumed_from_step: Some(120),
            restore_notes: "skipped checkpoint-000002.snap (checksum mismatch, torn)".into(),
        }];
        let maint = [MaintenanceStats {
            ingest_ns: 900,
            migrate_ns: 70,
            migrate_stalls: 2,
            retune_benefit_predicted_ns: 500,
            retune_benefit_realized_ns: -120,
            regret_vs_static_ns: 64,
        }];
        write_summary_csv(&runs, &path, 4, &notes, &maint).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines[0].starts_with("label,outcome,outputs"));
        assert!(lines[0].contains("shed_jobs"));
        assert!(
            lines[0].ends_with(
                ",threads,checkpoints_taken,resumed_from_step,\
                 ingest_ns,migrate_ns,migrate_stalls,\
                 retune_benefit_predicted_ns,retune_benefit_realized_ns,\
                 regret_vs_static_ns,\
                 spilled_buckets,promoted_buckets,spill_read_ns,\
                 cache_hits,cache_misses,coalesced_reads,prefetched_blocks,\
                 cache_evictions,notes"
            ),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("degraded"), "{}", lines[1]);
        assert!(lines[1].contains(",7,40,12.000,"), "{}", lines[1]);
        // Restore notes land in the final cell with commas folded to ';'
        // so the row keeps one value per column.
        assert!(
            lines[1].ends_with(
                "3,0,0,0,4,5,120,900,70,2,500,-120,64,0,0,0,0,0,0,0,0,\
                 skipped checkpoint-000002.snap (checksum mismatch; torn)"
            ),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("completed"), "{}", lines[2]);
        // Runs without a note get zero / empty checkpoint cells, runs
        // without maintenance stats get zero maintenance columns, and
        // runs without a spill tier get zero spill columns.
        assert!(
            lines[2].ends_with(",4,0,,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"),
            "{}",
            lines[2]
        );
        // A degraded run has no death time.
        assert_eq!(runs[0].death_time(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maintenance_table_renders_ticks_and_tolerates_missing_stats() {
        let runs = vec![
            fake_run("amri", 100, 10, None),
            fake_run("hash", 50, 10, None),
        ];
        let maint = [MaintenanceStats {
            ingest_ns: 1234,
            migrate_ns: 56,
            migrate_stalls: 3,
            retune_benefit_predicted_ns: 77,
            retune_benefit_realized_ns: -9,
            regret_vs_static_ns: 5,
        }];
        let table = render_maintenance_table(&runs, &maint);
        assert!(table.contains("ingest-ns"), "{table}");
        assert!(table.contains("regret-ns"), "{table}");
        assert!(table.contains("1234"), "{table}");
        assert!(table.contains("56"), "{table}");
        assert!(table.contains("77"), "{table}");
        assert!(table.contains("-9"), "{table}");
        // The second run has no stats entry: zeros, not a panic.
        let last = table.lines().last().unwrap();
        assert!(last.contains("hash"), "{table}");
        assert!(last.contains('0'), "{table}");
    }

    #[test]
    fn csv_round_trips_shape() {
        let dir = std::env::temp_dir().join("amri_bench_test");
        let path = dir.join("fig.csv");
        let runs = vec![fake_run("a", 1, 3, None), fake_run("b", 2, 3, Some(2))];
        write_csv(&runs, &path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines[0], "t_secs,a,b");
        assert_eq!(lines.len(), 5); // header + t=0..3
        assert!(
            lines[4].ends_with(','),
            "dead run has empty cell: {}",
            lines[4]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

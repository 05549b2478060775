//! Figure-shaped reporting: aligned time-series tables, run summaries and
//! CSV emission.

use amri_engine::{RunOutcome, RunResult};
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
/// tierless runs).
pub fn render_maintenance_table(runs: &[RunResult]) -> String {
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
    for r in runs {
        let m = r.maint;
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

/// A summary CSV column: its header name, and how a run fills its cell.
type Column<'a> = (&'static str, &'a dyn Fn(&RunResult) -> String);

/// Write one summary row per run as CSV, including the degradation and
/// fault-injection counters — the experiment-facing face of
/// [`RunOutcome::Degraded`] (empty cells where a counter does not apply).
/// `threads` records the worker-thread count the runs executed with, so a
/// summary produced under `--threads N` is distinguishable from (and
/// diffable against) the sequential one.
///
/// The maintenance columns come from each run's
/// [`maint`](RunResult::maint): `ingest_ns`, `migrate_ns`,
/// `migrate_stalls`, and the tuner-ledger trio
/// (`retune_benefit_predicted_ns`, `retune_benefit_realized_ns`,
/// `regret_vs_static_ns`) that makes thrash observable: predicted vs
/// realized retune benefit and cumulative regret against the static seed
/// IC. The `_ns` columns carry deterministic *virtual* nanoseconds, not
/// wall-clock ones, so repeated runs diff byte-for-byte (realized benefit
/// is signed — a mispredicted retune loses time).
///
/// The trailing spill columns come from each run's own
/// [`SpillStats`](amri_core::SpillStats) rollup: `spilled_buckets`
/// (blocks written to the cold store), `promoted_buckets` (blocks
/// promoted back to RAM) and `spill_read_ns` (virtual nanoseconds charged
/// for block reads), then the block-cache counters — `cache_hits`,
/// `cache_misses`, `coalesced_reads`, `prefetched_blocks`,
/// `cache_evictions` — all zeros when no spill tier (or no cache) was
/// configured.
pub fn write_summary_csv(runs: &[RunResult], path: &Path, threads: usize) -> std::io::Result<()> {
    let secs = |t: Option<VirtualTime>| {
        t.map(|t| format!("{:.3}", t.as_secs_f64()))
            .unwrap_or_default()
    };
    let threads = threads.to_string();
    let columns: &[Column<'_>] = &[
        ("label", &|r| r.label.clone()),
        ("outcome", &|r| {
            let word = match r.outcome {
                RunOutcome::Completed => "completed",
                RunOutcome::OutOfMemory { .. } => "oom",
                RunOutcome::Degraded { .. } => "degraded",
            };
            word.to_string()
        }),
        ("outputs", &|r| r.outputs.to_string()),
        ("peak_mem_bytes", &|r| r.series.peak_memory().to_string()),
        ("peak_backlog", &|r| r.series.peak_backlog().to_string()),
        ("retunes", &|r| r.retunes.len().to_string()),
        ("shed_jobs", &|r| r.degradation.shed_jobs.to_string()),
        ("evicted_tuples", &|r| {
            r.degradation.evicted_tuples.to_string()
        }),
        ("first_degraded_secs", &|r| secs(r.degradation.first_at)),
        ("death_secs", &|r| secs(r.death_time())),
        ("faults_dropped", &|r| r.faults.dropped.to_string()),
        ("faults_duplicated", &|r| r.faults.duplicated.to_string()),
        ("faults_delayed", &|r| r.faults.delayed.to_string()),
        ("faults_reordered", &|r| r.faults.reordered.to_string()),
        ("threads", &|_| threads.clone()),
        ("ingest_ns", &|r| r.maint.ingest_ns.to_string()),
        ("migrate_ns", &|r| r.maint.migrate_ns.to_string()),
        ("migrate_stalls", &|r| r.maint.migrate_stalls.to_string()),
        ("retune_benefit_predicted_ns", &|r| {
            r.maint.retune_benefit_predicted_ns.to_string()
        }),
        ("retune_benefit_realized_ns", &|r| {
            r.maint.retune_benefit_realized_ns.to_string()
        }),
        ("regret_vs_static_ns", &|r| {
            r.maint.regret_vs_static_ns.to_string()
        }),
        ("spilled_buckets", &|r| r.spill.blocks_written.to_string()),
        ("promoted_buckets", &|r| r.spill.promoted_blocks.to_string()),
        ("spill_read_ns", &|r| r.spill.read_ns.to_string()),
        ("cache_hits", &|r| r.spill.cache_hits.to_string()),
        ("cache_misses", &|r| r.spill.cache_misses.to_string()),
        ("coalesced_reads", &|r| r.spill.coalesced_reads.to_string()),
        ("prefetched_blocks", &|r| {
            r.spill.prefetched_blocks.to_string()
        }),
        ("cache_evictions", &|r| r.spill.cache_evictions.to_string()),
    ];
    let header: Vec<&str> = columns.iter().map(|(name, _)| *name).collect();
    let mut body = header.join(",") + "\n";
    for r in runs {
        let row: Vec<String> = columns.iter().map(|(_, cell)| cell(r)).collect();
        writeln!(body, "{}", row.join(",")).unwrap();
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amri_engine::{MaintenanceStats, ThroughputSeries};
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
            output_set: 0,
            maint: Default::default(),
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
        degraded.maint = MaintenanceStats {
            ingest_ns: 900,
            migrate_ns: 70,
            migrate_stalls: 2,
            retune_benefit_predicted_ns: 500,
            retune_benefit_realized_ns: -120,
            regret_vs_static_ns: 64,
        };
        let runs = vec![degraded, fake_run("plain", 10, 20, None)];
        let s = render_summary(&runs);
        assert!(s.contains("deg@0.2m"), "{s}");
        assert!(s.contains("shed"), "{s}");

        let dir = std::env::temp_dir().join("amri_bench_summary_test");
        let path = dir.join("summary.csv");
        write_summary_csv(&runs, &path, 4).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines[0].starts_with("label,outcome,outputs"));
        assert!(lines[0].contains("shed_jobs"));
        assert!(
            lines[0].ends_with(
                ",threads,\
                 ingest_ns,migrate_ns,migrate_stalls,\
                 retune_benefit_predicted_ns,retune_benefit_realized_ns,\
                 regret_vs_static_ns,\
                 spilled_buckets,promoted_buckets,spill_read_ns,\
                 cache_hits,cache_misses,coalesced_reads,prefetched_blocks,\
                 cache_evictions"
            ),
            "{}",
            lines[0]
        );
        // One cell per column on every row, the empty ones included.
        let width = lines[0].split(',').count();
        assert_eq!(width, 29, "{}", lines[0]);
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), width, "{line}");
        }
        assert!(lines[1].contains("degraded"), "{}", lines[1]);
        assert!(lines[1].contains(",7,40,12.000,"), "{}", lines[1]);
        // The run's own maintenance totals fill the maintenance columns.
        assert!(
            lines[1].ends_with("3,0,0,0,4,900,70,2,500,-120,64,0,0,0,0,0,0,0,0"),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("completed"), "{}", lines[2]);
        // A run that maintained nothing and had no spill tier: zeros.
        assert!(
            lines[2].ends_with(",,0,0,0,0,4,0,0,0,0,0,0,0,0,0,0,0,0,0,0"),
            "{}",
            lines[2]
        );
        // A degraded run has no death time.
        assert_eq!(runs[0].death_time(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maintenance_table_renders_each_runs_own_ticks() {
        let mut amri = fake_run("amri", 100, 10, None);
        amri.maint = MaintenanceStats {
            ingest_ns: 1234,
            migrate_ns: 56,
            migrate_stalls: 3,
            retune_benefit_predicted_ns: 77,
            retune_benefit_realized_ns: -9,
            regret_vs_static_ns: 5,
        };
        let runs = vec![amri, fake_run("hash", 50, 10, None)];
        let table = render_maintenance_table(&runs);
        assert!(table.contains("ingest-ns"), "{table}");
        assert!(table.contains("regret-ns"), "{table}");
        let amri_row = table.lines().nth(1).unwrap();
        for cell in ["1234", "56", "77", "-9"] {
            assert!(amri_row.contains(cell), "{table}");
        }
        // The second run maintained nothing: its row reads zeros.
        let last = table.lines().last().unwrap();
        assert!(last.contains("hash"), "{table}");
        assert!(!last.contains("1234"), "{table}");
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

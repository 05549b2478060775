//! Host-level behavior: admission control and queueing against the
//! global budget, deterministic replay of the fair-share schedule,
//! weighted shares, lifecycle transitions (suspend/resume/evict), and
//! the refusal paths. The cross-crate *isolation* guarantees (hosted ==
//! solo, resumed == uninterrupted, across indexing modes and under
//! faults) live in `tests/tenant_isolation.rs` at the workspace root.

use amri_core::assess::AssessorKind;
use amri_engine::{Executor, IndexingMode, MemoryBudget, RunOutcome, Session, SessionStatus};
use amri_hh::CombineStrategy;
use amri_serve::{Admission, HostConfig, ServeError, TenantHost, TenantState};
use amri_stream::VirtualDuration;
use amri_synth::scenario::{paper_scenario, PaperScenario, Scale};
use amri_synth::DriftingWorkload;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amri-serve-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A short quick-scale scenario with a finite per-tenant budget, so
/// reservations are real.
fn scenario(seed: u64) -> PaperScenario {
    let mut sc = paper_scenario(Scale::Quick, seed);
    sc.engine.duration = VirtualDuration::from_secs(6);
    sc.engine.budget = MemoryBudget::mib(8);
    sc
}

fn executor(sc: &PaperScenario, mode: IndexingMode) -> Executor<DriftingWorkload> {
    Executor::try_new(&sc.query, sc.workload(), mode, sc.engine.clone())
        .expect("valid engine configuration")
}

fn amri_mode() -> IndexingMode {
    IndexingMode::Amri {
        assessor: AssessorKind::Cdia(CombineStrategy::HighestCount),
        initial: None,
    }
}

#[test]
fn admission_carves_queues_and_activates() {
    // Global budget fits exactly two 8-MiB reservations.
    let cfg = HostConfig {
        budget: MemoryBudget::mib(16),
        ..HostConfig::default()
    };
    let mut host = TenantHost::new(cfg);
    let sc = scenario(3);
    let a = host.admit("a", 1, executor(&sc, amri_mode())).unwrap();
    let b = host
        .admit("b", 1, executor(&sc, IndexingMode::Scan))
        .unwrap();
    let c = host
        .admit("c", 1, executor(&sc, IndexingMode::Scan))
        .unwrap();
    assert!(matches!(a, Admission::Admitted(_)));
    assert!(matches!(b, Admission::Admitted(_)));
    assert!(
        matches!(c, Admission::Queued(_)),
        "third 8 MiB cannot fit 16 MiB"
    );
    assert_eq!(host.state(c.id()).unwrap(), TenantState::Queued);
    assert_eq!(host.committed_bytes(), 2 * 8 * 1024 * 1024);

    // Driving completes the first two; the freed budget activates c,
    // which then completes too.
    host.drive();
    for id in [a.id(), b.id(), c.id()] {
        assert_eq!(host.state(id).unwrap(), TenantState::Completed);
    }
    assert_eq!(host.committed_bytes(), 0);
    let reports = host.into_reports();
    assert_eq!(reports.len(), 3);
    for r in &reports {
        let result = r.result.as_ref().expect("completed tenants carry results");
        assert_eq!(result.outcome, RunOutcome::Completed, "{}", r.label);
        assert!(r.quanta > 0, "{} never ran", r.label);
    }
}

#[test]
fn identical_call_sequences_replay_byte_for_byte() {
    let run = || {
        let cfg = HostConfig {
            budget: MemoryBudget::mib(24),
            quantum: 32,
            seed: 99,
        };
        let mut host = TenantHost::new(cfg);
        let sc = scenario(7);
        host.admit("amri", 2, executor(&sc, amri_mode())).unwrap();
        host.admit("scan", 1, executor(&sc, IndexingMode::Scan))
            .unwrap();
        host.admit(
            "hash",
            3,
            executor(
                &sc,
                IndexingMode::AdaptiveHash {
                    n_indices: 2,
                    initial: None,
                },
            ),
        )
        .unwrap();
        host.drive();
        let trace: Vec<_> = host.schedule_trace().to_vec();
        let reports = host.into_reports();
        (trace, format!("{reports:#?}"))
    };
    let (trace_a, reports_a) = run();
    let (trace_b, reports_b) = run();
    assert_eq!(trace_a, trace_b, "the schedule itself must replay");
    assert_eq!(reports_a, reports_b, "and so must every result");
    assert!(trace_a.len() > 10, "expected a real interleaving");
}

/// The two copies of a run's maintenance totals that the benchmark
/// package reads — `TenantReport::maint` and the second element of
/// `Session::finish` — are the result's own `maint`.
#[test]
fn frozen_maintenance_copies_equal_the_results_own() {
    let sc = scenario(29);
    let mut host = TenantHost::new(HostConfig::default());
    host.admit("amri", 1, executor(&sc, amri_mode())).unwrap();
    host.admit("scan", 1, executor(&sc, IndexingMode::Scan))
        .unwrap();
    host.drive();
    for report in host.into_reports() {
        let result = report.result.expect("completed tenants carry results");
        assert!(
            result.maint.ingest_ns > 0,
            "{}: {:?}",
            report.label,
            result.maint
        );
        assert_eq!(report.maint, Some(result.maint), "{}", report.label);
    }

    let mut session = Session::new(executor(&sc, amri_mode()).into_pipeline());
    while session.run_quantum(64) != SessionStatus::Finished {}
    let (result, maint) = session.finish();
    assert!(result.maint.ingest_ns > 0, "{:?}", result.maint);
    assert_eq!(maint, result.maint);
}

#[test]
fn weighted_tenant_advances_proportionally_in_virtual_time() {
    let cfg = HostConfig {
        quantum: 16,
        ..HostConfig::default()
    };
    let mut host = TenantHost::new(cfg);
    let sc = scenario(11);
    // Identical configurations; only the weights differ. The fair-share
    // invariant is in *virtual time*: while both are live, the weight-3
    // tenant's private clock runs ~3x as fast as the weight-1 tenant's
    // (quanta counts are not comparable — steps-per-virtual-second
    // varies over a run).
    let heavy = host
        .admit("heavy", 3, executor(&sc, IndexingMode::Scan))
        .unwrap();
    let light = host
        .admit("light", 1, executor(&sc, IndexingMode::Scan))
        .unwrap();
    let mut checks = 0;
    loop {
        if host.run_quantum().is_none() {
            break;
        }
        let (Some(h), Some(l)) = (
            host.virtual_now(heavy.id()).unwrap(),
            host.virtual_now(light.id()).unwrap(),
        ) else {
            break; // one of them finished; the ratio is meaningless now
        };
        // Past warm-up, the weighted clocks stay locked together.
        if l.0 > 500_000 {
            let ratio = h.0 as f64 / l.0 as f64;
            assert!(
                (2.5..=3.5).contains(&ratio),
                "weighted virtual clocks must advance ~3:1, got {ratio} ({h:?} vs {l:?})"
            );
            checks += 1;
        }
    }
    assert!(checks > 10, "the co-live phase must actually be observed");
}

#[test]
fn suspend_resume_in_same_host_is_invisible() {
    let sc = scenario(13);
    let cfg = HostConfig::default();

    // Baseline: hosted, never suspended.
    let mut host = TenantHost::new(cfg.clone());
    let id = host
        .admit("amri", 1, executor(&sc, amri_mode()))
        .unwrap()
        .id();
    host.drive();
    let baseline = format!("{:#?}", host.into_reports()[0].result);

    // Interrupted: some quanta, suspend to disk, resume, finish.
    let dir = tmpdir("same-host");
    let mut host = TenantHost::new(cfg);
    let id2 = host
        .admit("amri", 1, executor(&sc, amri_mode()))
        .unwrap()
        .id();
    assert_eq!(id, id2);
    for _ in 0..5 {
        host.run_quantum().expect("run is longer than 5 quanta");
    }
    let snap = host.suspend_to(id2, &dir).unwrap();
    assert!(snap.exists());
    assert_eq!(host.state(id2).unwrap(), TenantState::Suspended);
    assert_eq!(host.committed_bytes(), 0, "suspension releases the carve");
    assert!(host.run_quantum().is_none(), "nothing left to schedule");
    host.resume(id2, executor(&sc, amri_mode())).unwrap();
    host.drive();
    let resumed = format!("{:#?}", host.into_reports()[0].result);
    assert_eq!(baseline, resumed, "suspend/resume must be byte-invisible");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evicting_a_running_tenant_frees_budget_for_the_queue() {
    let cfg = HostConfig {
        budget: MemoryBudget::mib(8),
        ..HostConfig::default()
    };
    let mut host = TenantHost::new(cfg);
    let sc = scenario(17);
    let a = host
        .admit("a", 1, executor(&sc, IndexingMode::Scan))
        .unwrap();
    let b = host
        .admit("b", 1, executor(&sc, IndexingMode::Scan))
        .unwrap();
    assert!(matches!(b, Admission::Queued(_)));
    host.evict(a.id()).unwrap();
    assert_eq!(host.state(a.id()).unwrap(), TenantState::Evicted);
    assert_eq!(
        host.state(b.id()).unwrap(),
        TenantState::Running,
        "eviction must activate the queue"
    );
    host.drive();
    let reports = host.into_reports();
    assert!(
        reports[0].result.is_none(),
        "evicted tenants report no result"
    );
    assert!(reports[1].result.is_some());
    // Double-evict (now Evicted) and evicting a completed tenant refuse.
}

#[test]
fn refusal_paths_are_typed() {
    let sc = scenario(19);
    let mut host: TenantHost<DriftingWorkload> = TenantHost::new(HostConfig {
        budget: MemoryBudget::mib(4),
        ..HostConfig::default()
    });
    // Zero weight.
    let err = host
        .admit("z", 0, executor(&sc, IndexingMode::Scan))
        .unwrap_err();
    assert!(matches!(err, ServeError::ZeroWeight), "{err}");
    // Reservation larger than the whole global budget: rejected, never
    // queued (it could never be activated).
    let err = host
        .admit("big", 1, executor(&sc, IndexingMode::Scan))
        .unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::ReservationExceedsGlobal {
                reservation,
                global
            } if reservation == 8 * 1024 * 1024 && global == 4 * 1024 * 1024
        ),
        "{err}"
    );
    // Unknown tenant.
    let err = host.state(amri_serve::TenantId(42)).unwrap_err();
    assert!(matches!(err, ServeError::UnknownTenant(_)), "{err}");

    // Wrong state: suspending a tenant that is not Running.
    let mut host = TenantHost::new(HostConfig::default());
    let id = host
        .admit("a", 1, executor(&sc, IndexingMode::Scan))
        .unwrap()
        .id();
    host.drive();
    let dir = tmpdir("refusals");
    let err = host.suspend_to(id, &dir).unwrap_err();
    assert!(matches!(err, ServeError::WrongState { .. }), "{err}");

    // Fingerprint mismatch: resuming under a different configuration.
    let dir = tmpdir("fingerprint");
    let mut host = TenantHost::new(HostConfig::default());
    let id = host.admit("a", 1, executor(&sc, amri_mode())).unwrap().id();
    for _ in 0..3 {
        host.run_quantum().unwrap();
    }
    let snap = host.suspend_to(id, &dir).unwrap();
    let other = scenario(20); // different seed => different fingerprint
    let mut fresh = TenantHost::new(HostConfig::default());
    let err = fresh
        .admit_resumed("a", 1, executor(&other, amri_mode()), &snap)
        .unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Engine(amri_engine::EngineError::Snapshot(
                amri_stream::SnapshotError::ConfigMismatch { .. }
            ))
        ),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spill_tier_is_an_admission_alternative() {
    use amri_engine::SpillSettings;

    // Global budget: one plain 8 MiB tenant fits with 7 MiB to spare.
    let cfg = HostConfig {
        budget: MemoryBudget::mib(15),
        ..HostConfig::default()
    };
    let mut host = TenantHost::new(cfg);
    let sc = scenario(23);
    let a = host
        .admit("plain-a", 1, executor(&sc, IndexingMode::Scan))
        .unwrap();
    assert!(matches!(a, Admission::Admitted(_)));

    // A second plain 8 MiB tenant cannot fit the remaining 7 MiB.
    let b = host
        .admit("plain-b", 1, executor(&sc, IndexingMode::Scan))
        .unwrap();
    assert!(matches!(b, Admission::Queued(_)));

    // The same tenant *with a spill tier* only reserves its high-water
    // carve (0.8 · 8 MiB = 6.4 MiB ≤ 7 MiB): spill buys admission.
    let dir = tmpdir("spill-admission");
    let mut spilled_sc = scenario(23);
    spilled_sc.engine.spill = Some(SpillSettings::in_dir(&dir));
    let c = host
        .admit("spilled-c", 1, executor(&spilled_sc, IndexingMode::Scan))
        .unwrap();
    assert!(
        matches!(c, Admission::Admitted(_)),
        "the spill tier's smaller carve must fit where the full budget did not"
    );
    let expected = 8 * 1024 * 1024
        + amri_serve::BudgetLedger::effective_reservation(8 * 1024 * 1024, Some((0.8, 0)));
    assert_eq!(host.committed_bytes(), expected);

    // Everyone completes; the freed carves activate the queued tenant.
    host.drive();
    for (i, r) in host.into_reports().iter().enumerate() {
        assert_eq!(r.state, TenantState::Completed, "tenant {i}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! The serving layer's load-bearing guarantee, pinned cross-crate:
//! **co-residency is invisible**. A tenant's `RunResult` — compared as
//! its full `Debug` render, byte for byte — is identical whether the
//! run happened solo in its own process, hosted next to healthy
//! neighbors, hosted next to neighbors dying of memory exhaustion or
//! degrading under pressure faults, or suspended to disk mid-run and
//! resumed in a completely fresh host.
//!
//! Host-level mechanics (admission, queueing, scheduling, refusals) are
//! covered in `crates/serve/tests/host.rs`; this suite is only about
//! what tenants can observe of each other: nothing.

use amri_bench::lattice::fleet_lineup;
use amri_core::assess::AssessorKind;
use amri_engine::{
    DegradationPolicy, Executor, FaultPlan, IndexingMode, MemoryBudget, PressureWindow, RunOutcome,
    SheddingPolicy,
};
use amri_hh::CombineStrategy;
use amri_serve::{HostConfig, TenantHost, TenantState};
use amri_stream::{VirtualDuration, VirtualTime};
use amri_synth::scenario::{paper_scenario, PaperScenario, Scale};
use amri_synth::DriftingWorkload;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amri-isolation-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A short quick-scale scenario with a finite budget.
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

/// The four indexing modes of the paper's comparison, labelled.
fn all_modes() -> impl Iterator<Item = (&'static str, IndexingMode)> {
    fleet_lineup()
        .into_iter()
        .map(|(label, _, mode)| (label, mode))
}

/// The solo ground truth: the exact executor run alone, no host anywhere.
fn solo_render(exec: Executor<DriftingWorkload>) -> String {
    format!("{:#?}", exec.run())
}

/// A tenant's hosted render, extracted from a driven host's reports.
fn hosted_render(host: TenantHost<DriftingWorkload>, label: &str) -> String {
    let report = host
        .into_reports()
        .into_iter()
        .find(|r| r.label == label)
        .expect("tenant present");
    assert_eq!(report.state, TenantState::Completed, "{label} must finish");
    format!(
        "{:#?}",
        report.result.expect("completed tenants carry results")
    )
}

#[test]
fn neighbor_dying_of_oom_is_invisible() {
    // The victim: hash-7 under the §V starvation budget — dies of OOM.
    // The witness: AMRI under a comfortable budget, full default
    // duration, co-resident with the dying tenant the whole time.
    let witness_sc = {
        let mut sc = paper_scenario(Scale::Quick, 42);
        sc.engine.budget = MemoryBudget::mib(8);
        sc
    };
    let victim_sc = {
        let mut sc = paper_scenario(Scale::Quick, 42);
        sc.engine.budget = MemoryBudget { bytes: 300_000 };
        sc
    };
    let witness_mode = IndexingMode::Amri {
        assessor: AssessorKind::Cdia(CombineStrategy::HighestCount),
        initial: None,
    };
    let victim_mode = IndexingMode::AdaptiveHash {
        n_indices: 7,
        initial: None,
    };

    let solo_witness = solo_render(executor(&witness_sc, witness_mode.clone()));
    let solo_victim = solo_render(executor(&victim_sc, victim_mode.clone()));

    let mut host = TenantHost::new(HostConfig::default());
    host.admit("victim", 1, executor(&victim_sc, victim_mode))
        .unwrap();
    host.admit("witness", 1, executor(&witness_sc, witness_mode))
        .unwrap();
    host.drive();
    let reports = host.into_reports();
    let victim = reports[0]
        .result
        .as_ref()
        .expect("victim completes (by dying)");
    assert!(
        matches!(victim.outcome, RunOutcome::OutOfMemory { .. }),
        "the victim must actually die: {:?}",
        victim.outcome
    );
    assert_eq!(
        format!("{victim:#?}"),
        solo_victim,
        "even the dying tenant's result is exactly its solo run"
    );
    let witness = reports[1].result.as_ref().expect("witness completes");
    assert_eq!(
        format!("{witness:#?}"),
        solo_witness,
        "a neighbor's OOM death must be byte-invisible to the witness"
    );
}

#[test]
fn neighbor_degrading_under_pressure_faults_is_invisible() {
    // The victim runs governed with an injected pressure spike above the
    // governor's high-water mark; it degrades (sheds/evicts) mid-run.
    // The witness runs clean next to it.
    let witness_sc = scenario(7);
    let victim_sc = {
        let mut sc = scenario(7);
        sc.engine.degradation = Some(DegradationPolicy {
            high_water: 0.9,
            low_water: 0.7,
            max_backlog: 8,
            shedding: SheddingPolicy::DropOldest,
            seed: 7,
        });
        sc.engine.faults = Some(FaultPlan {
            seed: 7,
            drop_prob: 0.05,
            duplicate_prob: 0.05,
            reorder_prob: 0.1,
            pressure: vec![PressureWindow {
                from: VirtualTime::from_secs(2),
                until: VirtualTime::from_secs(4),
                bytes: 7_900_000, // over 0.9 * 8 MiB, under the budget
            }],
            ..FaultPlan::default()
        });
        sc
    };
    let mode = IndexingMode::Scan;

    let solo_witness = solo_render(executor(&witness_sc, mode.clone()));

    let mut host = TenantHost::new(HostConfig::default());
    host.admit("victim", 1, executor(&victim_sc, mode.clone()))
        .unwrap();
    host.admit("witness", 1, executor(&witness_sc, mode))
        .unwrap();
    host.drive();
    let reports = host.into_reports();
    let victim = reports[0].result.as_ref().expect("victim completes");
    assert!(
        victim.degradation.shed_jobs > 0 || victim.degradation.evicted_tuples > 0,
        "the victim must actually degrade: {:?}",
        victim.degradation
    );
    assert_eq!(
        format!(
            "{:#?}",
            reports[1].result.as_ref().expect("witness completes")
        ),
        solo_witness,
        "a neighbor shedding under pressure faults must be byte-invisible"
    );
}

#[test]
fn suspend_resume_in_a_fresh_host_is_invisible_across_all_modes() {
    for (label, mode) in all_modes() {
        let sc = scenario(23);
        let solo = solo_render(executor(&sc, mode.clone()));

        // Interrupted: a few quanta in one host, suspend to disk, drop
        // the host entirely, resume the snapshot in a brand-new host.
        let dir = tmpdir(label);
        let mut first = TenantHost::new(HostConfig::default());
        let id = first
            .admit(label, 1, executor(&sc, mode.clone()))
            .unwrap()
            .id();
        for _ in 0..5 {
            first.run_quantum().expect("run is longer than 5 quanta");
        }
        let snap = first.suspend_to(id, &dir).unwrap();
        drop(first);

        let mut fresh = TenantHost::new(HostConfig::default());
        fresh
            .admit_resumed(label, 1, executor(&sc, mode), &snap)
            .unwrap();
        fresh.drive();
        assert_eq!(
            hosted_render(fresh, label),
            solo,
            "{label}: a suspend/fresh-host-resume cycle must be byte-invisible"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn hosting_alone_changes_nothing() {
    // The degenerate case pinning the refactor itself: one tenant, one
    // host — the quantum-sliced session path must reproduce the
    // run-to-completion path exactly, in every mode.
    for (label, mode) in all_modes() {
        let sc = scenario(31);
        let solo = solo_render(executor(&sc, mode.clone()));
        let mut host = TenantHost::new(HostConfig::default());
        host.admit(label, 1, executor(&sc, mode)).unwrap();
        host.drive();
        assert_eq!(hosted_render(host, label), solo, "{label}");
    }
}

//! Crash-chaos experiment — deterministic kill/corrupt/panic scenarios
//! against the crash-safety layer (not a paper table).
//!
//! Three phases, each of which exits non-zero on a contract violation:
//!
//! 1. **Kill + resume** — train KGLink with periodic atomic checkpoints,
//!    kill the run after each sampled optimizer step, resume from the last
//!    checkpoint, and require the final parameters (values *and* AdamW
//!    moments) to be **bit-identical** to the uninterrupted run.
//! 2. **Divergence guards** — inject non-finite gradients at fixed steps
//!    and require: `SkipStep` contains the poison (NaN-free final state,
//!    finite validation accuracy), `Rollback` restores the last checkpoint
//!    after K consecutive bad steps, and the unguarded run provably *does*
//!    absorb the NaN (the guard is load-bearing, not decorative).
//! 3. **Serving under panics** — drive `kglink-serve` through a
//!    `PanickingBackend`; every ticket must resolve (no hangs), restarts
//!    stay within budget, metrics reconcile, and a zero-budget pool fails
//!    queued and future requests with the typed budget error.
//!
//! `--smoke` shrinks the workload (fewer kill points, smaller serve
//! batch); every assertion is kept.

use kglink_bench::{print_markdown, ExpEnv, Which};
use kglink_core::pipeline::KgLink;
use kglink_core::{FitOptions, GuardPolicy, TrainReport};
use kglink_nn::checkpoint::save_train_state;
use kglink_nn::layers::param::HasParams;
use kglink_search::PanickingBackend;
use kglink_serve::{
    AdmissionPolicy, ServiceConfig, ServiceError, SharedBackend,
};
use kglink_table::{Split, Table};
use std::path::PathBuf;
use std::sync::Arc;

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// Full mutable training state (values + AdamW moments) as bytes, for
/// bit-identity comparisons.
fn state_bytes(model: &mut KgLink) -> Vec<u8> {
    save_train_state(&mut model.model).to_vec()
}

/// True iff no parameter value or AdamW moment is NaN.
fn state_is_nan_free(model: &mut KgLink) -> bool {
    let mut clean = true;
    model.model.visit_params(&mut |p| {
        for &v in p.value.data().iter().chain(p.m.data()).chain(p.v.data()) {
            clean &= !v.is_nan();
        }
    });
    clean
}

fn ckpt_path(tag: &str) -> PathBuf {
    let dir = PathBuf::from("target/exp_crash");
    std::fs::create_dir_all(&dir).expect("create target/exp_crash");
    dir.join(format!("{tag}.kgck"))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let env = ExpEnv::load();
    let which = Which::SemTab;
    let dataset = &env.bench(which).dataset;
    let mut config = env.smoke_config(which, smoke);
    // Early stopping makes the step count depend on the validation curve;
    // pin the epoch budget so every scenario replays the same schedule,
    // and shrink batches so checkpoints land between several steps/epoch.
    config.patience = 0;
    config.batch_size = 8;
    let resources = env.resources();
    let mut rows: Vec<Vec<String>> = Vec::new();

    // -----------------------------------------------------------------
    // Phase 1: kill + resume is bit-identical
    // -----------------------------------------------------------------
    eprintln!("[crash] phase 1: baseline uninterrupted run…");
    let (mut baseline, base_report) =
        KgLink::fit_with(&resources, dataset, config.clone(), &FitOptions::new())
            .unwrap_or_else(|e| fail(&format!("baseline fit failed: {e}")));
    let baseline_state = state_bytes(&mut baseline);
    let n_train = dataset.tables_in(Split::Train).count();
    let steps_per_epoch = n_train.div_ceil(config.batch_size.max(1)) as u64;
    let total_steps = steps_per_epoch * base_report.epoch_loss.len() as u64;
    let every = 2u64;
    let kill_steps: Vec<u64> = if smoke {
        vec![2.min(total_steps - 1), total_steps - 1]
    } else {
        // Sample both sides of epoch boundaries plus the final step. A kill
        // before the first checkpoint boundary has nothing to resume from.
        let mut v = vec![
            every,
            steps_per_epoch,
            steps_per_epoch + 1,
            total_steps / 2,
            total_steps - 1,
        ];
        v.retain(|&s| s >= every && s < total_steps);
        v.sort_unstable();
        v.dedup();
        v
    };
    eprintln!(
        "[crash] {total_steps} total steps ({steps_per_epoch}/epoch); killing at {kill_steps:?}"
    );
    for &kill in &kill_steps {
        let path = ckpt_path(&format!("resume-{kill}"));
        let halted = FitOptions::new()
            .checkpoint_every(&path, every)
            .halt_after_step(kill);
        let (_, hrep) = KgLink::fit_with(&resources, dataset, config.clone(), &halted)
            .unwrap_or_else(|e| fail(&format!("halted fit failed: {e}")));
        if !hrep.halted {
            fail(&format!("kill at step {kill} did not halt the run"));
        }
        let resume = FitOptions::new()
            .checkpoint_every(&path, every)
            .resume_from(&path);
        let (mut resumed, rrep) = KgLink::fit_with(&resources, dataset, config.clone(), &resume)
            .unwrap_or_else(|e| fail(&format!("resume from step {kill} failed: {e}")));
        let from = rrep
            .resumed_from_step
            .unwrap_or_else(|| fail("resume did not report its starting step"));
        if from != kill - (kill % every) {
            fail(&format!(
                "kill {kill}: resumed from step {from}, expected the last checkpoint boundary"
            ));
        }
        if state_bytes(&mut resumed) != baseline_state {
            fail(&format!(
                "kill at step {kill} + resume diverged from the uninterrupted run"
            ));
        }
        if rrep.val_accuracy != base_report.val_accuracy {
            fail(&format!("kill {kill}: validation trajectory diverged"));
        }
        std::fs::remove_file(&path).ok();
        eprintln!("[crash] kill@{kill} → resume@{from}: bit-identical ✓");
    }
    rows.push(vec![
        "kill+resume".into(),
        format!("{} kill points, checkpoint every {every}", kill_steps.len()),
        "bit-identical".into(),
    ]);

    // -----------------------------------------------------------------
    // Phase 2: divergence guards
    // -----------------------------------------------------------------
    let faults = [2u64, 5];
    eprintln!("[crash] phase 2: guards under injected non-finite steps {faults:?}…");
    let run_guard = |opts: &FitOptions| -> (KgLink, TrainReport) {
        KgLink::fit_with(&resources, dataset, config.clone(), opts)
            .unwrap_or_else(|e| fail(&format!("guarded fit failed: {e}")))
    };

    let (mut unguarded, urep) = run_guard(&FitOptions::new().inject_nonfinite_at(&faults));
    if urep.nonfinite_steps != faults.len() as u64 {
        fail("unguarded run miscounted injected non-finite steps");
    }
    if state_is_nan_free(&mut unguarded) {
        fail("injection is inert: unguarded run stayed NaN-free, guard proves nothing");
    }

    let (mut skipped, srep) = run_guard(
        &FitOptions::new()
            .guard(GuardPolicy::SkipStep)
            .inject_nonfinite_at(&faults),
    );
    if srep.nonfinite_steps != faults.len() as u64 {
        fail("SkipStep miscounted non-finite steps");
    }
    if !state_is_nan_free(&mut skipped) {
        fail("SkipStep let the injected NaN reach the weights");
    }
    let last_acc = *srep.val_accuracy.last().unwrap_or(&0.0);
    if !last_acc.is_finite() {
        fail("SkipStep run ended with a non-finite validation accuracy");
    }
    let summary = skipped.evaluate(&resources, dataset, Split::Test);
    if !summary.weighted_f1_pct().is_finite() {
        fail("SkipStep model does not evaluate to finite metrics");
    }
    eprintln!(
        "[crash] SkipStep: {} skipped, final wF1 {:.2} ✓",
        srep.nonfinite_steps,
        summary.weighted_f1_pct()
    );
    rows.push(vec![
        "guard: SkipStep".into(),
        format!("{} injected NaN steps", faults.len()),
        format!("contained, wF1 {:.2}", summary.weighted_f1_pct()),
    ]);

    let rb_path = ckpt_path("rollback");
    let (mut rolled, rbrep) = run_guard(
        &FitOptions::new()
            .checkpoint_every(&rb_path, every)
            .guard(GuardPolicy::Rollback { max_consecutive: 2 })
            .inject_nonfinite_at(&[3, 4, 5]),
    );
    if rbrep.rollbacks < 1 {
        fail("three consecutive bad steps with K=2 must trigger a rollback");
    }
    if !state_is_nan_free(&mut rolled) {
        fail("rollback did not discard the poisoned state");
    }
    std::fs::remove_file(&rb_path).ok();
    eprintln!("[crash] Rollback: {} rollback(s), state NaN-free ✓", rbrep.rollbacks);
    rows.push(vec![
        "guard: Rollback".into(),
        "3 consecutive NaN steps, K=2".into(),
        format!("{} rollback(s), NaN-free", rbrep.rollbacks),
    ]);

    // -----------------------------------------------------------------
    // Phase 3: serving under a panicking backend
    // -----------------------------------------------------------------
    eprintln!("[crash] phase 3: serve chaos…");
    // Injected panics are the point of this phase; keep their default
    // backtrace spew out of the harness output. Anything else still prints.
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or("panic");
        if !msg.starts_with("injected panic") {
            eprintln!("panic: {msg} ({:?})", info.location());
        }
    }));
    let model = Arc::new(baseline);
    let tables: Vec<Table> = dataset
        .tables_in(Split::Test)
        .take(if smoke { 8 } else { 40 })
        .cloned()
        .collect();

    let budget = 32usize;
    let backend = Arc::new(PanickingBackend::new(Arc::clone(&env.searcher), 7));
    let mut svc = env.service(
        Arc::clone(&model),
        backend as SharedBackend,
        ServiceConfig {
            workers: 2,
            max_batch: 2,
            cache: None, // every retrieval reaches the panicking backend
            admission: AdmissionPolicy::Block,
            restart_budget: budget,
            ..ServiceConfig::default()
        },
    );
    let tickets = svc.submit_batch(tables.iter().cloned());
    let (mut ok, mut panicked) = (0u64, 0u64);
    for ticket in tickets {
        // Every ticket must resolve; a hung ticket hangs the harness here.
        match ticket.expect("queue has room").wait() {
            Ok(_) => ok += 1,
            Err(ServiceError::WorkerPanicked) => panicked += 1,
            Err(other) => fail(&format!("unexpected ticket error: {other}")),
        }
    }
    if panicked == 0 {
        fail("a panic every 7 retrievals never hit a request — injection inert");
    }
    if ok + panicked != tables.len() as u64 {
        fail("ticket accounting does not cover every submitted table");
    }
    svc.shutdown(); // quiesce so the counters are final
    let metrics = svc.metrics();
    if metrics.completed != ok || metrics.worker_panics != panicked {
        fail(&format!(
            "metrics do not reconcile: completed {} vs ok {ok}, panics {} vs {panicked}",
            metrics.completed, metrics.worker_panics
        ));
    }
    if metrics.worker_restarts > budget as u64 {
        fail("supervisor exceeded its restart budget");
    }
    eprintln!(
        "[crash] serve chaos: {ok} ok, {panicked} panicked (typed), {} restart(s) ≤ budget {budget} ✓",
        metrics.worker_restarts
    );
    rows.push(vec![
        "serve: panic isolation".into(),
        format!("{} tables, panic every 7 calls", tables.len()),
        format!(
            "0 hung, {panicked} typed panics, {} restarts",
            metrics.worker_restarts
        ),
    ]);

    // Zero budget: the pool dies on the first panic and everything fails
    // typed — queued requests and future submissions alike.
    let dead_backend = Arc::new(PanickingBackend::new(Arc::clone(&env.searcher), 1));
    let dead = env.service(
        model,
        dead_backend as SharedBackend,
        ServiceConfig {
            workers: 1,
            max_batch: 1,
            cache: None,
            admission: AdmissionPolicy::Block,
            restart_budget: 0,
            ..ServiceConfig::default()
        },
    );
    let tickets = dead.submit_batch(tables.iter().take(4).cloned());
    let mut exhausted = 0usize;
    for ticket in tickets {
        match ticket.expect("queue has room").wait() {
            Err(ServiceError::WorkerPanicked) => {}
            Err(ServiceError::RestartBudgetExhausted { budget: 0 }) => exhausted += 1,
            Ok(_) => fail("a request succeeded through an always-panicking backend"),
            Err(other) => fail(&format!("untyped failure from the dead pool: {other}")),
        }
    }
    if exhausted == 0 {
        fail("queued requests behind the dead pool must see the budget error");
    }
    if !matches!(
        dead.submit(tables[0].clone()),
        Err(ServiceError::RestartBudgetExhausted { budget: 0 })
    ) {
        fail("a dead pool must refuse new submissions with the typed budget error");
    }
    eprintln!("[crash] zero budget: pool failed closed, {exhausted} queued requests typed ✓");
    rows.push(vec![
        "serve: budget exhaustion".into(),
        "budget 0, panic on every call".into(),
        format!("fails closed, {exhausted} typed refusals"),
    ]);

    print_markdown(
        "Crash chaos — checkpoints, guards, and panic-isolated serving",
        &["Scenario", "Setup", "Outcome"],
        &rows,
    );
    eprintln!("[crash] all phases OK");
}

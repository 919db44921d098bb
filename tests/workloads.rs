//! Integration: every workload builds and steps through the standard
//! interface, in both modes, with consistent metadata — the paper's
//! "evaluating training, inference, or simply inspecting the model's
//! dataflow graph is straightforward" contract.

use fathom_suite::fathom::{BuildConfig, Mode, ModelKind};
use fathom_suite::fathom_dataflow::{ExecError, Guardrail};

#[test]
fn all_eight_workloads_train_one_step() {
    for kind in ModelKind::ALL {
        let mut model = kind.build(&BuildConfig::training());
        let stats = model.step();
        let loss = stats.loss.unwrap_or_else(|| panic!("{kind} training must report a loss"));
        assert!(loss.is_finite(), "{kind} produced a non-finite loss");
        assert_eq!(model.mode(), Mode::Training);
        assert_eq!(model.name(), kind.name());
    }
}

#[test]
fn all_eight_workloads_run_inference() {
    for kind in ModelKind::ALL {
        let mut model = kind.build(&BuildConfig::inference());
        let stats = model.step();
        assert!(stats.loss.is_none() || stats.loss.unwrap().is_finite());
        assert!(
            stats.metric.is_some() || stats.loss.is_some(),
            "{kind} inference must report something"
        );
        assert_eq!(model.mode(), Mode::Inference);
    }
}

#[test]
fn inference_graphs_are_smaller_than_training_graphs() {
    for kind in ModelKind::ALL {
        let train = kind.build(&BuildConfig::training());
        let infer = kind.build(&BuildConfig::inference());
        assert!(
            infer.session().graph().len() < train.session().graph().len(),
            "{kind}: inference graph should omit the backward pass"
        );
    }
}

#[test]
fn metadata_covers_every_style_and_task() {
    let metas: Vec<_> = ModelKind::ALL.iter().map(|k| k.metadata()).collect();
    // The paper's coverage claims (Table I, Fathom column).
    assert!(metas.iter().any(|m| m.style.contains("Recurrent")));
    assert!(metas.iter().any(|m| m.style.contains("Convolutional")));
    assert!(metas.iter().any(|m| m.style.contains("Memory")));
    assert!(metas.iter().any(|m| m.task == "Supervised"));
    assert!(metas.iter().any(|m| m.task == "Unsupervised"));
    assert!(metas.iter().any(|m| m.task == "Reinforcement"));
    // Max depth 34 (residual), as in Table I's Fathom column.
    assert_eq!(metas.iter().map(|m| m.layers).max(), Some(34));
}

#[test]
fn training_losses_are_deterministic_given_seed() {
    // Two identically seeded instances must produce identical losses.
    for kind in [ModelKind::Autoenc, ModelKind::Memnet] {
        let cfg = BuildConfig::training().with_seed(123);
        let mut a = kind.build(&cfg);
        let mut b = kind.build(&cfg);
        for step in 0..3 {
            let la = a.step().loss.unwrap();
            let lb = b.step().loss.unwrap();
            assert_eq!(la, lb, "{kind} diverged at step {step}");
        }
    }
}

#[test]
fn different_seeds_give_different_runs() {
    let mut a = ModelKind::Autoenc.build(&BuildConfig::training().with_seed(1));
    let mut b = ModelKind::Autoenc.build(&BuildConfig::training().with_seed(2));
    assert_ne!(a.step().loss, b.step().loss);
}

#[test]
fn supervised_pipelines_rewind_on_a_tripped_step_and_skip_one_batch() {
    // The pipeline contract of every dataset-driven workload: a step the
    // guardrail trips leaves the corpus where it was, and `skip_batch`
    // moves it exactly as far as one committed step does.
    for kind in ModelKind::ALL.into_iter().filter(|&k| k != ModelKind::Deepq) {
        let cfg = BuildConfig::training().with_seed(11);
        let mut model = kind.build(&cfg);
        model.session_mut().set_guardrail(Some(Guardrail::finite()));
        let before = model.export_pipeline();
        let loss = model.train_probes().expect("training tracks its loss").loss;
        model.session_mut().poison_next_fetch(loss);
        assert!(matches!(model.try_step(), Err(ExecError::GuardTripped(_))), "{kind}");
        assert_eq!(model.export_pipeline(), before, "{kind}: a tripped step moved the pipeline");

        model.skip_batch();
        let mut twin = kind.build(&cfg);
        twin.step();
        assert_eq!(model.export_pipeline(), twin.export_pipeline(), "{kind}: skip_batch != one step");
    }
}

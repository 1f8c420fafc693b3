//! Cross-crate integration tests: world → datasets → Part 1 → Part 2 →
//! annotator, plus the harness-level invariants the experiments rely on.

use kglink::baselines::doduo::Doduo;
use kglink::baselines::mtab::MTab;
use kglink::baselines::plm::PlmConfig;
use kglink::baselines::{BenchEnv, CtaModel};
use kglink::core::pipeline::{build_vocab, KgLink, Resources};
use kglink::core::{KgLinkConfig, LinkStatistics, Preprocessor};
use kglink::datagen::{pretrain_corpus, semtab_like, viznet_like, SemTabConfig, VizNetConfig};
use kglink::kg::{SyntheticWorld, WorldConfig};
use kglink::nn::serialize::save_params;
use kglink::nn::{Encoder, EncoderConfig, MlmPretrainConfig, MlmPretrainer, Tokenizer};
use kglink::store::DiskWorld;
use kglink::table::Split;

struct Fixture {
    world: SyntheticWorld,
    semtab: kglink::datagen::GeneratedBenchmark,
    viznet: kglink::datagen::GeneratedBenchmark,
    disk: DiskWorld,
    tokenizer: Tokenizer,
}

impl Fixture {
    fn resources(&self) -> Resources<'_> {
        Resources::builder()
            .graph(&self.disk.graph)
            .backend(&self.disk.backend)
            .tokenizer(&self.tokenizer)
            .build()
            .unwrap()
    }
}

fn fixture(seed: u64) -> Fixture {
    let world = SyntheticWorld::generate(&WorldConfig {
        seed,
        scale: 0.2,
        ..WorldConfig::default()
    });
    let semtab = semtab_like(
        &world,
        &SemTabConfig {
            seed,
            n_tables: 40,
            min_rows: 5,
            max_rows: 12,
            ..SemTabConfig::default()
        },
    );
    let viznet = viznet_like(
        &world,
        &VizNetConfig {
            seed,
            n_tables: 60,
            min_rows: 5,
            max_rows: 10,
            ..VizNetConfig::default()
        },
    );
    let disk = DiskWorld::from_graph(&world.graph).unwrap();
    let corpus = pretrain_corpus(&world, seed);
    let vocab = build_vocab(
        corpus.iter().map(String::as_str),
        &[&semtab.dataset, &viznet.dataset],
        8000,
    );
    Fixture {
        world,
        semtab,
        viznet,
        disk,
        tokenizer: Tokenizer::new(vocab),
    }
}

#[test]
fn kglink_end_to_end_on_both_benchmarks() {
    let f = fixture(201);
    let resources = f.resources();
    for bench in [&f.semtab, &f.viznet] {
        let config = KgLinkConfig {
            epochs: 4,
            ..KgLinkConfig::fast_test()
        };
        let (model, report) = KgLink::fit(&resources, &bench.dataset, config);
        assert!(!report.epoch_loss.is_empty());
        let summary = model.evaluate(&resources, &bench.dataset, Split::Test);
        assert!(summary.support > 0);
        assert!(
            summary.accuracy > 1.0 / bench.dataset.labels.len() as f64,
            "{} acc {}",
            bench.dataset.name,
            summary.accuracy
        );
    }
}

#[test]
fn pretrained_encoder_transfers_into_kglink() {
    let f = fixture(202);
    // Pre-train briefly and check the blob loads into the pipeline.
    let corpus = pretrain_corpus(&f.world, 5);
    let ids: Vec<Vec<u32>> = corpus
        .iter()
        .take(200)
        .map(|s| f.tokenizer.encode_text(s))
        .collect();
    let mut pre = MlmPretrainer::new(
        Encoder::new(EncoderConfig::mini(f.tokenizer.vocab.len())),
        MlmPretrainConfig {
            epochs: 1,
            ..Default::default()
        },
    );
    pre.train(&ids);
    let (mut enc, _) = pre.into_parts();
    let blob = save_params(&mut enc).to_vec();
    let resources = Resources {
        pretrained_encoder: Some(&blob),
        ..f.resources()
    };
    let (model, _) = KgLink::fit(&resources, &f.semtab.dataset, KgLinkConfig::fast_test());
    let summary = model.evaluate(&resources, &f.semtab.dataset, Split::Test);
    assert!(summary.support > 0);
}

#[test]
fn ablations_run_and_stay_better_than_random() {
    let f = fixture(203);
    let resources = f.resources();
    let base = KgLinkConfig {
        epochs: 10,
        patience: 0,
        ..KgLinkConfig::fast_test()
    };
    for config in [
        base.clone().without_mask_task(),
        base.clone().without_kg(),
        base.clone().without_feature_vector(),
    ] {
        let (model, _) = KgLink::fit(&resources, &f.semtab.dataset, config);
        let s = model.evaluate(&resources, &f.semtab.dataset, Split::Test);
        assert!(s.accuracy > 1.0 / f.semtab.dataset.labels.len() as f64);
    }
}

#[test]
fn baselines_conform_to_the_trait_and_run() {
    let f = fixture(204);
    let resources = f.resources();
    let env = BenchEnv {
        resources: &resources,
        labels: &f.semtab.dataset.labels,
        label_to_type: &f.semtab.label_to_type,
    };
    let mut models: Vec<Box<dyn CtaModel>> = vec![
        Box::new(MTab::new()),
        Box::new(Doduo::new(PlmConfig {
            epochs: 2,
            patience: 0,
            ..Default::default()
        })),
    ];
    for model in models.iter_mut() {
        model.fit(&env, &f.semtab.dataset);
        let s = model.evaluate(&env, &f.semtab.dataset, Split::Test);
        assert!(s.support > 0, "{} produced no predictions", model.name());
        // Every prediction is a valid label.
        for t in f.semtab.dataset.tables_in(Split::Test) {
            for p in model.predict_table(&env, t) {
                assert!((p.index()) < f.semtab.dataset.labels.len());
            }
        }
    }
}

#[test]
fn link_statistics_shape_matches_the_paper() {
    let f = fixture(205);
    let config = KgLinkConfig::fast_test();
    let pre = Preprocessor::new(&f.disk.graph, &f.disk.backend, config);
    let stats = |ds: &kglink::table::Dataset| {
        let processed: Vec<_> = ds.tables.iter().flat_map(|t| pre.process(t)).collect();
        LinkStatistics::compute(&processed)
    };
    let sem = stats(&f.semtab.dataset);
    let viz = stats(&f.viznet.dataset);
    // SemTab-like: no numeric columns, near-total KG coverage.
    assert_eq!(sem.numeric_columns, 0);
    assert!(sem.pct(sem.non_numeric_without_fv) < 10.0);
    // VizNet-like: numeric columns and zero-linkage columns exist.
    assert!(viz.numeric_columns > 0);
    assert!(viz.non_numeric_without_fv > 0);
    // The VizNet-like w/o-ct share exceeds SemTab-like's (paper: 74.7% vs 15.1%).
    assert!(viz.pct(viz.non_numeric_without_ct) > sem.pct(sem.non_numeric_without_ct));
}

#[test]
fn determinism_across_identical_runs() {
    let f1 = fixture(206);
    let f2 = fixture(206);
    assert_eq!(f1.world.graph.len(), f2.world.graph.len());
    assert_eq!(f1.semtab.dataset.len(), f2.semtab.dataset.len());
    let resources1 = f1.resources();
    let resources2 = f2.resources();
    let cfg = KgLinkConfig {
        epochs: 2,
        ..KgLinkConfig::fast_test()
    };
    let (m1, r1) = KgLink::fit(&resources1, &f1.semtab.dataset, cfg.clone());
    let (m2, r2) = KgLink::fit(&resources2, &f2.semtab.dataset, cfg);
    assert_eq!(r1.epoch_loss, r2.epoch_loss, "training is deterministic");
    let s1 = m1.evaluate(&resources1, &f1.semtab.dataset, Split::Test);
    let s2 = m2.evaluate(&resources2, &f2.semtab.dataset, Split::Test);
    assert_eq!(s1.accuracy, s2.accuracy);
}

//! Shared experiment harness.
//!
//! Every `exp_*` binary reproduces one table or figure of the paper. They
//! all share this environment: one synthetic world, the two generated
//! benchmarks (SemTab-like and VizNet-like), one shared vocabulary, and one
//! MLM-pre-trained MiniLM encoder (the BERT-checkpoint stand-in) that is
//! cached on disk so the grid does not repeat pre-training.
//!
//! Scaling knobs (environment variables):
//! * `KGLINK_FAST=1` — shrink everything for smoke runs.
//! * `KGLINK_SEED=<n>` — change the global seed (default 7).

#![deny(deprecated)]
#![forbid(unsafe_code)]

use kglink_baselines::doduo::Doduo;
use kglink_baselines::hnn::Hnn;
use kglink_baselines::mlp::MlpConfig;
use kglink_baselines::mtab::MTab;
use kglink_baselines::plm::PlmConfig;
use kglink_baselines::reca::Reca;
use kglink_baselines::sherlock::Sherlock;
use kglink_baselines::sudowoodo::{Sudowoodo, SudowoodoConfig};
use kglink_baselines::tabert::TaBert;
use kglink_baselines::{BenchEnv, CtaModel};
use kglink_core::pipeline::{build_vocab, KgLink, Resources};
use kglink_core::{KgLinkConfig, TrainReport};
use kglink_datagen::{
    pretrain_corpus, semtab_like, viznet_like, GeneratedBenchmark, SemTabConfig, VizNetConfig,
};
use kglink_kg::{GraphAccess, SyntheticWorld, WorldConfig};
use kglink_nn::frame;
use kglink_nn::serialize::save_params;
use kglink_nn::{Encoder, EncoderConfig, MlmPretrainConfig, MlmPretrainer, Tokenizer};
use kglink_search::KgBackend;
use kglink_serve::{AnnotationService, ServiceConfig, SharedBackend};
use kglink_store::{DiskBackend, DiskGraph, DiskWorld};
use kglink_table::{Dataset, EvalSummary, Split};
use std::sync::Arc;
use std::time::Instant;

/// Which benchmark dataset an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    SemTab,
    VizNet,
}

impl Which {
    pub fn name(self) -> &'static str {
        match self {
            Which::SemTab => "SemTab-like",
            Which::VizNet => "VizNet-like",
        }
    }
}

/// The shared experiment environment. The generated world is read through
/// the disk store the service ships ([`DiskWorld::from_graph`]); graph,
/// searcher and tokenizer are `Arc`s so the serving harnesses hand the
/// *same* instances to [`ExpEnv::service`] that the offline references
/// borrow.
pub struct ExpEnv {
    pub graph: Arc<DiskGraph>,
    pub semtab: GeneratedBenchmark,
    pub viznet: GeneratedBenchmark,
    pub searcher: Arc<DiskBackend>,
    pub tokenizer: Arc<Tokenizer>,
    pub pretrained: Vec<u8>,
    pub fast: bool,
    pub seed: u64,
}

fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| v == "1" || v == "true")
        .unwrap_or(false)
}

impl ExpEnv {
    /// Build (or load from cache) the shared environment.
    pub fn load() -> ExpEnv {
        let fast = env_flag("KGLINK_FAST");
        let seed: u64 = std::env::var("KGLINK_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(7);
        let world_cfg = WorldConfig {
            seed,
            scale: if fast { 0.15 } else { 1.0 },
            ..WorldConfig::default()
        };
        eprintln!("[setup] generating world (scale {})…", world_cfg.scale);
        let world = SyntheticWorld::generate(&world_cfg);
        let semtab = semtab_like(
            &world,
            &SemTabConfig {
                seed: seed ^ 0x51,
                n_tables: if fast { 40 } else { 240 },
                ..SemTabConfig::default()
            },
        );
        let viznet = viznet_like(
            &world,
            &VizNetConfig {
                seed: seed ^ 0x52,
                n_tables: if fast { 80 } else { 700 },
                ..VizNetConfig::default()
            },
        );
        eprintln!(
            "[setup] SemTab-like: {} tables / {} columns / {} labels; VizNet-like: {} tables / {} columns / {} labels",
            semtab.dataset.len(),
            semtab.dataset.n_columns(),
            semtab.dataset.labels.len(),
            viznet.dataset.len(),
            viznet.dataset.n_columns(),
            viznet.dataset.labels.len(),
        );
        eprintln!(
            "[setup] writing the disk world of {} entities…",
            world.graph.len()
        );
        let disk = DiskWorld::from_graph(&world.graph)
            .expect("the experiment world writes to the temp dir");
        let corpus = pretrain_corpus(&world, seed ^ 0x53);
        // The cap matters: rare entity tokens fall out of the vocabulary and
        // surface as [UNK], so models must generalize from context and KG
        // signals instead of memorizing cell tokens (the role played by
        // unseen entities in the real benchmarks).
        let vocab = build_vocab(
            corpus.iter().map(String::as_str),
            &[&semtab.dataset, &viznet.dataset],
            if fast { 1500 } else { 2600 },
        );
        eprintln!("[setup] vocabulary: {} tokens", vocab.len());
        let tokenizer = Arc::new(Tokenizer::new(vocab));
        let pretrained = Self::pretrain_encoder(&tokenizer, &corpus, seed, fast);
        ExpEnv {
            graph: disk.graph,
            semtab,
            viznet,
            searcher: disk.backend,
            tokenizer,
            pretrained,
            fast,
            seed,
        }
    }

    /// MLM pre-training of the shared MiniLM, cached on disk as a
    /// [`frame`] (magic `KGPT`) around its `KGLW` weights: the cache is
    /// published atomically, and a torn or foreign file is trained again
    /// instead of being handed to `fit` (which loads it best-effort).
    fn pretrain_encoder(
        tokenizer: &Tokenizer,
        corpus: &[String],
        seed: u64,
        fast: bool,
    ) -> Vec<u8> {
        const CACHE_MAGIC: &[u8; 4] = b"KGPT";
        let cache = std::path::Path::new("target/kglink-cache").join(format!(
            "pretrained_v{}_{}_{}_{}.bin",
            2,
            seed,
            tokenizer.vocab.len(),
            u8::from(fast)
        ));
        if let Ok(file) = std::fs::read(&cache) {
            match frame::decode(&file, CACHE_MAGIC, 1) {
                Ok(blob) => {
                    eprintln!(
                        "[setup] loaded cached pre-trained encoder ({} bytes)",
                        blob.len()
                    );
                    return blob.to_vec();
                }
                Err(e) => {
                    eprintln!("[setup] cached pre-trained encoder unusable ({e}), retraining")
                }
            }
        }
        eprintln!("[setup] MLM pre-training on {} sentences…", corpus.len());
        let t0 = Instant::now();
        let enc = Encoder::new(EncoderConfig::mini(tokenizer.vocab.len()));
        let mut pre = MlmPretrainer::new(
            enc,
            MlmPretrainConfig {
                epochs: if fast { 1 } else { 3 },
                seed: seed ^ 0x54,
                ..Default::default()
            },
        );
        let ids: Vec<Vec<u32>> = corpus.iter().map(|s| tokenizer.encode_text(s)).collect();
        let losses = pre.train(&ids);
        eprintln!(
            "[setup] MLM losses per epoch: {:?} ({:.1}s)",
            losses,
            t0.elapsed().as_secs_f64()
        );
        let (mut encoder, _) = pre.into_parts();
        let blob = save_params(&mut encoder).to_vec();
        if let Err(e) = frame::publish(&cache, &frame::encode(CACHE_MAGIC, 1, &blob)) {
            eprintln!("[setup] could not cache the pre-trained encoder: {e}");
        }
        blob
    }

    /// The benchmark for a dataset choice.
    pub fn bench(&self, which: Which) -> &GeneratedBenchmark {
        match which {
            Which::SemTab => &self.semtab,
            Which::VizNet => &self.viznet,
        }
    }

    /// KGLink resources view over the healthy disk backend.
    pub fn resources(&self) -> Resources<'_> {
        self.resources_with(&*self.searcher)
    }

    /// KGLink resources view over an arbitrary retrieval backend (fault
    /// injection, …).
    pub fn resources_with<'a>(&'a self, backend: &'a (dyn KgBackend + 'a)) -> Resources<'a> {
        Resources::builder()
            .graph(&*self.graph)
            .backend(backend)
            .tokenizer(&self.tokenizer)
            .pretrained(&self.pretrained)
            .build()
            .expect("experiment env bundles a complete resource set")
    }

    /// Baseline environment view for a dataset.
    pub fn baseline_env<'a>(&'a self, resources: &'a Resources<'a>, which: Which) -> BenchEnv<'a> {
        let bench = self.bench(which);
        BenchEnv {
            resources,
            labels: &bench.dataset.labels,
            label_to_type: &bench.label_to_type,
        }
    }

    /// The paper trains 50 epochs on SemTab and 20 on VizNet; scaled here.
    pub fn kglink_config(&self, which: Which) -> KgLinkConfig {
        let epochs = match (which, self.fast) {
            (Which::SemTab, false) => 14,
            (Which::VizNet, false) => 8,
            (_, true) => 3,
        };
        KgLinkConfig {
            epochs,
            patience: 3,
            seed: self.seed ^ 0x60,
            // Paper: dropout 0.1 on SemTab, 0.2 on VizNet ("since it
            // contains more training tables").
            dropout: match which {
                Which::SemTab => 0.1,
                Which::VizNet => 0.2,
            },
            ..KgLinkConfig::default()
        }
    }

    /// [`kglink_config`](Self::kglink_config) for the serving harnesses,
    /// where accuracy is not the point: `smoke` caps training at two epochs.
    pub fn smoke_config(&self, which: Which, smoke: bool) -> KgLinkConfig {
        let mut config = self.kglink_config(which);
        if smoke {
            config.epochs = config.epochs.min(2);
        }
        config
    }

    /// Fit KGLink on `which` over `resources` with [`smoke_config`](Self::smoke_config).
    pub fn fit_smoke(&self, resources: &Resources<'_>, which: Which, smoke: bool) -> KgLink {
        KgLink::fit(
            resources,
            &self.bench(which).dataset,
            self.smoke_config(which, smoke),
        )
        .0
    }

    /// The disk backend as a service backend (the same instance the
    /// offline references query, not a second index).
    pub fn backend(&self) -> SharedBackend {
        Arc::clone(&self.searcher) as SharedBackend
    }

    /// An [`AnnotationService`] over the shared graph and tokenizer; callers
    /// spell out only the [`ServiceConfig`] fields their experiment varies.
    pub fn service(
        &self,
        model: Arc<KgLink>,
        backend: SharedBackend,
        config: ServiceConfig,
    ) -> AnnotationService {
        let graph = Arc::clone(&self.graph) as Arc<dyn GraphAccess>;
        AnnotationService::new(model, graph, backend, Arc::clone(&self.tokenizer), config)
    }

    /// Matching settings for the PLM baselines.
    pub fn plm_config(&self, which: Which) -> PlmConfig {
        let kc = self.kglink_config(which);
        PlmConfig {
            epochs: kc.epochs,
            patience: kc.patience,
            batch_size: kc.batch_size,
            seed: self.seed ^ 0x61,
            ..Default::default()
        }
    }
}

/// Outcome of one model × dataset run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub model: String,
    pub summary: EvalSummary,
    pub fit_seconds: f64,
    pub predict_seconds: f64,
}

/// Train and evaluate one baseline on one dataset.
pub fn run_baseline(env: &ExpEnv, model: &mut dyn CtaModel, which: Which) -> RunResult {
    let resources = env.resources();
    let benv = env.baseline_env(&resources, which);
    let dataset = &env.bench(which).dataset;
    let t0 = Instant::now();
    model.fit(&benv, dataset);
    let fit_seconds = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let summary = model.evaluate(&benv, dataset, Split::Test);
    let predict_seconds = t1.elapsed().as_secs_f64();
    eprintln!(
        "[run] {:<10} {:<12} acc {:5.2}  wF1 {:5.2}  (fit {:.1}s, predict {:.1}s)",
        model.name(),
        which.name(),
        summary.accuracy_pct(),
        summary.weighted_f1_pct(),
        fit_seconds,
        predict_seconds
    );
    RunResult {
        model: model.name().to_string(),
        summary,
        fit_seconds,
        predict_seconds,
    }
}

/// Train and evaluate KGLink (or an ablation of it) on one dataset.
pub fn run_kglink(
    env: &ExpEnv,
    which: Which,
    config: KgLinkConfig,
    name: &str,
) -> (RunResult, TrainReport, KgLink) {
    let resources = env.resources();
    run_kglink_on(env, &resources, which, config, name)
}

/// [`run_kglink`] against explicit resources — lets chaos experiments swap
/// in a faulty retrieval backend for both fit and evaluate.
pub fn run_kglink_on(
    env: &ExpEnv,
    resources: &Resources<'_>,
    which: Which,
    config: KgLinkConfig,
    name: &str,
) -> (RunResult, TrainReport, KgLink) {
    let dataset = &env.bench(which).dataset;
    let t0 = Instant::now();
    let (model, report) = KgLink::fit(resources, dataset, config);
    let fit_seconds = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let summary = model.evaluate(resources, dataset, Split::Test);
    let predict_seconds = t1.elapsed().as_secs_f64();
    eprintln!(
        "[run] {:<10} {:<12} acc {:5.2}  wF1 {:5.2}  (fit {:.1}s, predict {:.1}s)",
        name,
        which.name(),
        summary.accuracy_pct(),
        summary.weighted_f1_pct(),
        fit_seconds,
        predict_seconds
    );
    (
        RunResult {
            model: name.to_string(),
            summary,
            fit_seconds,
            predict_seconds,
        },
        report,
        model,
    )
}

/// All baseline constructors, in the paper's Table I order.
pub fn baseline_registry(env: &ExpEnv, which: Which) -> Vec<Box<dyn CtaModel>> {
    let plm = env.plm_config(which);
    vec![
        Box::new(MTab::new()),
        Box::new(TaBert::new(plm.clone())),
        Box::new(Doduo::new(plm.clone())),
        Box::new(Hnn::new(MlpConfig::default())),
        Box::new(Sudowoodo::new(SudowoodoConfig::default())),
        Box::new(Reca::new(plm)),
        // Not in the paper's Table I, included as an extra reference point.
        Box::new(Sherlock::new(MlpConfig::default())),
    ]
}

/// Print a GitHub-flavored markdown table.
pub fn print_markdown(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// Format a percentage.
pub fn pct(v: f64) -> String {
    format!("{v:.2}")
}

/// Split a dataset's test tables into (numeric columns, non-numeric
/// columns) restricted to tables with **zero** KG linkage — the paper's
/// Table IV subset ("whose entire table has no linkage to the KG").
pub fn no_linkage_test_subset(env: &ExpEnv, dataset: &Dataset) -> Vec<usize> {
    dataset
        .table_indices(Split::Test)
        .into_iter()
        .filter(|&i| {
            let t = &dataset.tables[i];
            let linked = kglink_core::linking::LinkedTable::link(t, &env.searcher, 3);
            linked
                .cells
                .iter()
                .flatten()
                .all(|c| c.candidates.is_empty())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_prints() {
        print_markdown("Demo", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(pct(12.345), "12.35");
    }

    #[test]
    fn which_names() {
        assert_eq!(Which::SemTab.name(), "SemTab-like");
        assert_eq!(Which::VizNet.name(), "VizNet-like");
    }
}

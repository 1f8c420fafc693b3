//! The user-facing KGLink annotator API.

use crate::config::KgLinkConfig;
use crate::error::KgLinkError;
use crate::memo::FeatureMemo;
use crate::model::KgLinkModel;
use crate::preprocess::{Preprocessor, ProcessedTable};
use crate::train::{self, prepare_tables};
pub use crate::train::{FitOptions, GuardPolicy, TrainReport};
use kglink_kg::GraphAccess;
use kglink_nn::layers::param::HasParams;
use kglink_nn::serialize::load_params;
use kglink_nn::{Tokenizer, Vocab};
use kglink_obs::Tracer;
use kglink_search::{Deadline, KgBackend};
use kglink_table::{Dataset, EvalSummary, LabelId, LabelVocab, Split, Table};

/// Everything external a KGLink instance needs: the KG, a retrieval backend
/// over it (the disk backend, or any decorator stack over it), the
/// tokenizer, and (optionally) pre-trained MiniLM weights shared across the
/// experiment grid.
///
/// Construct through [`Resources::builder`], which validates the bundle
/// instead of allowing inconsistent states.
pub struct Resources<'a> {
    pub graph: &'a (dyn GraphAccess + 'a),
    pub backend: &'a (dyn KgBackend + 'a),
    pub tokenizer: &'a Tokenizer,
    /// Serialized encoder weights from MLM pre-training (the BERT
    /// checkpoint stand-in). Loaded when the architecture matches.
    pub pretrained_encoder: Option<&'a [u8]>,
    /// Observability sink every pipeline call threads through (stage spans,
    /// degradation events). Disabled by default; requests can override it
    /// per call with [`AnnotateRequest::trace`].
    pub tracer: Tracer,
}

impl<'a> Resources<'a> {
    /// Start a validating [`ResourcesBuilder`].
    pub fn builder() -> ResourcesBuilder<'a> {
        ResourcesBuilder::default()
    }
}

/// Validating builder for [`Resources`]: [`build`](Self::build) fails with
/// [`KgLinkError::UnsupportedCpu`] when the CPU lacks a feature the build
/// was compiled for (see [`check_cpu`](kglink_nn::kernels::check_cpu)), with [`KgLinkError::MissingResource`] when the KG,
/// backend, or tokenizer is absent, and with [`KgLinkError::InvalidConfig`]
/// when the tokenizer's vocabulary is empty (an annotator over it could
/// never see a token).
#[derive(Default)]
pub struct ResourcesBuilder<'a> {
    graph: Option<&'a (dyn GraphAccess + 'a)>,
    backend: Option<&'a (dyn KgBackend + 'a)>,
    tokenizer: Option<&'a Tokenizer>,
    pretrained_encoder: Option<&'a [u8]>,
    tracer: Tracer,
}

impl<'a> ResourcesBuilder<'a> {
    /// The knowledge graph candidates and feature sequences come from —
    /// the in-memory [`kglink_kg::KnowledgeGraph`] or any other
    /// [`GraphAccess`] store (e.g. `kglink-store`'s disk-backed world).
    pub fn graph(mut self, graph: &'a (dyn GraphAccess + 'a)) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The retrieval backend (searcher or any decorator stack over it).
    pub fn backend(mut self, backend: &'a (dyn KgBackend + 'a)) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The tokenizer shared by serialization and the PLM.
    pub fn tokenizer(mut self, tokenizer: &'a Tokenizer) -> Self {
        self.tokenizer = Some(tokenizer);
        self
    }

    /// Serialized encoder weights from MLM pre-training.
    pub fn pretrained(mut self, blob: &'a [u8]) -> Self {
        self.pretrained_encoder = Some(blob);
        self
    }

    /// Observability sink for every pipeline call (default: disabled).
    pub fn tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// Validate and assemble the bundle.
    pub fn build(self) -> Result<Resources<'a>, KgLinkError> {
        kglink_nn::kernels::check_cpu()?;
        let graph = self
            .graph
            .ok_or(KgLinkError::missing_resource("knowledge graph"))?;
        let backend = self
            .backend
            .ok_or(KgLinkError::missing_resource("retrieval backend"))?;
        let tokenizer = self
            .tokenizer
            .ok_or(KgLinkError::missing_resource("tokenizer"))?;
        if tokenizer.vocab.is_empty() {
            return Err(KgLinkError::invalid_config("tokenizer vocabulary is empty"));
        }
        Ok(Resources {
            graph,
            backend,
            tokenizer,
            pretrained_encoder: self.pretrained_encoder,
            tracer: self.tracer,
        })
    }
}

/// Build the shared vocabulary for a world + datasets: the MLM corpus plus
/// label names, candidate-type vocabulary (KG labels/predicates are already
/// in the corpus), and dataset cell text.
pub fn build_vocab<'a>(
    corpus: impl IntoIterator<Item = &'a str>,
    datasets: &[&Dataset],
    max_size: usize,
) -> Vocab {
    let mut texts: Vec<String> = corpus.into_iter().map(str::to_string).collect();
    for ds in datasets {
        for (_, name) in ds.labels.iter() {
            texts.push(name.to_string());
        }
        for t in &ds.tables {
            for col in &t.columns {
                for cell in col {
                    if let Some(s) = cell.as_text() {
                        texts.push(s.to_string());
                    }
                }
            }
        }
    }
    Vocab::build(texts.iter().map(String::as_str), 1, max_size)
}

/// How much of the KG-linkage pipeline a request was served with.
///
/// The serving layer's overload controller walks this ladder under
/// overload: quality is shed one rung at a time before any request is
/// shed. The paper's ablation (Table IV) shows the model still produces
/// useful annotations with linkage disabled, which is what makes rung 2 a
/// principled fallback rather than an error path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradationRung {
    /// Rung 0: full KG retrieval through the configured backend stack.
    #[default]
    Full,
    /// Rung 1: retrieval served only from cache hits; misses degrade the
    /// column instead of reaching the backend.
    CacheOnly,
    /// Rung 2: no retrieval at all — the paper's no-linkage path.
    NoLinkage,
}

impl DegradationRung {
    /// Numeric rung (0 = full service), for metrics and comparisons.
    pub fn level(self) -> u8 {
        match self {
            DegradationRung::Full => 0,
            DegradationRung::CacheOnly => 1,
            DegradationRung::NoLinkage => 2,
        }
    }

    /// Inverse of [`level`](Self::level); saturates at the worst rung.
    pub fn from_level(level: u8) -> Self {
        match level {
            0 => DegradationRung::Full,
            1 => DegradationRung::CacheOnly,
            _ => DegradationRung::NoLinkage,
        }
    }

    /// Stable lower-case name, used in metrics and trace events.
    pub fn name(self) -> &'static str {
        match self {
            DegradationRung::Full => "full",
            DegradationRung::CacheOnly => "cache_only",
            DegradationRung::NoLinkage => "no_linkage",
        }
    }
}

/// Labels plus degradation accounting for one annotated table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotateOutcome {
    /// One predicted label per column of the input table.
    pub labels: Vec<LabelId>,
    /// Columns degraded to the no-linkage path by retrieval failures.
    pub degraded_columns: usize,
    /// Cells whose retrieval was attempted but failed.
    pub failed_cells: usize,
}

impl AnnotateOutcome {
    /// Resolve the predicted labels to their names.
    pub fn names(&self, labels: &LabelVocab) -> Vec<String> {
        self.labels
            .iter()
            .map(|&l| labels.name(l).to_string())
            .collect()
    }
}

/// One annotation request: the table plus per-call options, consumed by
/// [`KgLink::annotate_request`], the single annotation entry point.
///
/// ```ignore
/// let outcome = kglink.annotate_request(&resources, req(&table).deadline(d).trace(&tracer));
/// ```
#[derive(Clone, Copy)]
pub struct AnnotateRequest<'r> {
    table: &'r Table,
    deadline: Deadline,
    tracer: Option<&'r Tracer>,
    feature_memo: Option<&'r FeatureMemo>,
}

/// Shorthand constructor for an [`AnnotateRequest`].
pub fn req(table: &Table) -> AnnotateRequest<'_> {
    AnnotateRequest::new(table)
}

impl<'r> AnnotateRequest<'r> {
    /// A request with an unbounded deadline and the resources' tracer.
    pub fn new(table: &'r Table) -> Self {
        AnnotateRequest {
            table,
            deadline: Deadline::UNBOUNDED,
            tracer: None,
            feature_memo: None,
        }
    }

    /// Per-request retrieval budget: tightens the configured
    /// `retrieval_deadline_us` for every KG query this annotation issues.
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Trace this request through `tracer`, overriding the tracer carried
    /// by the [`Resources`] bundle.
    pub fn trace(mut self, tracer: &'r Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Look feature rows up in `memo` before encoding them, and remember
    /// the ones encoded. The memo must only ever have served this model's
    /// weights (the serving layer keeps one per model epoch). Without it
    /// every feature row is encoded.
    pub fn feature_memo(mut self, memo: &'r FeatureMemo) -> Self {
        self.feature_memo = Some(memo);
        self
    }

    /// The table to annotate.
    pub fn table(&self) -> &'r Table {
        self.table
    }
}

/// A trained KGLink annotator.
pub struct KgLink {
    pub config: KgLinkConfig,
    pub model: KgLinkModel,
    pub labels: LabelVocab,
}

impl KgLink {
    /// Train KGLink on a dataset's train split, early-stopping on its
    /// validation split. Returns the annotator and the training trace.
    #[expect(
        clippy::expect_used,
        reason = "structural: every TrainError is checkpoint I/O, and default FitOptions do no checkpoint I/O"
    )]
    pub fn fit(
        resources: &Resources<'_>,
        dataset: &Dataset,
        config: KgLinkConfig,
    ) -> (Self, TrainReport) {
        Self::fit_with(resources, dataset, config, &FitOptions::default())
            .expect("fit without checkpoint I/O cannot fail")
    }

    /// [`fit`](Self::fit) with crash-safety options: periodic atomic
    /// checkpoints, resume from a previous run's checkpoint, and
    /// divergence guards.
    ///
    /// ```ignore
    /// let options = FitOptions::new()
    ///     .checkpoint_every("run/model.kgck", 50)
    ///     .resume_from("run/model.kgck")
    ///     .guard(GuardPolicy::SkipStep);
    /// let (kglink, report) = KgLink::fit_with(&resources, &dataset, config, &options)?;
    /// ```
    pub fn fit_with(
        resources: &Resources<'_>,
        dataset: &Dataset,
        config: KgLinkConfig,
        options: &FitOptions,
    ) -> Result<(Self, TrainReport), KgLinkError> {
        let tracer = &resources.tracer;
        let _fit = tracer.span("fit");
        let pre = Preprocessor::new(resources.graph, resources.backend, config.clone())
            .with_tracer(tracer);
        let process = |split: Split| -> Vec<ProcessedTable> {
            dataset
                .tables_in(split)
                .flat_map(|t| pre.process(t))
                .collect()
        };
        let (train_pt, val_pt) = {
            let _preprocess = tracer.span("fit.preprocess");
            (process(Split::Train), process(Split::Validation))
        };
        let tokenizer = resources.tokenizer;
        let labels = &dataset.labels;
        let (train_prep, val_prep) = {
            let _prepare = tracer.span("fit.prepare");
            (
                prepare_tables(&train_pt, tokenizer, labels, &config, true),
                prepare_tables(&val_pt, tokenizer, labels, &config, false),
            )
        };
        let mut model = KgLinkModel::new(&config, tokenizer.vocab.len(), labels.len());
        if let Some(blob) = resources.pretrained_encoder {
            // Best effort: only a matching architecture can load.
            let _ = load_params(&mut model.encoder, blob);
        }
        let report = {
            let _train = tracer.span("fit.train");
            train::train_with(&mut model, &config, &train_prep, &val_prep, options, tracer)?
        };
        Ok((
            KgLink {
                config,
                model,
                labels: labels.clone(),
            },
            report,
        ))
    }

    /// The single annotation entry point: labels plus degradation
    /// accounting, under the request's retrieval deadline and tracer. This
    /// is what the serving layer (`kglink-serve`) calls per request.
    ///
    /// Stage spans: the whole call runs under an `annotate` span;
    /// preprocessing contributes `retrieval` / `filter` / `feature` per
    /// chunk, and Part 2 contributes `encode` (serialization +
    /// tokenization) and `classify` once per request: every chunk goes
    /// through one forward ([`train::predict_chunks`]), broken out as a
    /// nested `nn.forward` span.
    pub fn annotate_request(
        &self,
        resources: &Resources<'_>,
        request: AnnotateRequest<'_>,
    ) -> AnnotateOutcome {
        let tracer = request
            .tracer
            .cloned()
            .unwrap_or_else(|| resources.tracer.clone());
        let _annotate = tracer.span("annotate");
        let table = request.table;
        let mut config = self.config.clone();
        config.retrieval_deadline_us = config
            .retrieval_deadline_us
            .min(request.deadline.budget_us());
        let pre = Preprocessor::new(resources.graph, resources.backend, config.clone())
            .with_tracer(&tracer);
        let processed = pre.process(table);
        let degraded_columns = processed.iter().map(ProcessedTable::degraded_columns).sum();
        let failed_cells = processed.iter().map(|pt| pt.failed_cells).sum();
        let prepared = {
            let _encode = tracer.span("encode");
            prepare_tables(
                &processed,
                resources.tokenizer,
                &self.labels,
                &config,
                false,
            )
        };
        let mut labels = {
            let _classify = tracer.span("classify");
            train::predict_chunks(
                &self.model,
                &config,
                &prepared,
                request.feature_memo,
                &tracer,
            )
        };
        // Degenerate or skipped chunks must not change the output arity:
        // pad with the first label as a deterministic fallback.
        labels.resize(table.n_cols(), LabelId(0));
        AnnotateOutcome {
            labels,
            degraded_columns,
            failed_cells,
        }
    }

    /// Evaluate on a dataset split (preprocessing included).
    pub fn evaluate(
        &self,
        resources: &Resources<'_>,
        dataset: &Dataset,
        split: Split,
    ) -> EvalSummary {
        let pre = Preprocessor::new(resources.graph, resources.backend, self.config.clone())
            .with_tracer(&resources.tracer);
        let tables: Vec<ProcessedTable> = dataset
            .tables_in(split)
            .flat_map(|t| pre.process(t))
            .collect();
        let prep = prepare_tables(
            &tables,
            resources.tokenizer,
            &self.labels,
            &self.config,
            false,
        );
        train::evaluate(&self.model, &self.config, &prep)
    }

    /// Per-table predictions over preprocessed tables (for subset analyses
    /// like the paper's Table IV).
    pub fn predict_processed(
        &self,
        resources: &Resources<'_>,
        tables: &[ProcessedTable],
    ) -> Vec<Vec<LabelId>> {
        let prep = prepare_tables(
            tables,
            resources.tokenizer,
            &self.labels,
            &self.config,
            false,
        );
        prep.iter()
            .map(|p| train::predict_table(&self.model, &self.config, p))
            .collect()
    }

    /// Total trainable parameters.
    pub fn param_count(&mut self) -> usize {
        self.model.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::FeatureMemoStats;
    use kglink_datagen::{pretrain_corpus, semtab_like, SemTabConfig};
    use kglink_kg::{SyntheticWorld, WorldConfig};
    use kglink_store::DiskWorld;

    #[test]
    fn fit_annotate_evaluate_end_to_end() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(77));
        let bench = semtab_like(&world, &SemTabConfig::tiny(77));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let corpus = pretrain_corpus(&world, 2);
        let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 6000);
        let tokenizer = Tokenizer::new(vocab);
        let resources = Resources::builder()
            .graph(&disk.graph)
            .backend(&disk.backend)
            .tokenizer(&tokenizer)
            .build()
            .expect("complete resource bundle");
        let config = KgLinkConfig {
            epochs: 10,
            patience: 0,
            ..KgLinkConfig::fast_test()
        };
        let (kglink, report) = KgLink::fit(&resources, &bench.dataset, config);
        assert!(!report.epoch_loss.is_empty());
        let test_summary = kglink.evaluate(&resources, &bench.dataset, Split::Test);
        assert!(test_summary.support > 0);
        assert!(
            test_summary.accuracy > 1.0 / bench.dataset.labels.len() as f64,
            "better than random: {}",
            test_summary.accuracy
        );
        // Annotate a raw test table.
        let t = bench.dataset.tables_in(Split::Test).next().unwrap();
        let names = kglink
            .annotate_request(&resources, req(t))
            .names(&kglink.labels);
        assert_eq!(names.len(), t.n_cols());
    }

    #[test]
    fn resources_builder_validates_the_bundle() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(80));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let tokenizer = Tokenizer::new(Vocab::build(["hello world"], 1, 100));

        match Resources::builder()
            .backend(&disk.backend)
            .tokenizer(&tokenizer)
            .build()
        {
            Err(KgLinkError::MissingResource { what }) => assert_eq!(what, "knowledge graph"),
            other => panic!("expected MissingResource, got {:?}", other.is_ok()),
        }
        match Resources::builder()
            .graph(&disk.graph)
            .tokenizer(&tokenizer)
            .build()
        {
            Err(KgLinkError::MissingResource { what }) => assert_eq!(what, "retrieval backend"),
            other => panic!("expected MissingResource, got {:?}", other.is_ok()),
        }
        match Resources::builder()
            .graph(&disk.graph)
            .backend(&disk.backend)
            .build()
        {
            Err(KgLinkError::MissingResource { what }) => assert_eq!(what, "tokenizer"),
            other => panic!("expected MissingResource, got {:?}", other.is_ok()),
        }
        let empty_tok = Tokenizer::new(Vocab::build(std::iter::empty::<&str>(), 1, 100));
        if !empty_tok.vocab.is_empty() {
            // Special tokens may keep the vocab non-empty; skip the check.
            return;
        }
        assert!(matches!(
            Resources::builder()
                .graph(&disk.graph)
                .backend(&disk.backend)
                .tokenizer(&empty_tok)
                .build(),
            Err(KgLinkError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn annotate_outcome_reports_degradation_under_tight_deadlines() {
        use kglink_search::{FaultConfig, FaultyBackend};

        let world = SyntheticWorld::generate(&WorldConfig::tiny(79));
        let bench = semtab_like(&world, &SemTabConfig::tiny(79));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let corpus = pretrain_corpus(&world, 2);
        let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 6000);
        let tokenizer = Tokenizer::new(vocab);
        let resources = Resources::builder()
            .graph(&disk.graph)
            .backend(&disk.backend)
            .tokenizer(&tokenizer)
            .build()
            .expect("complete resource bundle");
        let (kglink, _) = KgLink::fit(&resources, &bench.dataset, KgLinkConfig::fast_test());
        let t = bench.dataset.tables_in(Split::Test).next().unwrap();

        // Unbounded deadline over a healthy backend: nothing degrades, and
        // the default request deadline is unbounded.
        let clean = kglink.annotate_request(&resources, req(t).deadline(Deadline::UNBOUNDED));
        assert_eq!(
            clean.labels,
            kglink.annotate_request(&resources, req(t)).labels
        );
        assert_eq!(clean.labels.len(), t.n_cols());
        assert_eq!(clean.degraded_columns, 0);
        assert_eq!(clean.failed_cells, 0);

        // A zero budget over a latency-injecting backend times out every
        // retrieval: the outcome keeps its arity and reports degradation.
        let slow = FaultyBackend::new(&disk.backend, FaultConfig::healthy(79));
        let slow_resources = Resources::builder()
            .graph(&disk.graph)
            .backend(&slow)
            .tokenizer(&tokenizer)
            .build()
            .expect("complete resource bundle");
        let expired =
            kglink.annotate_request(&slow_resources, req(t).deadline(Deadline::from_us(0)));
        assert_eq!(expired.labels.len(), t.n_cols());
        assert!(expired.failed_cells > 0, "every retrieval must time out");
        assert!(expired.degraded_columns > 0);
        assert_eq!(
            expired,
            kglink.annotate_request(&slow_resources, req(t).deadline(Deadline::from_us(0))),
            "degraded annotation is deterministic"
        );
    }

    /// A 20-column table is three chunks at `max_columns = 8`, and one
    /// forward serves all of them: cold and warm through a memo, its labels
    /// are the per-chunk `predict_table` labels one after another. Without
    /// feature vectors the memo is never consulted.
    #[test]
    fn one_forward_per_request_matches_per_chunk_prediction() {
        use kglink_table::TableId;

        let world = SyntheticWorld::generate(&WorldConfig::tiny(81));
        let bench = semtab_like(&world, &SemTabConfig::tiny(81));
        let disk = DiskWorld::from_graph(&world.graph).unwrap();
        let corpus = pretrain_corpus(&world, 2);
        let vocab = build_vocab(corpus.iter().map(String::as_str), &[&bench.dataset], 6000);
        let tokenizer = Tokenizer::new(vocab);
        let resources = Resources::builder()
            .graph(&disk.graph)
            .backend(&disk.backend)
            .tokenizer(&tokenizer)
            .build()
            .expect("complete resource bundle");
        let (mut kglink, _) = KgLink::fit(&resources, &bench.dataset, KgLinkConfig::fast_test());
        let (columns, labels): (Vec<_>, Vec<_>) = bench
            .dataset
            .tables
            .iter()
            .flat_map(|t| t.columns.iter().cloned().zip(t.labels.iter().copied()))
            .take(20)
            .unzip();
        let table = Table::new(TableId(9_999), Vec::new(), columns, labels);
        assert_eq!(table.n_cols(), 20);

        let per_chunk = |kglink: &KgLink| -> Vec<LabelId> {
            let pre = Preprocessor::new(&disk.graph, &disk.backend, kglink.config.clone());
            let processed = pre.process(&table);
            assert_eq!(processed.len(), 3);
            kglink
                .predict_processed(&resources, &processed)
                .into_iter()
                .flatten()
                .collect()
        };
        let expected = per_chunk(&kglink);
        let memo = FeatureMemo::new();
        let cold = kglink.annotate_request(&resources, req(&table).feature_memo(&memo));
        assert_eq!(cold.labels, expected);
        let after_cold = memo.stats();
        assert!(
            after_cold.misses > 0,
            "the table has feature rows: {after_cold:?}"
        );
        assert_eq!(after_cold.hits, 0);
        let warm = kglink.annotate_request(&resources, req(&table).feature_memo(&memo));
        assert_eq!(warm.labels, expected);
        let after_warm = memo.stats();
        assert_eq!(
            after_warm.misses, after_cold.misses,
            "a warm request misses nothing"
        );
        assert_eq!(after_warm.hits, after_cold.misses);

        kglink.config.use_feature_vector = false;
        let memo = FeatureMemo::new();
        let plain = kglink.annotate_request(&resources, req(&table).feature_memo(&memo));
        assert_eq!(plain.labels, per_chunk(&kglink));
        assert_eq!(memo.stats(), FeatureMemoStats::default());
    }

    #[test]
    fn build_vocab_includes_labels_and_cells() {
        let world = SyntheticWorld::generate(&WorldConfig::tiny(78));
        let bench = semtab_like(&world, &SemTabConfig::tiny(78));
        let vocab = build_vocab(["hello world"], &[&bench.dataset], 6000);
        let tok = Tokenizer::new(vocab);
        // Label names tokenize to known ids.
        let (_, name) = bench.dataset.labels.iter().next().unwrap();
        let ids = tok.encode_text(name);
        assert!(ids.iter().any(|&i| i != kglink_nn::special::UNK));
    }
}

//! KGLink configuration: paper hyper-parameters plus ablation switches.

use kglink_nn::{AdamWConfig, EncoderConfig};
use serde::{Deserialize, Serialize};

/// How the top-k rows fed to the PLM are chosen (paper Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RowFilter {
    /// KGLink's filter: rows sorted by descending row linking score (Eq. 5).
    #[default]
    LinkScore,
    /// Baseline: the table's first k rows in original order.
    Original,
}

/// Which encoder size Part 2 uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EncoderSize {
    /// The shared "MiniLM" (BERT stand-in) used by all compared methods.
    #[default]
    Mini,
    /// A larger encoder (DeBERTa's role in the Table II ablation).
    Large,
}

/// Full pipeline configuration.
///
/// Defaults follow the paper's experimental settings, scaled to this
/// reproduction: the paper retrieves up to 10 entities per mention,
/// generates up to 3 candidate types, keeps k = 25 rows, limits columns to
/// 8 and column tokens to 64 (we keep the same entity/type counts and scale
/// the token budgets to the MiniLM's context).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KgLinkConfig {
    // ---- Part 1: KG stage --------------------------------------------
    /// Maximum entities retrieved from the KG per cell mention (paper: 10).
    pub max_entities_per_mention: usize,
    /// Maximum candidate types kept per column (paper: 3).
    pub max_candidate_types: usize,
    /// Top-k row filter size (paper: 25; Figure 10 sweeps {10, 25, 50, all}).
    pub top_k_rows: usize,
    /// Row filter mechanism (Table V).
    pub row_filter: RowFilter,
    /// Maximum columns per table before splitting (paper: 8).
    pub max_columns: usize,
    /// Per-query KG retrieval budget in microseconds, the caller's
    /// [`Deadline`](kglink_search::Deadline) (`u64::MAX` = unbounded). A
    /// query its backend cannot answer within it fails and degrades its
    /// column to the no-linkage path.
    pub retrieval_deadline_us: u64,

    // ---- Part 2: serialization + model --------------------------------
    /// Token budget per column in the serialized table (paper: 64).
    pub tokens_per_column: usize,
    /// Token budget for each feature sequence.
    pub feature_seq_tokens: usize,
    /// Encoder size.
    pub encoder: EncoderSize,
    /// DMLM temperature `T` (paper: 2, following Hinton et al.).
    pub temperature: f32,
    /// Train-time dropout on the encoder's output states (paper: 0.1 on
    /// SemTab, 0.2 on VizNet).
    pub dropout: f32,

    // ---- Ablation switches (paper Table II) ----------------------------
    /// Enable the column-type representation generation sub-task
    /// (`KGLink w/o msk` disables this).
    pub use_mask_task: bool,
    /// Prepend KG candidate types to each column
    /// (`KGLink w/o ct` disables this *and* the feature vector).
    pub use_candidate_types: bool,
    /// Compose the KG feature vector into the column representation
    /// (`KGLink w/o fv` disables this).
    pub use_feature_vector: bool,

    // ---- Training -------------------------------------------------------
    /// Training epochs (the paper uses 50 on SemTab, 20 on VizNet; scaled).
    pub epochs: usize,
    /// Gradient-accumulation batch size in tables (paper: 16).
    pub batch_size: usize,
    /// Early-stopping patience in epochs (0 disables).
    pub patience: usize,
    /// Optimizer settings (paper: AdamW, lr 3e-5, eps 1e-6, linear decay).
    /// The scaled-down model trains from a higher LR.
    pub optimizer: AdamWConfig,
    /// Initial `log σ²` values of the uncertainty weights; `None` trains
    /// them from 0, `Some` pins them (Figure 8(a) sensitivity sweep).
    pub fixed_log_sigmas: Option<(f32, f32)>,
    /// RNG seed for training-time shuffling and masking.
    pub seed: u64,
}

impl Default for KgLinkConfig {
    fn default() -> Self {
        KgLinkConfig {
            max_entities_per_mention: 10,
            max_candidate_types: 3,
            top_k_rows: 25,
            row_filter: RowFilter::LinkScore,
            max_columns: 8,
            retrieval_deadline_us: u64::MAX,
            tokens_per_column: 18,
            feature_seq_tokens: 24,
            encoder: EncoderSize::Mini,
            temperature: 2.0,
            dropout: 0.1,
            use_mask_task: true,
            use_candidate_types: true,
            use_feature_vector: true,
            epochs: 6,
            batch_size: 16,
            patience: 2,
            optimizer: AdamWConfig {
                lr: 4e-4,
                ..Default::default()
            },
            fixed_log_sigmas: None,
            seed: 1234,
        }
    }
}

impl KgLinkConfig {
    /// A fast configuration for tests.
    pub fn fast_test() -> Self {
        KgLinkConfig {
            epochs: 2,
            top_k_rows: 6,
            tokens_per_column: 10,
            feature_seq_tokens: 12,
            patience: 0,
            ..Default::default()
        }
    }

    /// Resolve the encoder architecture for a vocabulary size.
    pub fn encoder_config(&self, vocab_size: usize) -> EncoderConfig {
        match self.encoder {
            EncoderSize::Mini => EncoderConfig::mini(vocab_size),
            EncoderSize::Large => EncoderConfig::large(vocab_size),
        }
    }

    /// The `KGLink w/o msk` ablation.
    pub fn without_mask_task(mut self) -> Self {
        self.use_mask_task = false;
        self
    }

    /// The `KGLink w/o ct` ablation (drops *all* KG information).
    pub fn without_kg(mut self) -> Self {
        self.use_candidate_types = false;
        self.use_feature_vector = false;
        self
    }

    /// The `KGLink w/o fv` ablation.
    pub fn without_feature_vector(mut self) -> Self {
        self.use_feature_vector = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = KgLinkConfig::default();
        assert_eq!(c.max_entities_per_mention, 10);
        assert_eq!(c.max_candidate_types, 3);
        assert_eq!(c.top_k_rows, 25);
        assert_eq!(c.max_columns, 8);
        assert_eq!(c.temperature, 2.0);
        assert!(c.use_mask_task && c.use_candidate_types && c.use_feature_vector);
    }

    #[test]
    fn ablation_builders() {
        let c = KgLinkConfig::default().without_mask_task();
        assert!(!c.use_mask_task);
        let c = KgLinkConfig::default().without_kg();
        assert!(!c.use_candidate_types && !c.use_feature_vector);
        let c = KgLinkConfig::default().without_feature_vector();
        assert!(c.use_candidate_types && !c.use_feature_vector);
    }

    #[test]
    fn encoder_config_resolution() {
        let mut c = KgLinkConfig::default();
        let mini = c.encoder_config(100);
        c.encoder = EncoderSize::Large;
        let large = c.encoder_config(100);
        assert!(large.d_model > mini.d_model || large.n_layers > mini.n_layers);
    }
}

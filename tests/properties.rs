//! Property-based tests over the core invariants (proptest).

use kglink::core::config::RowFilter;
use kglink::core::filter::prune_and_filter;
use kglink::core::linking::LinkedTable;
use kglink::nn::kernels::{gelu, gelu_grad, gemm, softmax, with_thread_scratch, Trans};
use kglink::nn::{cross_entropy, dmlm_loss, Tensor};
use kglink::search::{tokenize, Bm25Params, InvertedIndex};
use kglink::table::{CellValue, EvalSummary, LabelId, Table, TableId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- tokenizer / BM25 -------------------------------------------------

    #[test]
    fn tokenize_outputs_lowercase_alphanumeric(s in ".{0,60}") {
        for tok in tokenize(&s) {
            prop_assert!(!tok.is_empty());
            prop_assert!(tok.chars().all(|c| c.is_alphanumeric()));
            // Lowercased as far as Unicode allows: any remaining uppercase
            // char (e.g. '🄰') must have no distinct lowercase mapping.
            for c in tok.chars() {
                if c.is_uppercase() {
                    prop_assert!(c.to_lowercase().eq(std::iter::once(c)));
                }
            }
        }
    }

    #[test]
    fn bm25_idf_positive_and_monotone(n in 1usize..10_000, df in 0usize..10_000) {
        let df = df.min(n);
        let idf = Bm25Params::idf(n, df);
        prop_assert!(idf > 0.0);
        if df < n {
            prop_assert!(Bm25Params::idf(n, df + 1) <= idf + 1e-6);
        }
    }

    #[test]
    fn bm25_scores_are_finite_and_nonnegative(
        docs in proptest::collection::vec("[a-z]{1,8}( [a-z]{1,8}){0,4}", 1..20),
        query in "[a-z]{1,8}( [a-z]{1,8}){0,2}",
        k in 1usize..10,
    ) {
        let mut idx = InvertedIndex::new(Bm25Params::default());
        for (i, d) in docs.iter().enumerate() {
            idx.add_document(i as u32, d);
        }
        idx.finish();
        let hits = idx.search(&query, k);
        prop_assert!(hits.len() <= k);
        for h in &hits {
            prop_assert!(h.score.is_finite());
            prop_assert!(h.score > 0.0);
        }
        // Sorted descending.
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    // ---- numeric kernels ---------------------------------------------------

    #[test]
    fn softmax_is_a_distribution(xs in proptest::collection::vec(-30.0f32..30.0, 1..12)) {
        let p = softmax(&xs);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
    }

    #[test]
    fn cross_entropy_is_nonnegative_with_zero_sum_gradient(
        xs in proptest::collection::vec(-10.0f32..10.0, 2..8),
        target_raw in 0usize..8,
    ) {
        let target = target_raw % xs.len();
        let (loss, grad) = cross_entropy(&xs, target);
        prop_assert!(loss >= -1e-5);
        prop_assert!(grad.iter().sum::<f32>().abs() < 1e-4);
    }

    #[test]
    fn dmlm_gradient_vanishes_iff_distributions_match(
        xs in proptest::collection::vec(-5.0f32..5.0, 2..6),
    ) {
        let (_, grad) = dmlm_loss(&xs, &xs, 2.0);
        prop_assert!(grad.iter().all(|g| g.abs() < 1e-5));
    }

    #[test]
    fn gelu_grad_matches_finite_difference(x in -4.0f32..4.0) {
        let eps = 1e-3;
        let num = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
        prop_assert!((num - gelu_grad(x)).abs() < 5e-3);
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in proptest::collection::vec(-2.0f32..2.0, 6),
        b in proptest::collection::vec(-2.0f32..2.0, 6),
        c in proptest::collection::vec(-2.0f32..2.0, 6),
    ) {
        let a = Tensor::from_vec(2, 3, a);
        let b = Tensor::from_vec(3, 2, b);
        let c = Tensor::from_vec(3, 2, c);
        let matmul = |x: &Tensor, y: &Tensor| {
            let mut out = Tensor::zeros(x.rows(), y.cols());
            with_thread_scratch(|s| {
                gemm(x.as_mat(), y.as_mat(), Trans::No, Trans::No, &mut out.as_mat_mut(), s)
            });
            out
        };
        let left = matmul(&a, &b.add(&c));
        let right = matmul(&a, &b).add(&matmul(&a, &c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    // ---- metrics ------------------------------------------------------------

    #[test]
    fn accuracy_and_f1_are_bounded(
        pairs in proptest::collection::vec((0u32..5, 0u32..5), 1..40),
    ) {
        let preds: Vec<LabelId> = pairs.iter().map(|&(p, _)| LabelId(p)).collect();
        let truths: Vec<LabelId> = pairs.iter().map(|&(_, t)| LabelId(t)).collect();
        let s = EvalSummary::compute(&preds, &truths);
        prop_assert!((0.0..=1.0).contains(&s.accuracy));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&s.weighted_f1));
        prop_assert!(s.weighted_f1 <= s.accuracy + 1e-9 || s.weighted_f1 <= 1.0);
        // Perfect predictions give both = 1.
        let s2 = EvalSummary::compute(&truths, &truths);
        prop_assert!((s2.accuracy - 1.0).abs() < 1e-9);
        prop_assert!((s2.weighted_f1 - 1.0).abs() < 1e-9);
    }

    // ---- cell parsing ---------------------------------------------------------

    #[test]
    fn cell_parse_never_panics_and_classifies(s in ".{0,30}") {
        let cell = CellValue::parse(&s);
        let _ = cell.mention_kind();
        let _ = cell.surface();
        if s.trim().is_empty() {
            prop_assert_eq!(cell, CellValue::Empty);
        }
    }

    #[test]
    fn numbers_round_trip_through_parse(n in -1_000_000i64..1_000_000) {
        let cell = CellValue::parse(&n.to_string());
        match cell {
            CellValue::Number(v) => prop_assert_eq!(v as i64, n),
            CellValue::Date(_) => prop_assert!((1000..2400).contains(&n)),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    // ---- row filter ---------------------------------------------------------

    #[test]
    fn row_filter_never_exceeds_k(
        rows in proptest::collection::vec("[a-z]{2,8}", 1..15),
        k in 1usize..20,
    ) {
        let table = Table::new(
            TableId(0),
            vec![],
            vec![rows.iter().map(|s| CellValue::parse(s)).collect()],
            vec![LabelId(0)],
        );
        let world = kglink::store::DiskWorld::from_graph(&kglink::kg::KnowledgeGraph::new()).unwrap();
        let linked = LinkedTable::link(&table, &world.backend, 5);
        let filtered = prune_and_filter(&table, &linked, &world.graph, k, RowFilter::LinkScore);
        prop_assert!(filtered.table.n_rows() <= k.max(1));
        prop_assert!(filtered.table.n_rows() <= table.n_rows());
        prop_assert_eq!(filtered.row_order.len(), filtered.table.n_rows());
        // Row scores are sorted descending under the link-score filter.
        for w in filtered.row_scores.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }
}

//! Property tests over the `KGCK` checkpoint format: arbitrary models
//! round-trip bit-exactly (values, AdamW moments, optimizer counter, RNG
//! state, opaque loop state), and arbitrary damage to the encoded bytes is
//! always reported as a typed error, never a panic or a silent
//! misinterpretation.

use kglink_nn::checkpoint::{
    load_train_state, save_train_state, CheckpointError, TrainCheckpoint, VERSION,
};
use kglink_nn::frame::crc32;
use kglink_nn::layers::param::HasParams;
use kglink_nn::{AdamW, AdamWConfig, Param, Tensor};
use proptest::prelude::*;

/// A free-form parameter bag: lets properties exercise arbitrary shape
/// sequences instead of only the fixed encoder architecture.
struct Bag {
    params: Vec<Param>,
}

impl HasParams for Bag {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in &mut self.params {
            f(p);
        }
    }
}

/// splitmix64: deterministic f32 fill derived from (seed, counter).
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fill(seed: u64, salt: u64, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let raw = mix(seed, salt.wrapping_mul(1_000_003).wrapping_add(i as u64));
            ((raw >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}

/// Build a bag whose values *and* moment buffers are all non-trivial, so
/// the round trip genuinely checks every section of the blob.
fn bag(shapes: &[(usize, usize)], seed: u64) -> Bag {
    let params = shapes
        .iter()
        .enumerate()
        .map(|(i, &(rows, cols))| {
            let salt = i as u64;
            let mut p = if i % 2 == 0 {
                Param::new(Tensor::from_vec(rows, cols, fill(seed, salt * 3, rows * cols)))
            } else {
                Param::new_no_decay(Tensor::from_vec(
                    rows,
                    cols,
                    fill(seed, salt * 3, rows * cols),
                ))
            };
            p.m = Tensor::from_vec(rows, cols, fill(seed, salt * 3 + 1, rows * cols));
            p.v = Tensor::from_vec(rows, cols, fill(seed, salt * 3 + 2, rows * cols));
            p
        })
        .collect();
    Bag { params }
}

fn snapshot(bag: &mut Bag) -> Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> {
    let mut out = Vec::new();
    bag.visit_params(&mut |p| {
        out.push((
            p.value.data().to_vec(),
            p.m.data().to_vec(),
            p.v.data().to_vec(),
        ))
    });
    out
}

/// The `KGCK` bytes, built by hand from the documented layout: a codec
/// change that moves one byte of an existing format fails here.
#[test]
fn kgck_bytes_are_the_documented_layout() {
    let mut p = Param::new_no_decay(Tensor::from_vec(1, 2, vec![1.0, -2.0]));
    p.m = Tensor::from_vec(1, 2, vec![0.5, 0.25]);
    p.v = Tensor::from_vec(1, 2, vec![4.0, 8.0]);
    let mut model = Bag { params: vec![p] };
    let encoded = TrainCheckpoint::capture(&mut model, 3, 0xfeed, 1, 9, vec![7, 7]).encode();

    let f32s = |xs: &[f32]| xs.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
    let mut state = b"KGLT".to_vec();
    state.extend(1u32.to_le_bytes()); // one parameter
    state.extend(1u32.to_le_bytes()); // rows
    state.extend(2u32.to_le_bytes()); // cols
    state.push(0); // no weight decay
    state.extend(f32s(&[1.0, -2.0, 0.5, 0.25, 4.0, 8.0])); // value | m | v
    let mut payload = Vec::new();
    for cursor in [3u64, 0xfeed, 1, 9] {
        payload.extend(cursor.to_le_bytes());
    }
    payload.extend(2u32.to_le_bytes());
    payload.extend([7, 7]);
    payload.extend((state.len() as u32).to_le_bytes());
    payload.extend(&state);
    let mut expected = b"KGCK".to_vec();
    expected.extend(VERSION.to_le_bytes());
    expected.extend(crc32(&payload).to_le_bytes());
    expected.extend((payload.len() as u64).to_le_bytes());
    expected.extend(&payload);
    assert_eq!(&encoded[..], &expected[..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn checkpoint_round_trips_arbitrary_models_bit_exactly(
        shapes in proptest::collection::vec((1usize..5, 1usize..7), 1..6),
        seed in 0u64..1_000_000,
        opt_step in 0u64..100_000,
        rng_state in 0u64..u64::MAX,
        epoch in 0u64..1_000,
        step in 0u64..1_000_000,
        extra in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut original = bag(&shapes, seed);
        let ckpt = TrainCheckpoint::capture(
            &mut original, opt_step, rng_state, epoch, step, extra.clone(),
        );
        let decoded = TrainCheckpoint::decode(&ckpt.encode()).expect("clean blob decodes");
        // Cursor and opaque sections survive verbatim.
        prop_assert_eq!(decoded.opt_step, opt_step);
        prop_assert_eq!(decoded.rng_state, rng_state);
        prop_assert_eq!(decoded.epoch, epoch);
        prop_assert_eq!(decoded.step, step);
        prop_assert_eq!(&decoded.extra, &extra);
        // Restoring into a differently-initialized bag of the same shapes
        // reproduces values and both moment buffers bit-for-bit.
        let mut restored = bag(&shapes, seed ^ 0xffff);
        decoded.restore(&mut restored).expect("same architecture");
        prop_assert_eq!(snapshot(&mut restored), snapshot(&mut original));
    }

    #[test]
    fn optimizer_state_survives_the_round_trip(
        shapes in proptest::collection::vec((1usize..4, 1usize..5), 1..4),
        seed in 0u64..1_000_000,
        steps in 1usize..8,
    ) {
        // Drive real AdamW steps so the moments are optimizer-produced,
        // not synthetic (a negative synthetic `v` would NaN the update):
        // start from zero moments like a fresh model and let AdamW fill them.
        let mut live = bag(&shapes, seed);
        live.visit_params(&mut |p| {
            p.m.fill_zero();
            p.v.fill_zero();
        });
        let mut opt = AdamW::new(AdamWConfig::default(), None);
        for s in 0..steps {
            live.visit_params(&mut |p| {
                let g = fill(seed ^ 0xabcd, s as u64, p.numel());
                p.grad.data_mut().copy_from_slice(&g);
            });
            opt.step(&mut live);
        }
        let ckpt = TrainCheckpoint::capture(
            &mut live, opt.steps() as u64, 0, 0, steps as u64, Vec::new(),
        );
        let mut resumed = bag(&shapes, seed ^ 0x1234);
        let decoded = TrainCheckpoint::decode(&ckpt.encode()).unwrap();
        decoded.restore(&mut resumed).unwrap();
        let mut opt2 = AdamW::new(AdamWConfig::default(), None);
        opt2.set_steps(decoded.opt_step as usize);
        prop_assert_eq!(opt2.steps(), opt.steps());
        // One more identical step on both must stay bit-identical: the
        // moments and bias-correction state fully transferred.
        for (o, b) in [(&mut opt, &mut live), (&mut opt2, &mut resumed)] {
            b.visit_params(&mut |p| {
                let g = fill(seed ^ 0xabcd, steps as u64, p.numel());
                p.grad.data_mut().copy_from_slice(&g);
            });
            o.step(b);
        }
        prop_assert_eq!(snapshot(&mut resumed), snapshot(&mut live));
    }

    #[test]
    fn any_truncation_is_reported_as_truncated(
        shapes in proptest::collection::vec((1usize..4, 1usize..5), 1..4),
        seed in 0u64..1_000_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let mut m = bag(&shapes, seed);
        let blob = TrainCheckpoint::capture(&mut m, 1, 2, 3, 4, vec![5]).encode();
        let cut = ((blob.len() as f64) * cut_frac) as usize; // always < len
        prop_assert_eq!(
            TrainCheckpoint::decode(&blob[..cut]),
            Err(CheckpointError::Truncated)
        );
    }

    #[test]
    fn any_payload_bit_flip_is_caught_by_the_crc(
        shapes in proptest::collection::vec((1usize..4, 1usize..5), 1..4),
        seed in 0u64..1_000_000,
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut m = bag(&shapes, seed);
        let blob = TrainCheckpoint::capture(&mut m, 1, 2, 3, 4, vec![5, 6]).encode();
        let mut bad = blob.to_vec();
        // Corrupt strictly inside the CRC-protected payload (header is 20
        // bytes: magic, version, crc, length).
        let payload_len = bad.len() - 20;
        let idx = 20 + ((payload_len as f64) * byte_frac) as usize;
        bad[idx] ^= 1 << bit;
        prop_assert!(matches!(
            TrainCheckpoint::decode(&bad),
            Err(CheckpointError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn foreign_versions_are_rejected_before_the_crc(version_raw in 0u32..1_000_000) {
        // Remap the one in-range collision instead of discarding the case.
        let version = if version_raw == VERSION { 0 } else { version_raw };
        let mut m = bag(&[(2, 2)], 7);
        let mut bad = TrainCheckpoint::capture(&mut m, 1, 2, 3, 4, Vec::new())
            .encode()
            .to_vec();
        bad[4..8].copy_from_slice(&version.to_le_bytes());
        // Also clobber the CRC: the version check must win, proving layout
        // mismatches are diagnosed as such rather than as corruption.
        bad[8] ^= 0xff;
        prop_assert_eq!(
            TrainCheckpoint::decode(&bad),
            Err(CheckpointError::WrongVersion { found: version, expected: VERSION })
        );
    }

    #[test]
    fn train_state_blob_rejects_foreign_shapes_typed(
        rows in 1usize..5,
        cols in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut src = bag(&[(rows, cols)], seed);
        let blob = save_train_state(&mut src);
        // Same parameter count, different shape.
        let mut other = bag(&[(rows + 1, cols)], seed);
        prop_assert!(load_train_state(&mut other, &blob).is_err());
        // Different parameter count.
        let mut more = bag(&[(rows, cols), (1, 1)], seed);
        prop_assert!(load_train_state(&mut more, &blob).is_err());
        // And the matching architecture still loads.
        let mut same = bag(&[(rows, cols)], seed ^ 1);
        prop_assert!(load_train_state(&mut same, &blob).is_ok());
    }

    #[test]
    fn crc32_distinguishes_single_bit_flips(
        data in proptest::collection::vec(0u8..=255, 1..128),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let base = crc32(&data);
        let mut flipped = data.clone();
        let idx = ((data.len() as f64) * byte_frac) as usize;
        flipped[idx] ^= 1 << bit;
        prop_assert_ne!(crc32(&flipped), base);
    }
}

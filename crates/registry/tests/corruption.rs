//! Satellite: every damaged registry artifact is a *typed* error at
//! prepare (load) time — never a panic, never promotable, and
//! quarantinable. The damage families mirror what a torn disk, a bad
//! copy, or a future code generation can actually produce:
//!
//! - truncated manifest / truncated weights
//! - bit-flipped weights (every stride-sampled byte position)
//! - a manifest transplanted from a foreign version directory
//! - a foreign format generation in the manifest framing
//! - NaN-poisoned weights (decode cleanly, rejected by the finite scan)
//! - a torn publish (weights present, manifest never committed)

use kglink_core::pipeline::KgLink;
use kglink_core::{KgLinkConfig, KgLinkModel};
use kglink_nn::checkpoint::save_train_state;
use kglink_registry::{Artifact, ModelRegistry, RegistryError};
use kglink_table::LabelVocab;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const VOCAB: usize = 64;

fn tiny_model(seed: u64) -> KgLink {
    let mut labels = LabelVocab::new();
    for name in ["person", "place", "organization", "date"] {
        labels.intern(name);
    }
    let config = KgLinkConfig {
        seed,
        ..KgLinkConfig::fast_test()
    };
    let model = KgLinkModel::new(&config, VOCAB, labels.len());
    KgLink {
        config,
        model,
        labels,
    }
}

fn fresh_registry(tag: &str) -> (ModelRegistry, PathBuf) {
    let root = std::env::temp_dir().join(format!(
        "kglink-registry-corruption-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    let reg = ModelRegistry::open(&root).expect("open registry");
    (reg, root)
}

fn weights_path(root: &Path, version: u64) -> PathBuf {
    root.join("versions")
        .join(format!("v{version:06}"))
        .join("weights.kgck")
}

fn manifest_path(root: &Path, version: u64) -> PathBuf {
    root.join("versions")
        .join(format!("v{version:06}"))
        .join("manifest.kgmf")
}

/// Loading must yield `Err`, not unwind. Returns the error for matching.
fn load_is_typed(reg: &ModelRegistry, version: u64) -> RegistryError {
    let result = catch_unwind(AssertUnwindSafe(|| reg.load(version)));
    match result {
        Ok(Ok(_)) => panic!("damaged version {version} loaded successfully"),
        Ok(Err(e)) => e,
        Err(_) => panic!("loading damaged version {version} panicked"),
    }
}

#[test]
fn clean_publish_round_trips_bit_exactly() {
    let (reg, root) = fresh_registry("roundtrip");
    let mut model = tiny_model(7);
    let before = save_train_state(&mut model.model);
    let published = reg.publish(&mut model, VOCAB, "baseline").expect("publish");
    assert_eq!(published.version, 1);
    assert_eq!(reg.list(), vec![1]);

    let mut loaded = reg.load(1).expect("load");
    assert_eq!(loaded.version, 1);
    assert_eq!(loaded.tag, "baseline");
    assert_eq!(loaded.vocab_size, VOCAB);
    assert_eq!(loaded.model.labels.len(), model.labels.len());
    let after = save_train_state(&mut loaded.model.model);
    assert_eq!(&before[..], &after[..], "weights round trip bit-exactly");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn truncated_manifest_is_typed_and_quarantinable() {
    let (reg, root) = fresh_registry("trunc-manifest");
    reg.publish(&mut tiny_model(1), VOCAB, "m")
        .expect("publish");
    let path = manifest_path(&root, 1);
    let full = fs::read(&path).expect("read manifest");
    // Every proper prefix must fail with a typed error, never a panic.
    for cut in [0, 3, 4, 7, 8, 11, 12, 19, full.len() / 2, full.len() - 1] {
        fs::write(&path, &full[..cut]).expect("truncate");
        let err = load_is_typed(&reg, 1);
        assert!(
            matches!(
                err,
                RegistryError::Truncated {
                    artifact: Artifact::Manifest,
                    ..
                } | RegistryError::BadMagic {
                    artifact: Artifact::Manifest,
                    ..
                }
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
    // Quarantine moves it out of the version namespace entirely.
    let err = match reg.load_or_quarantine(1) {
        Ok(_) => panic!("damaged version loaded"),
        Err(e) => e,
    };
    assert!(err.is_corruption());
    assert_eq!(
        reg.list(),
        Vec::<u64>::new(),
        "quarantined ⇒ not promotable"
    );
    assert!(!manifest_path(&root, 1).exists());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn bit_flipped_weights_are_always_caught() {
    let (reg, root) = fresh_registry("bitflip");
    reg.publish(&mut tiny_model(2), VOCAB, "m")
        .expect("publish");
    let path = weights_path(&root, 1);
    let clean = fs::read(&path).expect("read weights");
    // Stride-sample byte positions across the whole artifact (header,
    // metadata, weight payload) and flip one bit at each.
    let stride = (clean.len() / 97).max(1);
    for pos in (0..clean.len()).step_by(stride) {
        let mut damaged = clean.clone();
        damaged[pos] ^= 0x10;
        fs::write(&path, &damaged).expect("write damaged");
        let err = load_is_typed(&reg, 1);
        assert!(
            err.is_corruption(),
            "flip at {pos}: expected corruption-class error, got {err:?}"
        );
    }
    // Restore and verify the registry itself was never damaged.
    fs::write(&path, &clean).expect("restore");
    reg.load(1).expect("clean weights load again");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn truncated_weights_are_typed() {
    let (reg, root) = fresh_registry("trunc-weights");
    reg.publish(&mut tiny_model(3), VOCAB, "m")
        .expect("publish");
    let path = weights_path(&root, 1);
    let full = fs::read(&path).expect("read weights");
    fs::write(&path, &full[..full.len() / 2]).expect("truncate");
    assert!(matches!(
        load_is_typed(&reg, 1),
        RegistryError::Truncated {
            artifact: Artifact::Weights,
            ..
        }
    ));
    fs::remove_file(&path).expect("remove weights");
    assert!(matches!(
        load_is_typed(&reg, 1),
        RegistryError::Malformed {
            artifact: Artifact::Weights,
            ..
        }
    ));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn transplanted_manifest_is_rejected() {
    let (reg, root) = fresh_registry("transplant");
    reg.publish(&mut tiny_model(4), VOCAB, "a")
        .expect("publish v1");
    reg.publish(&mut tiny_model(5), VOCAB, "b")
        .expect("publish v2");
    // Copy v2's manifest over v1's: framing and CRC are valid, but the
    // manifest vouches for a different version's weights.
    let v2_manifest = fs::read(manifest_path(&root, 2)).expect("read v2 manifest");
    fs::write(manifest_path(&root, 1), &v2_manifest).expect("transplant");
    assert!(matches!(
        load_is_typed(&reg, 1),
        RegistryError::Malformed {
            artifact: Artifact::Manifest,
            ..
        }
    ));
    // v2 itself is untouched.
    reg.load(2).expect("v2 still loads");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn foreign_format_generation_is_typed() {
    let (reg, root) = fresh_registry("foreign");
    reg.publish(&mut tiny_model(6), VOCAB, "m")
        .expect("publish");
    let path = manifest_path(&root, 1);
    let mut bytes = fs::read(&path).expect("read manifest");
    // The u32 after the 4-byte magic is the format generation.
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    fs::write(&path, &bytes).expect("write foreign");
    match load_is_typed(&reg, 1) {
        RegistryError::ForeignFormat {
            artifact: Artifact::Manifest,
            found: 99,
            expected,
            ..
        } => assert_eq!(expected, kglink_registry::FORMAT_VERSION),
        other => panic!("expected ForeignFormat, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn nan_poisoned_weights_never_load() {
    let (reg, root) = fresh_registry("nan");
    let mut poisoned = tiny_model(8);
    let mut first = true;
    use kglink_nn::layers::param::HasParams;
    poisoned.model.visit_params(&mut |p| {
        if first {
            p.value.data_mut()[0] = f32::NAN;
            first = false;
        }
    });
    reg.publish(&mut poisoned, VOCAB, "poisoned")
        .expect("publish succeeds");
    match load_is_typed(&reg, 1) {
        RegistryError::NonFiniteWeights { bad_values, .. } => assert_eq!(bad_values, 1),
        other => panic!("expected NonFiniteWeights, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn torn_publish_is_invisible_and_id_is_burned() {
    let (reg, root) = fresh_registry("torn");
    reg.publish(&mut tiny_model(9), VOCAB, "m")
        .expect("publish v1");
    // Simulate a crash between the weights write and the manifest commit.
    fs::remove_file(manifest_path(&root, 1)).expect("tear the commit");
    assert_eq!(reg.list(), Vec::<u64>::new(), "uncommitted ⇒ invisible");
    assert!(matches!(
        load_is_typed(&reg, 1),
        RegistryError::Missing { version: 1 }
    ));
    // The next publish must not resurrect the husk under the same id.
    let p = reg
        .publish(&mut tiny_model(10), VOCAB, "m2")
        .expect("publish again");
    assert_eq!(p.version, 2, "torn version id is burned, not reused");
    assert_eq!(reg.list(), vec![2]);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn gc_keeps_the_newest_versions() {
    let (reg, root) = fresh_registry("gc");
    for i in 0..5 {
        reg.publish(&mut tiny_model(20 + i), VOCAB, "m")
            .expect("publish");
    }
    let removed = reg.gc(2).expect("gc");
    assert_eq!(removed, vec![1, 2, 3]);
    assert_eq!(reg.list(), vec![4, 5]);
    reg.load(5).expect("survivor loads");
    let _ = fs::remove_dir_all(&root);
}

#!/usr/bin/env bash
# Tier-1 verification gate: release build, strict clippy, full test
# suite, the same output bits under the baseline ISA, and rustdoc.
# Run from the repository root. Any failure fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

# The gate must leave the tree as it found it: smokes write under target/,
# and nothing may rewrite a tracked file (benchmark/Cargo.lock included).
tree_at_entry="$(git status --porcelain)"

echo "== cargo fmt --all --check =="
# Every workspace crate and local path dependency (third_party/stubs).
cargo fmt --all --check

echo "== cargo build --release =="
cargo build --release

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
# Clippy owns the workspace's per-site bans, so it runs before the
# multi-minute test suite: outside test builds every Scope::Lib root
# denies clippy's panic family, any #[allow] or reasonless #[expect], a
# for loop over a hash type, and what the root clippy.toml disallows:
# Instant/SystemTime::now, HashMap/HashSet iteration and set-operation
# methods, fs::write,
# File::create{,_new}, OpenOptions::open and mpsc::channel. A justified
# site carries #[expect(<lint>, reason = "...")], and a stale one fails
# as unfulfilled_lint_expectations.
cargo clippy --workspace --all-targets -- -D warnings

echo "== benchmark builds against the library (frozen API surface) =="
# benchmark/ is frozen and calls the library's public API by today's
# signatures; a break must fail here, not after every smoke below. Its
# tests and smoke run stay at the end.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "== cargo test -q --workspace =="
# --workspace: the root manifest is also a package, so a bare `cargo test`
# would run only the facade's tests and skip everything under crates/*.
cargo test -q --workspace

echo "== same bits under the baseline ISA (x86-64, no AVX) =="
# The default build targets x86-64-v3 (.cargo/config.toml) and the parity
# policy says the vector width moves speed, not bits. Rebuild the kernel
# parity/math tests and the five golden digests (encoder rows, classifier
# logits, checkpoint bytes, world files: index.kgbm holds f32 block max
# scores; the big world's sampled mentions) for baseline x86-64:
# RUSTFLAGS overrides the config, and a target dir of its own keeps both
# builds warm. An --exact filter that matches nothing still exits 0, so
# each filtered run must report exactly as many passed tests as it names:
# a renamed digest test fails here instead of checking nothing.
if [[ "$(uname -m)" == "x86_64" ]]; then
    baseline_isa() {
        RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/isa-baseline cargo test -q "$@"
    }
    baseline_isa_exact() { # <expected passed count> <cargo test args...>
        local want="$1" out
        shift
        out="$(baseline_isa "$@" 2>&1)" || { printf '%s\n' "$out"; exit 1; }
        printf '%s\n' "$out"
        if ! grep -q "^test result: ok\. $want passed;" <<<"$out"; then
            echo "FAIL: expected exactly $want passed test(s) from: cargo test $*"
            exit 1
        fi
    }
    baseline_isa -p kglink-kernels --test parity --test math
    baseline_isa_exact 1 -p kglink-nn --lib -- --exact \
        encoder::tests::forward_output_bits_match_the_golden_digest
    baseline_isa_exact 2 -p kglink-core --lib -- --exact \
        train::tests::classifier_logit_bits_match_the_golden_digest \
        train::tests::checkpoint_bytes_match_the_golden_digest
    baseline_isa_exact 2 -p kglink-datagen --test golden_world -- --exact \
        world_bytes_match_the_golden_digest \
        sampled_mentions_match_the_golden_digest
fi

echo "== cargo doc --workspace --no-deps (rustdoc warnings denied) =="
# A renamed or deleted item must not leave a dead intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== kglink-lint self-test (fixture corpus meta-gate) =="
# The linter must still *find* things before its clean workspace run means
# anything: every rule's fixtures must fire exactly as declared. A rule
# that silently went blind fails here, not in production. Both lint stages
# take about a second, so they run before the minutes of smokes below.
cargo run --release -q -p kglink-lint -- --self-test

echo "== kglink-lint --workspace --deny-all =="
# Workspace invariant gate: the six rules `kglink-lint --list-rules`
# prints (single-percentile, lock-order, hot-path-alloc,
# blocking-under-lock, deadline-drop, epoch-hold; catalog and evidence in
# DESIGN.md §11), over the workspace call graph, with every suppression
# audited. Findings are exported to results/lint.jsonl.
cargo run --release -q -p kglink-lint -- --workspace --deny-all --json

echo "== exp_serve smoke (serving-layer identity + cache gate) =="
KGLINK_FAST=1 cargo run --release -q -p kglink-bench --bin exp_serve -- --smoke

echo "== exp_obs smoke (stage tiling + zero-overhead tracer gate) =="
KGLINK_FAST=1 cargo run --release -q -p kglink-bench --bin exp_obs -- --smoke

echo "== exp_overload smoke (admission control, degradation ladder) =="
cargo run --release -q -p kglink-bench --bin exp_overload -- --smoke

echo "== exp_scale smoke (disk store: transparency, typed corruption, memory budget) =="
KGLINK_FAST=1 cargo run --release -q -p kglink-bench --bin exp_scale -- --smoke

echo "== exp_bench smoke (kernel parity + speedup floor) =="
KGLINK_FAST=1 cargo run --release -q -p kglink-bench --bin exp_bench -- --smoke

echo "== exp_swap smoke (registry round-trip, hot swap under load, rollback) =="
KGLINK_FAST=1 cargo run --release -q -p kglink-bench --bin exp_swap -- --smoke

echo "== benchmark crate: tests + smoke run against the frozen serving surface =="
cargo test --offline -q --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke

# Opt-in ThreadSanitizer stage: dynamic cross-check of the same lock/wait
# discipline the lint rules reason about statically, over the serving
# layer and the world writer's BM25 builder thread (kglink-store's
# world:: tests), the only library thread started outside serve. TSan
# needs nightly (-Zsanitizer + -Zbuild-std), so the stage is gated on
# KGLINK_TSAN=1 and skipped with a visible notice when nightly (or its
# rust-src component) is unavailable — it must never silently pass.
if [[ "${KGLINK_TSAN:-0}" == "1" ]]; then
    if rustup run nightly rustc --version >/dev/null 2>&1 \
        && rustup component list --toolchain nightly 2>/dev/null \
            | grep -q '^rust-src (installed)'; then
        echo "== ThreadSanitizer: crates/serve and the world writer's builder thread (nightly) =="
        host="$(rustc -vV | sed -n 's/^host: //p')"
        tsan() {
            RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
                cargo +nightly test -Zbuild-std --target "$host" \
                --target-dir target/tsan "$@"
        }
        tsan -p kglink-serve
        tsan -p kglink-store --lib -- world::
    else
        echo "== ThreadSanitizer: SKIPPED (nightly toolchain with rust-src not available) =="
    fi
else
    echo "== ThreadSanitizer: off (set KGLINK_TSAN=1 to enable) =="
fi

echo "== git status --porcelain unchanged =="
if [[ "$(git status --porcelain)" != "$tree_at_entry" ]]; then
    echo "FAIL: the gate changed the working tree:"
    diff <(echo "$tree_at_entry") <(git status --porcelain) || true
    exit 1
fi

echo "CI OK"

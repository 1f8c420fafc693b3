#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, strict clippy
# and rustdoc.
# Run from the repository root. Any failure fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

# The gate must leave the tree as it found it: smokes write under target/,
# and nothing may rewrite a tracked file (benchmark/Cargo.lock included).
tree_at_entry="$(git status --porcelain)"

echo "== cargo build --release =="
cargo build --release

echo "== benchmark builds against the library (frozen API surface) =="
# benchmark/ is frozen and calls the library's public API by today's
# signatures; a break must fail here, not after every smoke below. Its
# tests and smoke run stay at the end.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "== cargo test -q --workspace =="
# --workspace: the root manifest is also a package, so a bare `cargo test`
# would run only the facade's tests and skip everything under crates/*.
cargo test -q --workspace

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

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
# Workspace invariant gate: every rule `kglink-lint --list-rules` prints
# (catalog and evidence in DESIGN.md §11), over the workspace call graph,
# with every suppression audited. Findings are exported to
# results/lint.jsonl.
cargo run --release -q -p kglink-lint -- --workspace --deny-all --json

echo "== exp_serve smoke (serving-layer identity + cache gate) =="
KGLINK_FAST=1 cargo run --release -q -p kglink-bench --bin exp_serve -- --smoke

echo "== exp_obs smoke (stage tiling + zero-overhead tracer gate) =="
KGLINK_FAST=1 cargo run --release -q -p kglink-bench --bin exp_obs -- --smoke

echo "== exp_overload smoke (admission control, degradation ladder, retry budgets) =="
KGLINK_FAST=1 cargo run --release -q -p kglink-bench --bin exp_overload -- --smoke

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
# discipline the lint rules reason about statically. TSan
# needs nightly (-Zsanitizer + -Zbuild-std), so the stage is gated on
# KGLINK_TSAN=1 and skipped with a visible notice when nightly (or its
# rust-src component) is unavailable — it must never silently pass.
if [[ "${KGLINK_TSAN:-0}" == "1" ]]; then
    if rustup run nightly rustc --version >/dev/null 2>&1 \
        && rustup component list --toolchain nightly 2>/dev/null \
            | grep -q '^rust-src (installed)'; then
        echo "== ThreadSanitizer: crates/serve concurrency tests (nightly) =="
        host="$(rustc -vV | sed -n 's/^host: //p')"
        RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std --target "$host" \
            --target-dir target/tsan -p kglink-serve
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

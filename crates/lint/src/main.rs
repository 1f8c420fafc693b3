//! kglink-lint CLI.
//!
//! ```text
//! kglink-lint --workspace --deny-all            # lint the whole workspace, fail on findings
//! kglink-lint --workspace --json                # ... and export results/lint.jsonl
//! kglink-lint --deny-all crates/serve/src       # lint explicit .rs files / directories
//! kglink-lint --self-test                       # fixture corpus meta-gate
//! kglink-lint --list-rules                      # rule catalog
//! ```
//!
//! Exit codes: 0 clean, 1 findings under `--deny-all` (or a failed
//! self-test), 2 usage/environment errors. Without `--deny-all` the run is
//! advisory: findings are printed but the exit code stays 0.

use kglink_lint::engine::{find_workspace_root, lint_files, workspace_files};
use kglink_lint::fixtures;
use kglink_lint::rules::{all_rules, META_RULES};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: kglink-lint [--workspace] [--deny-all] [--json] [--list-rules] [--self-test] [PATH...]

  --workspace    lint every .rs file in the enclosing cargo workspace
  --deny-all     exit 1 if any finding survives suppression (CI mode)
  --json         export findings as JSONL to results/lint.jsonl
  --list-rules   print the rule catalog (ids + one-line descriptions)
  --self-test    lint the fixture corpus against its //@ expect directives;
                 fails if any rule went blind or grew a false positive
  PATH...        extra .rs files or directories to lint";

#[derive(Default)]
struct Opts {
    workspace: bool,
    deny_all: bool,
    json: bool,
    list_rules: bool,
    self_test: bool,
    paths: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    for a in args {
        match a.as_str() {
            "--workspace" => o.workspace = true,
            "--deny-all" => o.deny_all = true,
            "--json" => o.json = true,
            "--list-rules" => o.list_rules = true,
            "--self-test" => o.self_test = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => o.paths.push(PathBuf::from(path)),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("kglink-lint: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in all_rules() {
            println!("{:28} {}", rule.id(), rule.describe());
        }
        for (id, desc) in META_RULES {
            println!("{id:28} {desc}");
        }
        return ExitCode::SUCCESS;
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("kglink-lint: cannot determine working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match find_workspace_root(&cwd) {
        Some(r) => r,
        None => {
            eprintln!(
                "kglink-lint: no [workspace] Cargo.toml found above {}",
                cwd.display()
            );
            return ExitCode::from(2);
        }
    };

    if opts.self_test {
        let outcome = fixtures::run_corpus(&root.join("crates/lint/tests/corpus"));
        for m in &outcome.mismatches {
            eprintln!("self-test: {m}");
        }
        println!("self-test: {}", outcome.summary());
        return if outcome.ok() {
            ExitCode::SUCCESS
        } else {
            eprintln!("self-test: FAILED — the fixture corpus no longer pins the rule set");
            ExitCode::FAILURE
        };
    }

    if !opts.workspace && opts.paths.is_empty() {
        eprintln!("kglink-lint: nothing to lint (pass --workspace or paths)\n{USAGE}");
        return ExitCode::from(2);
    }

    // The workspace walk, then explicit paths (a directory means every .rs
    // file under it).
    let mut files: Vec<PathBuf> = Vec::new();
    if opts.workspace {
        files.extend(workspace_files(&root));
    }
    for p in &opts.paths {
        let abs = if p.is_absolute() {
            p.clone()
        } else {
            cwd.join(p)
        };
        let found = if abs.is_dir() {
            workspace_files(&abs)
        } else {
            vec![abs]
        };
        if found.is_empty() {
            eprintln!("kglink-lint: no lintable files under {}", p.display());
        }
        files.extend(found);
    }

    let report = lint_files(&root, &files);
    for f in &report.findings {
        println!("{}", f.render());
    }
    println!("kglink-lint: {}", report.summary());

    if opts.json {
        if !report.suppressed_by_rule.is_empty() {
            let audit: Vec<String> = report
                .suppressed_by_rule
                .iter()
                .map(|(rule, n)| format!("{rule}={n}"))
                .collect();
            println!("kglink-lint: suppression audit: {}", audit.join(", "));
        }
        let json_path = root.join("results/lint.jsonl");
        if let Err(e) = write_jsonl(&json_path, &report) {
            eprintln!("kglink-lint: cannot write {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
        println!("kglink-lint: wrote {}", json_path.display());
    }

    if opts.deny_all && !report.findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Findings as JSONL (stable rule ids in each record), closed by one
/// deterministic suppression-audit record: the file is diffed byte-for-byte
/// across runs.
fn write_jsonl(path: &Path, report: &kglink_lint::Report) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut out = fs::File::create(path)?;
    for f in &report.findings {
        writeln!(out, "{}", f.to_json())?;
    }
    writeln!(out, "{}", report.audit_json())?;
    out.flush()
}

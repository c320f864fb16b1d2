//! CLI driver: `margins-lint --workspace [--deny] [--json PATH]
//! [--sarif PATH] [--format human|json|sarif] [--incremental] [--root DIR]`,
//! plus `margins-lint --explain <rule>`.
//!
//! Exit status: `0` clean (or findings present without `--deny`), `1`
//! findings present under `--deny`, `2` usage or I/O error.
//!
//! Cache statistics from `--incremental` go to **stderr** only: stdout and
//! every written report stay byte-identical between cold and cached runs.

use margins_lint::{CacheState, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
    Sarif,
}

struct Args {
    root: PathBuf,
    deny: bool,
    format: Format,
    json: Option<PathBuf>,
    sarif: Option<PathBuf>,
    incremental: bool,
    cache: Option<PathBuf>,
    quiet: bool,
}

const USAGE: &str = "usage: margins-lint --workspace [options]
       margins-lint --explain <rule>

Lints every Rust source file of the workspace against the determinism,
unit-safety and no-panic rules L1-L10 (see crates/lint and DESIGN.md).

  --workspace       lint the enclosing cargo workspace (located by walking
                    up from the current directory to a [workspace] manifest)
  --root DIR        lint DIR instead of the discovered workspace root
  --deny            exit nonzero when any unwaived finding remains
  --format FMT      what to print on stdout: human (default), json, sarif
  --json PATH       also write the JSON report to PATH ('-' = stdout)
  --sarif PATH      also write the SARIF 2.1.0 report to PATH ('-' = stdout)
  --incremental     reuse the per-file cache (default .margins-lint.cache
                    under the workspace root); reports stay byte-identical
  --cache PATH      cache location for --incremental
  --quiet           suppress human diagnostics
  --explain RULE    print a rule's rationale, example and waiver syntax
                    (by name 'unit-escape' or label 'L7')
";

/// Resolves `--explain` input by name or L-label.
fn rule_by_name_or_label(s: &str) -> Option<Rule> {
    Rule::from_name(s).or_else(|| Rule::all().into_iter().find(|r| r.label() == s))
}

fn explain(arg: &str) -> Result<String, String> {
    let Some(rule) = rule_by_name_or_label(arg) else {
        return Err(format!(
            "unknown rule '{arg}' (rules: {})",
            Rule::all().map(|r| r.name()).join(", ")
        ));
    };
    Ok(format!(
        "{}/{} — {}\n\n{}\n",
        rule.label(),
        rule.name(),
        rule.summary(),
        rule.explain()
    ))
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut root: Option<PathBuf> = None;
    let mut deny = false;
    let mut format = Format::Human;
    let mut json = None;
    let mut sarif = None;
    let mut incremental = false;
    let mut cache = None;
    let mut quiet = false;
    let mut workspace = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--deny" => deny = true,
            "--quiet" => quiet = true,
            "--incremental" => incremental = true,
            "--format" => {
                let fmt = it.next().ok_or("--format requires human|json|sarif")?;
                format = match fmt.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format '{other}'")),
                };
            }
            "--json" => {
                let path = it.next().ok_or("--json requires a path")?;
                json = Some(PathBuf::from(path));
            }
            "--sarif" => {
                let path = it.next().ok_or("--sarif requires a path")?;
                sarif = Some(PathBuf::from(path));
            }
            "--cache" => {
                let path = it.next().ok_or("--cache requires a path")?;
                cache = Some(PathBuf::from(path));
            }
            "--root" => {
                let path = it.next().ok_or("--root requires a directory")?;
                root = Some(PathBuf::from(path));
            }
            "--explain" => {
                let rule = it.next().ok_or("--explain requires a rule name")?;
                print!("{}", explain(&rule)?);
                return Ok(None);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !workspace && root.is_none() {
        return Err("pass --workspace (or an explicit --root DIR)".to_owned());
    }
    let root = match root {
        Some(r) => r,
        None => discover_workspace_root()?,
    };
    Ok(Some(Args {
        root,
        deny,
        format,
        json,
        sarif,
        incremental,
        cache,
        quiet,
    }))
}

/// Walks up from the current directory to the first `Cargo.toml` declaring
/// a `[workspace]` section.
fn discover_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no [workspace] Cargo.toml found above the current directory".to_owned());
        }
    }
}

/// Writes `content` to `path`, with `-` meaning stdout.
fn emit(path: &PathBuf, content: &str) -> Result<(), String> {
    if path.as_os_str() == "-" {
        print!("{content}");
        Ok(())
    } else {
        std::fs::write(path, content).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("margins-lint: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let cache_path = if args.incremental {
        Some(
            args.cache
                .clone()
                .unwrap_or_else(|| args.root.join(".margins-lint.cache")),
        )
    } else {
        args.cache.clone()
    };
    let (report, stats) =
        match margins_lint::lint_workspace_incremental(&args.root, cache_path.as_deref()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("margins-lint: {}: {e}", args.root.display());
                return ExitCode::from(2);
            }
        };

    // Cache telemetry is out-of-band so report bytes never vary with
    // cache temperature.
    match &stats.cache_state {
        CacheState::Disabled => {}
        CacheState::Cold => eprintln!(
            "margins-lint: cache cold; scanned {} file(s), wrote cache",
            stats.cache_misses
        ),
        CacheState::Warm => eprintln!(
            "margins-lint: cache warm; {} hit(s), {} miss(es) of {} file(s)",
            stats.cache_hits, stats.cache_misses, stats.rust_files
        ),
        CacheState::Corrupt(msg) => eprintln!(
            "margins-lint: warning: corrupt cache ({msg}); full re-scan of {} file(s), cache rewritten",
            stats.cache_misses
        ),
    }

    if let Some(path) = &args.json {
        if let Err(e) = emit(path, &report.to_json()) {
            eprintln!("margins-lint: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &args.sarif {
        if let Err(e) = emit(path, &margins_lint::sarif::to_sarif(&report)) {
            eprintln!("margins-lint: {e}");
            return ExitCode::from(2);
        }
    }
    match args.format {
        Format::Human if !args.quiet => {
            print!("{}", report.render_human());
        }
        Format::Json if args.json.as_deref().map(|p| p.as_os_str()) != Some("-".as_ref()) => {
            print!("{}", report.to_json());
        }
        Format::Sarif if args.sarif.as_deref().map(|p| p.as_os_str()) != Some("-".as_ref()) => {
            print!("{}", margins_lint::sarif::to_sarif(&report));
        }
        _ => {}
    }

    if args.deny && !report.findings.is_empty() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

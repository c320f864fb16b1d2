//! The incremental-lint cache: per-file content hashes, symbol summaries
//! and lint outcomes, persisted between runs.
//!
//! A cached entry is valid for *token* rules when the file's FNV-1a
//! content hash is unchanged, and for *semantic* rules additionally only
//! when the workspace **context hash** (the hash of the merged symbol
//! table, see [`crate::symbols::Symbols::context_hash`]) matches — a
//! newtype added in crate A can create findings in crate B without B
//! changing, so per-file hashing alone would under-invalidate. The linter
//! therefore reuses a file's findings only when both hashes match.
//!
//! The on-disk format is a deliberately minimal line format (the linter
//! is dependency-free, so no serde):
//!
//! ```text
//! margins-lint-cache v2 ctx=<hex16>
//! F <hash-hex16> <path>
//! N <newtype> <inner>
//! V <variant> <field,field,...>
//! R <0|1> <fn-name>
//! D <rule> <line> <col> <message with \n and \\ escaped>
//! W <rule> <line> <0|1>
//! ```
//!
//! `N`/`V`/`R` lines carry the file's symbol summary (so unchanged files
//! need no re-parse), `D`/`W` its findings and waivers. Any malformed
//! byte anywhere makes the whole cache [`LoadOutcome::Corrupt`] — the
//! caller falls back to a full re-scan with a typed warning; corruption
//! is never a panic and never silently partial.

use crate::rules::{Finding, Rule, Waiver};
use crate::symbols::FileSymbols;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Magic + version prefix of the cache header line.
const HEADER_PREFIX: &str = "margins-lint-cache v2 ctx=";

/// One file's cached state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CachedFile {
    /// FNV-1a 64 hash of the file's bytes.
    pub hash: u64,
    /// The file's contribution to the workspace symbol table.
    pub symbols: FileSymbols,
    /// Findings produced last run (file field filled on load).
    pub findings: Vec<Finding>,
    /// Waivers seen last run.
    pub waivers: Vec<Waiver>,
}

/// The whole persisted cache.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    /// Context hash of the symbol table the findings were computed under.
    pub context: u64,
    /// Per-file entries, keyed by workspace-relative path.
    pub files: BTreeMap<String, CachedFile>,
}

/// What loading the cache produced.
#[derive(Debug)]
pub enum LoadOutcome {
    /// No cache file exists yet (cold run).
    Missing,
    /// Cache parsed cleanly.
    Loaded(Cache),
    /// Cache exists but is malformed; the message says where and why.
    Corrupt(String),
}

/// Loads the cache at `path`. Never panics: unreadable or malformed
/// content degrades to [`LoadOutcome::Corrupt`].
#[must_use]
pub fn load(path: &Path) -> LoadOutcome {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return LoadOutcome::Missing,
        Err(e) => return LoadOutcome::Corrupt(format!("unreadable cache: {e}")),
    };
    match parse(&text) {
        Ok(cache) => LoadOutcome::Loaded(cache),
        Err(msg) => LoadOutcome::Corrupt(msg),
    }
}

/// Serializes and writes the cache; parent directories must exist.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn store(path: &Path, cache: &Cache) -> io::Result<()> {
    fs::write(path, render(cache))
}

/// The byte-deterministic serialized form.
#[must_use]
pub fn render(cache: &Cache) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{HEADER_PREFIX}{:016x}", cache.context);
    for (path, f) in &cache.files {
        let _ = writeln!(s, "F {:016x} {path}", f.hash);
        for (name, inner) in &f.symbols.newtypes {
            let _ = writeln!(s, "N {name} {inner}");
        }
        for (variant, fields) in &f.symbols.trace_variants {
            let _ = writeln!(s, "V {variant} {}", fields.join(","));
        }
        for (name, returns_result) in &f.symbols.fns {
            let _ = writeln!(s, "R {} {name}", u8::from(*returns_result));
        }
        for d in &f.findings {
            let _ = writeln!(
                s,
                "D {} {} {} {}",
                d.rule.name(),
                d.line,
                d.col,
                escape(&d.message)
            );
        }
        for w in &f.waivers {
            let _ = writeln!(s, "W {} {} {}", w.rule.name(), w.line, u8::from(w.used));
        }
    }
    s
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn parse(text: &str) -> Result<Cache, String> {
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err("empty cache file".to_owned());
    };
    let Some(ctx_hex) = header.strip_prefix(HEADER_PREFIX) else {
        return Err(format!("bad cache header: {header:?}"));
    };
    let context =
        u64::from_str_radix(ctx_hex, 16).map_err(|_| format!("bad context hash: {ctx_hex:?}"))?;

    let mut cache = Cache {
        context,
        files: BTreeMap::new(),
    };
    let mut current: Option<(String, CachedFile)> = None;
    for (n, line) in lines {
        let lineno = n + 1;
        if line.is_empty() {
            continue;
        }
        let (tag, rest) = line
            .split_once(' ')
            .ok_or_else(|| format!("line {lineno}: missing payload"))?;
        match tag {
            "F" => {
                let (hash_hex, path) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("line {lineno}: bad F record"))?;
                let hash = u64::from_str_radix(hash_hex, 16)
                    .map_err(|_| format!("line {lineno}: bad file hash {hash_hex:?}"))?;
                if path.is_empty() {
                    return Err(format!("line {lineno}: empty path"));
                }
                if let Some((p, f)) = current.take() {
                    cache.files.insert(p, f);
                }
                current = Some((
                    path.to_owned(),
                    CachedFile {
                        hash,
                        ..CachedFile::default()
                    },
                ));
            }
            "N" | "V" | "R" | "D" | "W" => {
                let (_, file) = current
                    .as_mut()
                    .ok_or_else(|| format!("line {lineno}: {tag} record before any F record"))?;
                parse_member(tag, rest, file).map_err(|e| format!("line {lineno}: {e}"))?;
            }
            other => return Err(format!("line {lineno}: unknown record tag {other:?}")),
        }
    }
    if let Some((p, f)) = current.take() {
        cache.files.insert(p, f);
    }
    Ok(cache)
}

fn parse_member(tag: &str, rest: &str, file: &mut CachedFile) -> Result<(), String> {
    match tag {
        "N" => {
            let (name, inner) = rest.split_once(' ').ok_or("bad N record")?;
            file.symbols
                .newtypes
                .push((name.to_owned(), inner.to_owned()));
        }
        "V" => {
            let (variant, fields) = rest.split_once(' ').ok_or("bad V record")?;
            let fields = if fields.is_empty() {
                Vec::new()
            } else {
                fields.split(',').map(str::to_owned).collect()
            };
            file.symbols
                .trace_variants
                .push((variant.to_owned(), fields));
        }
        "R" => {
            let (flag, name) = rest.split_once(' ').ok_or("bad R record")?;
            let returns_result = parse_bool(flag)?;
            file.symbols.fns.push((name.to_owned(), returns_result));
        }
        "D" => {
            let mut it = rest.splitn(4, ' ');
            let rule = it.next().and_then(Rule::from_name).ok_or("bad D rule")?;
            let line = parse_u32(it.next())?;
            let col = parse_u32(it.next())?;
            let message = unescape(it.next().unwrap_or_default());
            file.findings.push(Finding {
                file: String::new(), // filled by the caller from the F path
                line,
                col,
                rule,
                message,
            });
        }
        "W" => {
            let mut it = rest.splitn(3, ' ');
            let rule = it.next().and_then(Rule::from_name).ok_or("bad W rule")?;
            let line = parse_u32(it.next())?;
            let used = parse_bool(it.next().unwrap_or_default())?;
            file.waivers.push(Waiver {
                file: String::new(),
                line,
                rule,
                used,
            });
        }
        _ => unreachable!("caller dispatches only known tags"),
    }
    Ok(())
}

fn parse_bool(s: &str) -> Result<bool, String> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("bad flag {other:?}")),
    }
}

fn parse_u32(s: Option<&str>) -> Result<u32, String> {
    s.ok_or_else(|| "missing number".to_owned())?
        .parse()
        .map_err(|_| format!("bad number {:?}", s.unwrap_or_default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cache {
        let mut files = BTreeMap::new();
        files.insert(
            "crates/sim/src/volt.rs".to_owned(),
            CachedFile {
                hash: 0xdead_beef,
                symbols: FileSymbols {
                    newtypes: vec![("Millivolts".into(), "u32".into())],
                    trace_variants: vec![("SweepStarted".into(), vec!["program".into()])],
                    fns: vec![("persist".into(), true), ("get".into(), false)],
                },
                findings: vec![Finding {
                    file: String::new(),
                    line: 9,
                    col: 4,
                    rule: Rule::NoPanic,
                    message: "msg with \\ backslash\nand newline".into(),
                }],
                waivers: vec![Waiver {
                    file: String::new(),
                    line: 12,
                    rule: Rule::SwallowedFallibility,
                    used: true,
                }],
            },
        );
        Cache {
            context: 0x1234_5678_9abc_def0,
            files,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let cache = sample();
        let text = render(&cache);
        let back = match parse(&text) {
            Ok(c) => c,
            Err(e) => panic!("roundtrip parse failed: {e}"),
        };
        assert_eq!(back.context, cache.context);
        let f = &back.files["crates/sim/src/volt.rs"];
        let orig = &cache.files["crates/sim/src/volt.rs"];
        assert_eq!(f.hash, orig.hash);
        assert_eq!(f.symbols, orig.symbols);
        assert_eq!(f.findings[0].message, orig.findings[0].message);
        assert_eq!(f.findings[0].rule, Rule::NoPanic);
        assert!(f.waivers[0].used);
    }

    #[test]
    fn render_is_deterministic() {
        assert_eq!(render(&sample()), render(&sample()));
    }

    #[test]
    fn corrupt_variants_are_typed_errors_not_panics() {
        for bad in [
            "",
            "not-a-cache",
            "margins-lint-cache v2 ctx=zzz",
            "margins-lint-cache v2 ctx=0\nX what",
            "margins-lint-cache v2 ctx=0\nD no-panic 1 2 msg",
            "margins-lint-cache v2 ctx=0\nF nothex p",
            "margins-lint-cache v2 ctx=0\nF 0 p\nD bogus-rule 1 2 m",
            "margins-lint-cache v2 ctx=0\nF 0 p\nW no-panic 1 7",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn missing_file_is_missing_not_corrupt() {
        assert!(matches!(
            load(Path::new("/nonexistent/margins-lint.cache")),
            LoadOutcome::Missing
        ));
    }
}

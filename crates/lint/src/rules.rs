//! Rules L1–L10 and the waiver machinery.
//!
//! Rules L1–L6 are token-pattern checks over [`crate::lexer::Lexed`]
//! output, scoped by file role (test code is exempt from code rules) and
//! by crate (determinism rules only bind the deterministic-path crates).
//! Rules L7–L10 are semantic checks over the item-level parse
//! ([`crate::parse`]) and the workspace symbol table
//! ([`crate::symbols`]): unit-escape at `pub fn` boundaries, trace-span
//! balance and event-schema conformance, order-sensitive spawn sites, and
//! swallowed fallibility. Findings can be waived with an explicit comment:
//!
//! ```text
//! // lint: allow(<rule>[, <rule>...]) — optional justification
//! ```
//!
//! placed either on the offending line or on its own line directly above.
//! Waivers are never silent: each one is recorded in the report with a
//! `used` flag so reviewers can see (and CI can count) every escape hatch.

use crate::lexer::{lex, Comment, Lexed, TokKind, Token};
use crate::parse::{self, ItemKind, ParsedFile};
use crate::symbols::{crate_of, ty_mentions, Symbols};
use std::collections::BTreeSet;

/// Machine name of every rule, in L-number order.
pub const RULE_NAMES: [&str; 10] = [
    Rule::UnseededRng.name(),
    Rule::HashIter.name(),
    Rule::FloatEq.name(),
    Rule::NoPanic.name(),
    Rule::WallClock.name(),
    Rule::StaleFile.name(),
    Rule::UnitEscape.name(),
    Rule::SpanBalance.name(),
    Rule::OrderSensitivity.name(),
    Rule::SwallowedFallibility.name(),
];

/// The lint rules, L1–L10 of the determinism/unit-safety invariant set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L1: unseeded randomness (`thread_rng`, `rand::random`,
    /// `from_entropy`) outside test/bench code.
    UnseededRng,
    /// L2: `HashMap`/`HashSet` in deterministic-path crates — iteration
    /// order would leak scheduling/hashing noise into reproducible results.
    HashIter,
    /// L3: `==`/`!=` on floating-point voltage/frequency math.
    FloatEq,
    /// L4: `unwrap()`/`expect()` in non-test library code of
    /// deterministic-path crates.
    NoPanic,
    /// L5: wall-clock reads (`Instant::now`, `SystemTime::now`) inside
    /// fault/severity computation crates.
    WallClock,
    /// L6: stale editor/VCS droppings (`*.bak`, `*.orig`, `*.rej`) in tree.
    StaleFile,
    /// L7: a raw primitive carrying a typed quantity (`mv: u32`,
    /// `core: u8`) across a `pub fn` boundary of a crate that can see the
    /// workspace newtype for that quantity.
    UnitEscape,
    /// L8: a trace span opened (`CampaignStarted`/`SweepStarted`
    /// constructed) without its closing event in the same function, or an
    /// event constructor/pattern naming variants or fields that are not in
    /// the `TraceEvent` schema.
    SpanBalance,
    /// L9: a thread-spawn site in a deterministic-path crate whose
    /// enclosing function shows no reorder/finalize step, so worker
    /// completion order could leak into results.
    OrderSensitivity,
    /// L10: a discarded `Result` (`let _ =` / `drop(...)`) from an I/O,
    /// sink or always-fallible workspace call on the deterministic path.
    SwallowedFallibility,
}

impl Rule {
    /// The rule's machine name, used in reports and waiver comments.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Rule::UnseededRng => "unseeded-rng",
            Rule::HashIter => "hash-iter",
            Rule::FloatEq => "float-eq",
            Rule::NoPanic => "no-panic",
            Rule::WallClock => "wall-clock",
            Rule::StaleFile => "stale-file",
            Rule::UnitEscape => "unit-escape",
            Rule::SpanBalance => "span-balance",
            Rule::OrderSensitivity => "order-sensitivity",
            Rule::SwallowedFallibility => "swallowed-fallibility",
        }
    }

    /// The L-number label (`L1`…`L10`).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Rule::UnseededRng => "L1",
            Rule::HashIter => "L2",
            Rule::FloatEq => "L3",
            Rule::NoPanic => "L4",
            Rule::WallClock => "L5",
            Rule::StaleFile => "L6",
            Rule::UnitEscape => "L7",
            Rule::SpanBalance => "L8",
            Rule::OrderSensitivity => "L9",
            Rule::SwallowedFallibility => "L10",
        }
    }

    /// One-line description of the invariant, used by SARIF rule metadata
    /// and the `--explain` subcommand.
    #[must_use]
    pub const fn summary(self) -> &'static str {
        match self {
            Rule::UnseededRng => {
                "no OS-entropy randomness outside test code; campaigns must replay from their seed"
            }
            Rule::HashIter => {
                "no HashMap/HashSet on the deterministic path; iteration order must be stable"
            }
            Rule::FloatEq => {
                "no ==/!= on floating-point model math; compare in integer millivolts or epsilon"
            }
            Rule::NoPanic => {
                "no unwrap()/expect() in deterministic-path library code; return typed errors"
            }
            Rule::WallClock => {
                "no wall-clock reads on the deterministic path; thread modelled time through"
            }
            Rule::StaleFile => "no stale editor/VCS droppings (*.bak, *.orig, *.rej) in the tree",
            Rule::UnitEscape => {
                "no raw primitives carrying typed quantities (mV, MHz, core ids) across pub fn boundaries"
            }
            Rule::SpanBalance => {
                "trace spans must close in the function that opens them, and event constructors must match the TraceEvent schema"
            }
            Rule::OrderSensitivity => {
                "thread-spawn sites must route results through a reorder/finalize step before order-sensitive sinks"
            }
            Rule::SwallowedFallibility => {
                "no silently discarded Results from I/O, sink or always-fallible workspace calls"
            }
        }
    }

    /// Long-form rationale, example and waiver syntax, printed by
    /// `margins-lint --explain <rule>`.
    #[must_use]
    pub const fn explain(self) -> &'static str {
        match self {
            Rule::UnseededRng => {
                "\
Why: the paper's Vmin/severity figures are distributions over seeded
campaigns; any OS-entropy draw makes a run unrepeatable and its data
point unverifiable.

Bad:   let mut rng = rand::thread_rng();
Good:  let mut rng = margins_rng::SplitMix64::new(config.seed);

Waive: // lint: allow(unseeded-rng) — <why this site may be nondeterministic>"
            }
            Rule::HashIter => {
                "\
Why: HashMap/HashSet iteration order depends on the hasher's random
state, so anything derived from iteration (reports, caches, traces)
changes between runs. Deterministic crates use BTreeMap/BTreeSet.

Bad:   let mut by_core: HashMap<u8, Vec<Run>> = HashMap::new();
Good:  let mut by_core: BTreeMap<u8, Vec<Run>> = BTreeMap::new();

Waive: // lint: allow(hash-iter) — <why order cannot reach any output>"
            }
            Rule::FloatEq => {
                "\
Why: float equality on model math silently depends on operation order
and optimization level; voltage grids are integer millivolts precisely
so comparisons stay exact.

Bad:   if severity == 0.15 { ... }
Good:  if (severity - 0.15).abs() < 1e-9 { ... }   // or compare in mV

Waive: // lint: allow(float-eq) — <why exact bit equality is intended>"
            }
            Rule::NoPanic => {
                "\
Why: a panic in library code aborts a multi-hour characterization
campaign and throws away every completed sweep; fallible paths must
return typed errors the runner can log and recover from.

Bad:   let prior = priors.get(&key).unwrap();
Good:  let Some(prior) = priors.get(&key) else { return Err(...) };

Waive: // lint: allow(no-panic) — <the invariant that makes this infallible>"
            }
            Rule::WallClock => {
                "\
Why: the campaign clock is modelled (sum of modelled run durations), so
results are identical on any machine at any load; reading the host
clock leaks real time into that surface.

Bad:   let t0 = std::time::Instant::now();
Good:  let t = finalizer.clock_s();   // modelled campaign time

Waive: // lint: allow(wall-clock) — <why host time cannot reach results>"
            }
            Rule::StaleFile => {
                "\
Why: *.bak/*.orig/*.rej files are editor/VCS droppings; checked in,
they rot, shadow real sources in greps, and confuse the lint walker.

Fix: delete the file (its history lives in git).

Waive: not waivable — L6 applies to paths, not lines."
            }
            Rule::UnitEscape => {
                "\
Why: the workspace defines quantity newtypes (Millivolts, Megahertz,
CoreId) so a 980 can never be read as MHz where mV was meant — the
paper's entire dataset is keyed by (voltage, frequency, core). A raw
u32/u8 on a pub fn boundary reopens that confusion exactly where
crates hand values to each other. The rule fires only in crates that
can actually name the newtype (it is in their dependency closure).

Bad:   pub fn on_grid(self, start_mv: u32) -> ResolvedPrior
Good:  pub fn on_grid(self, start_mv: Millivolts) -> ResolvedPrior

Waive: // lint: allow(unit-escape) — <why the raw representation is the API>"
            }
            Rule::SpanBalance => {
                "\
Why: campaign traces are spans (CampaignStarted..CampaignFinished,
SweepStarted..SweepFinished); an open without its close truncates every
derived analysis (durations, diffs, OpenMetrics counters). Constructors
must also match the TraceEvent schema so serialized streams stay
replayable.

Bad:   obs.record(&TraceEvent::SweepStarted { program, dataset, core });
       // fn returns with no SweepFinished on this path
Good:  emit SweepFinished (or delegate to a helper that does) before
       every return of the same function.

Waive: // lint: allow(span-balance) — <which caller closes the span, and why
       that is guaranteed>"
            }
            Rule::OrderSensitivity => {
                "\
Why: PR 2's bug class — worker threads finishing in scheduler order
wrote events straight into an order-sensitive sink, so two identical
campaigns produced different traces. Every spawn site on the
deterministic path must re-merge results in canonical order (reorder
buffer, BTreeMap staging, StreamFinalizer) before anything ordered
consumes them.

Bad:   scope.spawn(move || sink.write(run(item)));
Good:  scope.spawn(move || tx.send((idx, run(item))));
       // ...then drain via a BTreeMap keyed by idx / StreamFinalizer.

Waive: // lint: allow(order-sensitivity) — <why completion order cannot
       reach any output>"
            }
            Rule::SwallowedFallibility => {
                "\
Why: a silently dropped Result from I/O, sink or cache calls turns a
half-written campaign cache or truncated trace into 'success'; the
stale data then poisons every later incremental run. Handle the error,
propagate it, or own the discard with a waiver.

Bad:   let _ = self.writer.flush();
Good:  self.writer.flush().map_err(CacheError::Io)?;

Waive: // lint: allow(swallowed-fallibility) — <why best-effort is correct here>"
            }
        }
    }

    /// Parses a waiver rule name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "unseeded-rng" => Some(Rule::UnseededRng),
            "hash-iter" => Some(Rule::HashIter),
            "float-eq" => Some(Rule::FloatEq),
            "no-panic" => Some(Rule::NoPanic),
            "wall-clock" => Some(Rule::WallClock),
            "stale-file" => Some(Rule::StaleFile),
            "unit-escape" => Some(Rule::UnitEscape),
            "span-balance" => Some(Rule::SpanBalance),
            "order-sensitivity" => Some(Rule::OrderSensitivity),
            "swallowed-fallibility" => Some(Rule::SwallowedFallibility),
            _ => None,
        }
    }

    /// All rules, in L-number order.
    #[must_use]
    pub const fn all() -> [Rule; 10] {
        [
            Rule::UnseededRng,
            Rule::HashIter,
            Rule::FloatEq,
            Rule::NoPanic,
            Rule::WallClock,
            Rule::StaleFile,
            Rule::UnitEscape,
            Rule::SpanBalance,
            Rule::OrderSensitivity,
            Rule::SwallowedFallibility,
        ]
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

/// One waiver comment found in a file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Waiver {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// Line of the waiver comment.
    pub line: u32,
    /// Waived rule.
    pub rule: Rule,
    /// Whether a finding was actually suppressed by this waiver.
    pub used: bool,
}

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// File lives in test/bench/example context: code rules don't apply.
    pub is_test_context: bool,
    /// File belongs to a deterministic-path crate
    /// (sim/core/energy/predict/trace/scope).
    pub is_deterministic_path: bool,
}

/// Result of linting one Rust source file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Unwaived findings.
    pub findings: Vec<Finding>,
    /// All waivers seen, with usage flags.
    pub waivers: Vec<Waiver>,
}

/// The crates whose results must be bit-reproducible: the simulator, the
/// characterization framework, the predictor, the energy models, the
/// trace subsystem (its serialized streams are part of the reproducible
/// surface), the analytics crate (its reports and diffs gate CI on byte
/// equality), and the generator every seeded stream draws from.
pub const DETERMINISTIC_CRATES: [&str; 7] =
    ["sim", "core", "energy", "predict", "trace", "scope", "rng"];

/// Classifies `rel` (workspace-relative, `/`-separated) into a scope.
///
/// Returns `None` when the file must not be linted at all (lint fixtures,
/// VCS/build internals).
#[must_use]
pub fn classify_path(rel: &str) -> Option<FileScope> {
    let components: Vec<&str> = rel.split('/').collect();
    if components
        .iter()
        .any(|c| *c == ".git" || *c == "target" || *c == "fixtures")
    {
        return None;
    }
    let is_test_context = components
        .iter()
        .any(|c| *c == "tests" || *c == "benches" || *c == "examples");
    let is_deterministic_path = components.len() > 1
        && components[0] == "crates"
        && DETERMINISTIC_CRATES.contains(&components[1]);
    Some(FileScope {
        is_test_context,
        is_deterministic_path,
    })
}

/// Lints one Rust source file with the token rules L1–L6 only.
///
/// The full semantic pass (L1–L10) is [`lint_rust_file_semantic`]; this
/// entry point exists for callers without a workspace symbol table.
#[must_use]
pub fn lint_rust_file(rel: &str, src: &str, scope: FileScope) -> FileOutcome {
    lint_file(rel, src, scope, None)
}

/// Lints one Rust source file with all rules L1–L10, resolving the
/// semantic rules against the workspace symbol table.
#[must_use]
pub fn lint_rust_file_semantic(
    rel: &str,
    src: &str,
    scope: FileScope,
    symbols: &Symbols,
) -> FileOutcome {
    lint_file(rel, src, scope, Some(symbols))
}

fn lint_file(rel: &str, src: &str, scope: FileScope, symbols: Option<&Symbols>) -> FileOutcome {
    let lexed = lex(src);
    let test_lines = test_line_spans(&lexed.tokens);
    let waivers = collect_waivers(&lexed, src);

    let mut raw: Vec<Finding> = Vec::new();
    if !scope.is_test_context {
        let in_test = |line: u32| test_lines.iter().any(|(a, b)| line >= *a && line <= *b);
        check_unseeded_rng(rel, &lexed.tokens, &in_test, &mut raw);
        if scope.is_deterministic_path {
            check_hash_iter(rel, &lexed.tokens, &in_test, &mut raw);
            check_float_eq(rel, &lexed.tokens, &in_test, &mut raw);
            check_no_panic(rel, &lexed.tokens, &in_test, &mut raw);
            check_wall_clock(rel, &lexed.tokens, &in_test, &mut raw);
        }
        if let Some(symbols) = symbols {
            let parsed = parse::parse(&lexed.tokens);
            check_unit_escape(rel, &parsed, symbols, &in_test, &mut raw);
            check_span_balance(rel, &lexed.tokens, &parsed, symbols, &in_test, &mut raw);
            if scope.is_deterministic_path {
                check_order_sensitivity(rel, &lexed.tokens, &parsed, &in_test, &mut raw);
                check_swallowed_fallibility(rel, &lexed.tokens, symbols, &in_test, &mut raw);
            }
        }
    }

    apply_waivers(rel, raw, waivers)
}

/// Resolves waivers against raw findings: a finding is suppressed when a
/// waiver for its rule targets its line.
fn apply_waivers(rel: &str, raw: Vec<Finding>, waivers: Vec<(Rule, u32, u32)>) -> FileOutcome {
    // (rule, comment line, target line)
    let mut used = vec![false; waivers.len()];
    let mut findings = Vec::new();
    for f in raw {
        let mut waived = false;
        for (i, (rule, _, target)) in waivers.iter().enumerate() {
            if *rule == f.rule && *target == f.line {
                used[i] = true;
                waived = true;
            }
        }
        if !waived {
            findings.push(f);
        }
    }
    let waivers = waivers
        .into_iter()
        .zip(used)
        .map(|((rule, line, _), used)| Waiver {
            file: rel.to_owned(),
            line,
            rule,
            used,
        })
        .collect();
    FileOutcome { findings, waivers }
}

/// Extracts `lint: allow(rule[, rule])` waivers from comments and computes
/// each waiver's target line: the comment's own line when code shares it,
/// otherwise the next line that carries code.
fn collect_waivers(lexed: &Lexed, src: &str) -> Vec<(Rule, u32, u32)> {
    let code_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    let last_line = src.lines().count() as u32;
    let mut out = Vec::new();
    for Comment { line, text } in &lexed.comments {
        // Doc comments (`///`, `//!`, `/** .. */`) never carry waivers —
        // they are rendered documentation, not annotations on code lines.
        if text.starts_with('/') || text.starts_with('!') || text.starts_with('*') {
            continue;
        }
        for rule in parse_waiver_rules(text) {
            let target = if code_lines.contains(line) {
                *line
            } else {
                (*line + 1..=last_line)
                    .find(|l| code_lines.contains(l))
                    .unwrap_or(*line)
            };
            out.push((rule, *line, target));
        }
    }
    out
}

/// Parses the rule list out of a `lint: allow(a, b)` comment.
fn parse_waiver_rules(comment: &str) -> Vec<Rule> {
    let Some(pos) = comment.find("lint:") else {
        return Vec::new();
    };
    let rest = comment[pos + "lint:".len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Vec::new();
    };
    let Some(end) = rest.find(')') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .filter_map(|name| Rule::from_name(name.trim()))
        .collect()
}

/// Computes `(first, last)` line spans of `#[cfg(test)]`-guarded items, so
/// in-file unit-test modules are exempt from code rules.
fn test_line_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].punct() == Some("#")
            && matches!(tokens.get(i + 1).and_then(Token::punct), Some("["))
        {
            let attr_line = tokens[i].line;
            let (attr_end, is_test_cfg) = scan_attribute(tokens, i + 1);
            if is_test_cfg {
                if let Some((_, close_line)) = item_body_span(tokens, attr_end) {
                    spans.push((attr_line, close_line));
                }
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    spans
}

/// Scans an attribute starting at its `[`; returns (index past `]`, whether
/// it is a `cfg(...)` containing the `test` flag or a bare `#[test]`).
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut idents = Vec::new();
    let mut j = open;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokKind::Punct(p) if p == "[" => depth += 1,
            TokKind::Punct(p) if p == "]" => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            TokKind::Ident(s) => idents.push(s.as_str().to_owned()),
            _ => {}
        }
        j += 1;
    }
    let is_cfg_test =
        idents.first().is_some_and(|f| f == "cfg") && idents.iter().any(|s| s == "test");
    let is_bare_test = idents.len() == 1 && idents[0] == "test";
    (j, is_cfg_test || is_bare_test)
}

/// From just past a test attribute, skips any further attributes and finds
/// the brace-delimited body of the next item. Returns `(open, close)` lines.
fn item_body_span(tokens: &[Token], mut i: usize) -> Option<(u32, u32)> {
    // Skip subsequent outer attributes.
    while i < tokens.len() && tokens[i].punct() == Some("#") {
        if tokens.get(i + 1).and_then(Token::punct) == Some("[") {
            let (end, _) = scan_attribute(tokens, i + 1);
            i = end;
        } else {
            i += 1;
        }
    }
    // Find the item's opening brace; a `;` first means no body (`mod x;`).
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].punct() {
            Some(";") => return None,
            Some("{") => break,
            _ => j += 1,
        }
    }
    if j >= tokens.len() {
        return None;
    }
    let open_line = tokens[j].line;
    let mut depth = 0usize;
    while j < tokens.len() {
        match tokens[j].punct() {
            Some("{") => depth += 1,
            Some("}") => {
                depth -= 1;
                if depth == 0 {
                    return Some((open_line, tokens[j].line));
                }
            }
            _ => {}
        }
        j += 1;
    }
    Some((open_line, tokens.last().map_or(open_line, |t| t.line)))
}

fn push(out: &mut Vec<Finding>, rel: &str, tok: &Token, rule: Rule, message: String) {
    out.push(Finding {
        file: rel.to_owned(),
        line: tok.line,
        col: tok.col,
        rule,
        message,
    });
}

/// L1: `thread_rng`, `rand::random`, `from_entropy`.
fn check_unseeded_rng(
    rel: &str,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        match t.ident() {
            Some("thread_rng") => push(
                out,
                rel,
                t,
                Rule::UnseededRng,
                "thread_rng() draws OS entropy; seed a margins_rng::SplitMix64 instead".into(),
            ),
            Some("from_entropy") => push(
                out,
                rel,
                t,
                Rule::UnseededRng,
                "from_entropy() is unseeded; derive the seed from campaign coordinates".into(),
            ),
            Some("random")
                if i >= 2
                    && tokens[i - 1].punct() == Some("::")
                    && tokens[i - 2].ident() == Some("rand") =>
            {
                push(
                    out,
                    rel,
                    t,
                    Rule::UnseededRng,
                    "rand::random() draws OS entropy; seed a margins_rng::SplitMix64 instead"
                        .into(),
                );
            }
            _ => {}
        }
    }
}

/// L2: any `HashMap`/`HashSet` in deterministic-path code.
///
/// Iteration order is where the nondeterminism leaks, but *whether* a map
/// is iterated is a type-level question a token pass cannot settle — so the
/// rule is deliberately conservative: name the type at all and you must
/// either switch to an ordered container or leave an explicit waiver.
fn check_hash_iter(
    rel: &str,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for t in tokens {
        if in_test(t.line) {
            continue;
        }
        if let Some(name @ ("HashMap" | "HashSet")) = t.ident() {
            push(
                out,
                rel,
                t,
                Rule::HashIter,
                format!("{name} iteration order is nondeterministic on the reproducible path; use BTreeMap/BTreeSet or waive"),
            );
        }
    }
}

/// L3: `==`/`!=` adjacent to float literals or `as f64`/`as f32` casts.
fn check_float_eq(
    rel: &str,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    const WINDOW: usize = 3;
    for (i, t) in tokens.iter().enumerate() {
        if !matches!(t.punct(), Some("==" | "!=")) || in_test(t.line) {
            continue;
        }
        let lo = i.saturating_sub(WINDOW);
        let hi = (i + WINDOW + 1).min(tokens.len());
        let near = &tokens[lo..hi];
        let float_lit = near.iter().any(|n| n.kind == TokKind::Float);
        let float_cast = near
            .windows(2)
            .any(|w| w[0].ident() == Some("as") && matches!(w[1].ident(), Some("f64" | "f32")));
        if float_lit || float_cast {
            push(
                out,
                rel,
                t,
                Rule::FloatEq,
                "floating-point equality on model math; compare in integer millivolts or with an epsilon".into(),
            );
        }
    }
}

/// L4: `.unwrap()` / `.expect(` in non-test deterministic-path code.
fn check_no_panic(
    rel: &str,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        let called = matches!(tokens.get(i + 1).and_then(Token::punct), Some("("));
        let method = i > 0 && tokens[i - 1].punct() == Some(".");
        if !(called && method) {
            continue;
        }
        match t.ident() {
            Some("unwrap") => push(
                out,
                rel,
                t,
                Rule::NoPanic,
                "unwrap() can panic mid-campaign; return a typed error or waive with justification"
                    .into(),
            ),
            Some("expect") => push(
                out,
                rel,
                t,
                Rule::NoPanic,
                "expect() can panic mid-campaign; return a typed error or waive with justification"
                    .into(),
            ),
            _ => {}
        }
    }
}

/// L5: `Instant::now` / `SystemTime::now` on the deterministic path.
fn check_wall_clock(
    rel: &str,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        if t.ident() == Some("now")
            && i >= 2
            && tokens[i - 1].punct() == Some("::")
            && matches!(tokens[i - 2].ident(), Some("Instant" | "SystemTime"))
        {
            push(
                out,
                rel,
                t,
                Rule::WallClock,
                format!(
                    "{}::now() injects wall-clock state into deterministic computation; thread simulated time through instead",
                    tokens[i - 2].ident().unwrap_or_default()
                ),
            );
        }
    }
}

/// Whether a name denotes quantity `q` (`mv` exactly, or a `_mv` suffix).
fn name_denotes(name: &str, names: &[&str], suffixes: &[&str]) -> bool {
    names.contains(&name) || suffixes.iter().any(|s| name.ends_with(s))
}

/// L7: raw primitives crossing `pub fn` boundaries where a workspace
/// newtype exists for the quantity.
fn check_unit_escape(
    rel: &str,
    parsed: &ParsedFile,
    symbols: &Symbols,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let Some(krate) = crate_of(rel) else { return };
    for item in &parsed.items {
        let ItemKind::Fn(sig) = &item.kind else {
            continue;
        };
        if !item.is_pub || item.in_trait_impl || in_test(item.line) {
            continue;
        }
        for aq in &symbols.active_quantities {
            let q = &aq.quantity;
            // The newtype's own impl is allowed to speak raw units.
            if item.owner.as_deref() == Some(q.newtype) {
                continue;
            }
            // The rule only binds crates that can actually name the newtype.
            if !symbols.crate_sees(&krate, &aq.def_crate) {
                continue;
            }
            for p in &sig.params {
                if name_denotes(&p.name, q.names, q.suffixes)
                    && q.raw.iter().any(|raw| ty_mentions(&p.ty, raw))
                    && !ty_mentions(&p.ty, q.newtype)
                {
                    out.push(Finding {
                        file: rel.to_owned(),
                        line: item.line,
                        col: item.col,
                        rule: Rule::UnitEscape,
                        message: format!(
                            "pub fn `{}` takes `{}: {}`; use the `{}` newtype from `{}` at public boundaries",
                            item.name, p.name, p.ty, q.newtype, aq.def_crate
                        ),
                    });
                }
            }
            if let Some(ret) = &sig.ret {
                if name_denotes(&item.name, q.names, q.suffixes)
                    && q.raw.iter().any(|raw| ty_mentions(ret, raw))
                    && !ty_mentions(ret, q.newtype)
                {
                    out.push(Finding {
                        file: rel.to_owned(),
                        line: item.line,
                        col: item.col,
                        rule: Rule::UnitEscape,
                        message: format!(
                            "pub fn `{}` returns `{}`; use the `{}` newtype from `{}` at public boundaries",
                            item.name, ret, q.newtype, aq.def_crate
                        ),
                    });
                }
            }
        }
    }
}

/// Span-open variants and the close variant that must balance each within
/// one function body.
const SPAN_PAIRS: [(&str, &str); 2] = [
    ("CampaignStarted", "CampaignFinished"),
    ("SweepStarted", "SweepFinished"),
];

/// One `TraceEvent::Variant` occurrence found by the L8 scanner.
struct EventUse {
    /// Index of the variant ident token.
    at: usize,
    variant: String,
    /// Named fields mentioned at brace depth 1 (`field:`), if braced.
    fields: Vec<String>,
    /// Whether the payload is an explicit construction: at least one
    /// `field:` and no `..` rest token. Match patterns use shorthand or
    /// `..`, so they never count as span opens.
    constructs: bool,
}

/// Scans token stream for `TraceEvent::Variant` uses and their payloads.
fn scan_event_uses(tokens: &[Token]) -> Vec<EventUse> {
    let mut uses = Vec::new();
    let mut i = 0usize;
    while i + 2 < tokens.len() {
        if tokens[i].ident() == Some("TraceEvent")
            && tokens[i + 1].punct() == Some("::")
            && matches!(tokens[i + 2].kind, TokKind::Ident(_))
        {
            let variant = tokens[i + 2].ident().unwrap_or_default().to_owned();
            let mut fields = Vec::new();
            let mut constructs = false;
            if tokens.get(i + 3).and_then(Token::punct) == Some("{") {
                let open = i + 3;
                let mut depth = 0usize;
                let mut close = open;
                for (j, t) in tokens.iter().enumerate().skip(open) {
                    match t.punct() {
                        Some("{") => depth += 1,
                        Some("}") => {
                            depth -= 1;
                            if depth == 0 {
                                close = j;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                let mut named = 0usize;
                let mut rest = false;
                let payload = if close > open {
                    &tokens[open + 1..close]
                } else {
                    &[]
                };
                for seg in parse::split_top_commas(payload) {
                    match (seg.first(), seg.get(1)) {
                        (Some(a), Some(b))
                            if matches!(a.kind, TokKind::Ident(_)) && b.punct() == Some(":") =>
                        {
                            fields.push(a.ident().unwrap_or_default().to_owned());
                            named += 1;
                        }
                        (Some(a), _) if matches!(a.kind, TokKind::Ident(_)) => {
                            // Shorthand `field` — a field mention either way.
                            fields.push(a.ident().unwrap_or_default().to_owned());
                        }
                        (Some(a), _) if a.punct() == Some("..") => rest = true,
                        _ => {}
                    }
                }
                constructs = named > 0 && !rest;
            }
            uses.push(EventUse {
                at: i + 2,
                variant,
                fields,
                constructs,
            });
            i += 3;
            continue;
        }
        i += 1;
    }
    uses
}

/// L8: `TraceEvent` uses must match the workspace schema, and span-open
/// constructions must be balanced by their close variant in the same fn.
fn check_span_balance(
    rel: &str,
    tokens: &[Token],
    parsed: &ParsedFile,
    symbols: &Symbols,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    if symbols.trace_schema.is_empty() {
        return;
    }
    let uses = scan_event_uses(tokens);
    for u in &uses {
        let tok = &tokens[u.at];
        if in_test(tok.line) {
            continue;
        }
        match symbols.trace_schema.get(&u.variant) {
            None => push(
                out,
                rel,
                tok,
                Rule::SpanBalance,
                format!(
                    "`TraceEvent::{}` is not a variant of the workspace trace schema",
                    u.variant
                ),
            ),
            Some(schema) => {
                for f in &u.fields {
                    if !schema.contains(f) {
                        push(
                            out,
                            rel,
                            tok,
                            Rule::SpanBalance,
                            format!(
                                "field `{f}` is not part of the `TraceEvent::{}` schema",
                                u.variant
                            ),
                        );
                    }
                }
            }
        }
    }
    // Balance check: per fn body, an explicit construction of a span-open
    // variant needs a mention of the close variant in the same body.
    for item in &parsed.items {
        let (ItemKind::Fn(_), Some((lo, hi))) = (&item.kind, item.body) else {
            continue;
        };
        if in_test(item.line) {
            continue;
        }
        for (open_v, close_v) in SPAN_PAIRS {
            let opens: Vec<&EventUse> = uses
                .iter()
                .filter(|u| u.at >= lo && u.at < hi && u.variant == open_v && u.constructs)
                .collect();
            if opens.is_empty() {
                continue;
            }
            let closed = uses
                .iter()
                .any(|u| u.at >= lo && u.at < hi && u.variant == close_v);
            if !closed {
                for u in opens {
                    push(
                        out,
                        rel,
                        &tokens[u.at],
                        Rule::SpanBalance,
                        format!(
                            "`{open_v}` span opened in fn `{}` with no matching `{close_v}` on any path",
                            item.name
                        ),
                    );
                }
            }
        }
    }
}

/// Idents whose presence in a spawning fn indicates results are re-merged
/// deterministically before reaching order-sensitive sinks.
const REORDER_MARKERS: [&str; 6] = [
    "StreamFinalizer",
    "emit_record",
    "BTreeMap",
    "BTreeSet",
    "reorder",
    "finalizer",
];

/// L9: thread-spawn sites in deterministic crates must route results
/// through a reorder/finalizer path.
fn check_order_sensitivity(
    rel: &str,
    tokens: &[Token],
    parsed: &ParsedFile,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for item in &parsed.items {
        let (ItemKind::Fn(_), Some((lo, hi))) = (&item.kind, item.body) else {
            continue;
        };
        if in_test(item.line) || hi <= lo {
            continue;
        }
        let body = &tokens[lo..hi.min(tokens.len())];
        let spawn_at = body.iter().enumerate().position(|(j, t)| {
            t.ident() == Some("spawn") && body.get(j + 1).and_then(Token::punct) == Some("(")
        });
        let Some(spawn_at) = spawn_at else { continue };
        let reordered = body.iter().any(|t| {
            t.ident()
                .is_some_and(|id| REORDER_MARKERS.contains(&id) || id.starts_with("sort"))
        });
        if !reordered {
            push(
                out,
                rel,
                &body[spawn_at],
                Rule::OrderSensitivity,
                format!(
                    "fn `{}` spawns workers without a reorder/finalizer path; completion order will leak into output",
                    item.name
                ),
            );
        }
    }
}

/// Fallible I/O-ish method names whose `Result` must not be dropped
/// silently in deterministic crates.
const IO_METHODS: [&str; 9] = [
    "flush",
    "send",
    "recv",
    "sync_all",
    "sync_data",
    "write_all",
    "write_fmt",
    "set_len",
    "wait",
];

/// Whether a discarded expression's tokens contain a fallible I/O, fs, or
/// always-`Result` workspace call.
fn expr_swallows_result(expr: &[Token], symbols: &Symbols) -> Option<String> {
    for (j, t) in expr.iter().enumerate() {
        let next_is = |p: &str| expr.get(j + 1).and_then(Token::punct) == Some(p);
        if let Some(id) = t.ident() {
            let prev_punct = j.checked_sub(1).and_then(|k| expr[k].punct());
            if next_is("(") {
                if prev_punct == Some(".") && IO_METHODS.contains(&id) {
                    return Some(format!(".{id}()"));
                }
                if prev_punct == Some("::") && j >= 2 && expr[j - 2].ident() == Some("fs") {
                    return Some(format!("fs::{id}()"));
                }
                if prev_punct != Some(".") && symbols.always_returns_result(id) {
                    return Some(format!("{id}()"));
                }
            }
            if (id == "write" || id == "writeln") && next_is("!") {
                // Fallible only when the target is a field/path expression
                // (`self.writer`, `io::stderr()`); a bare local ident is a
                // `fmt::Write` String target and infallible.
                if let Some(open) =
                    (j + 2..expr.len()).find(|k| matches!(expr[*k].punct(), Some("(" | "[" | "{")))
                {
                    let args = &expr[open + 1..];
                    let target: Vec<&Token> = parse::split_top_commas(args)
                        .first()
                        .map(|s| s.iter().collect())
                        .unwrap_or_default();
                    if target.iter().any(|t| matches!(t.punct(), Some("." | "::"))) {
                        return Some(format!("{id}!"));
                    }
                }
            }
        }
    }
    None
}

/// L10: `let _ =` / `drop(...)` silently discarding a fallible result.
fn check_swallowed_fallibility(
    rel: &str,
    tokens: &[Token],
    symbols: &Symbols,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if in_test(t.line) {
            i += 1;
            continue;
        }
        // `let _ = <expr> ;`
        if t.ident() == Some("let")
            && tokens.get(i + 1).and_then(Token::ident) == Some("_")
            && tokens.get(i + 2).and_then(Token::punct) == Some("=")
        {
            let start = i + 3;
            let mut depth = 0i32;
            let mut end = start;
            while end < tokens.len() {
                match tokens[end].punct() {
                    Some("(" | "[" | "{") => depth += 1,
                    Some(")" | "]" | "}") => depth -= 1,
                    Some(";") if depth == 0 => break,
                    _ => {}
                }
                end += 1;
            }
            if let Some(what) = expr_swallows_result(&tokens[start..end], symbols) {
                push(
                    out,
                    rel,
                    t,
                    Rule::SwallowedFallibility,
                    format!(
                        "`let _ =` discards the Result of `{what}`; handle the error or add an accounted waiver"
                    ),
                );
            }
            i = end;
            continue;
        }
        // `drop(<expr>)` — the free function, not `.drop()` or `fn drop`.
        if t.ident() == Some("drop")
            && tokens.get(i + 1).and_then(Token::punct) == Some("(")
            && i.checked_sub(1)
                .is_none_or(|k| tokens[k].punct() != Some(".") && tokens[k].ident() != Some("fn"))
        {
            let open = i + 1;
            let mut depth = 0i32;
            let mut close = open;
            while close < tokens.len() {
                match tokens[close].punct() {
                    Some("(") => depth += 1,
                    Some(")") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                close += 1;
            }
            if let Some(what) =
                expr_swallows_result(&tokens[open + 1..close.min(tokens.len())], symbols)
            {
                push(
                    out,
                    rel,
                    t,
                    Rule::SwallowedFallibility,
                    format!(
                        "`drop(..)` discards the Result of `{what}`; handle the error or add an accounted waiver"
                    ),
                );
            }
            i = close;
            continue;
        }
        i += 1;
    }
}

/// L6: stale file extensions. Applies to *paths*, not contents.
#[must_use]
pub fn check_stale_file(rel: &str) -> Option<Finding> {
    let stale = [".bak", ".orig", ".rej"]
        .iter()
        .find(|ext| rel.ends_with(**ext))?;
    Some(Finding {
        file: rel.to_owned(),
        line: 0,
        col: 0,
        rule: Rule::StaleFile,
        message: format!("stale `{stale}` file checked into the tree; delete it"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DET: FileScope = FileScope {
        is_test_context: false,
        is_deterministic_path: true,
    };

    fn lint(src: &str) -> FileOutcome {
        lint_rust_file("crates/sim/src/x.rs", src, DET)
    }

    fn rules_of(out: &FileOutcome) -> Vec<Rule> {
        out.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_and_expect_flagged() {
        let out = lint("fn f() { x.unwrap(); y.expect(\"msg\"); }");
        assert_eq!(rules_of(&out), vec![Rule::NoPanic, Rule::NoPanic]);
    }

    #[test]
    fn unwrap_in_cfg_test_module_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n fn g() { x.unwrap(); }\n}\n";
        assert!(lint(src).findings.is_empty());
    }

    #[test]
    fn unwrap_or_else_not_flagged() {
        let out = lint("fn f() { x.unwrap_or_else(|| 3); x.unwrap_or(1); }");
        assert!(out.findings.is_empty());
    }

    #[test]
    fn waiver_same_line_and_line_above() {
        let same = "fn f() { x.unwrap(); } // lint: allow(no-panic) — invariant";
        let out = lint(same);
        assert!(out.findings.is_empty());
        assert_eq!(out.waivers.len(), 1);
        assert!(out.waivers[0].used);

        let above = "fn f() {\n // lint: allow(no-panic) — invariant\n x.unwrap();\n}";
        assert!(lint(above).findings.is_empty());
    }

    #[test]
    fn unused_waiver_reported_unused() {
        let out = lint("// lint: allow(no-panic)\nfn f() { let a = 1; }");
        assert!(out.findings.is_empty());
        assert_eq!(out.waivers.len(), 1);
        assert!(!out.waivers[0].used);
    }

    #[test]
    fn waiver_only_covers_its_rule() {
        let src = "fn f() { x.unwrap(); } // lint: allow(hash-iter)";
        let out = lint(src);
        assert_eq!(rules_of(&out), vec![Rule::NoPanic]);
    }

    #[test]
    fn hashmap_flagged_only_on_deterministic_path() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        assert_eq!(lint(src).findings.len(), 3);
        let other = lint_rust_file(
            "crates/bench/src/x.rs",
            src,
            FileScope {
                is_test_context: false,
                is_deterministic_path: false,
            },
        );
        assert!(other.findings.is_empty());
    }

    #[test]
    fn float_eq_heuristics() {
        let out = lint("fn f(v: f64) { if v == 3.3 {} if (v as f64) != w {} }");
        assert_eq!(rules_of(&out), vec![Rule::FloatEq, Rule::FloatEq]);
        // Integer comparisons and range patterns stay clean.
        assert!(lint("fn f(v: u32) { if v == 905 {} let r = 0..10; }")
            .findings
            .is_empty());
    }

    #[test]
    fn unseeded_rng_applies_everywhere_nontest() {
        let src = "fn f() { let r = rand::thread_rng(); let x: u8 = rand::random(); let s = StdRng::from_entropy(); }";
        let out = lint_rust_file(
            "crates/bench/src/x.rs",
            src,
            FileScope {
                is_test_context: false,
                is_deterministic_path: false,
            },
        );
        assert_eq!(
            rules_of(&out),
            vec![Rule::UnseededRng, Rule::UnseededRng, Rule::UnseededRng]
        );
    }

    #[test]
    fn wall_clock_flagged() {
        let out = lint("fn f() { let t = std::time::Instant::now(); }");
        assert_eq!(rules_of(&out), vec![Rule::WallClock]);
    }

    #[test]
    fn test_context_files_are_exempt() {
        let out = lint_rust_file(
            "crates/sim/tests/t.rs",
            "fn f() { x.unwrap(); thread_rng(); }",
            FileScope {
                is_test_context: true,
                is_deterministic_path: true,
            },
        );
        assert!(out.findings.is_empty());
    }

    #[test]
    fn classify_paths() {
        assert!(classify_path("crates/lint/tests/fixtures/seedlike/x.rs").is_none());
        assert!(classify_path("target/debug/x.rs").is_none());
        let s = classify_path("crates/sim/src/volt.rs").unwrap();
        assert!(s.is_deterministic_path && !s.is_test_context);
        let t = classify_path("crates/sim/tests/proptest_sim.rs").unwrap();
        assert!(t.is_test_context);
        let b = classify_path("crates/bench/src/lib.rs").unwrap();
        assert!(!b.is_deterministic_path);
        let tr = classify_path("crates/trace/src/sink.rs").unwrap();
        assert!(tr.is_deterministic_path && !tr.is_test_context);
        let root = classify_path("src/bin/voltmargin.rs").unwrap();
        assert!(!root.is_deterministic_path && !root.is_test_context);
    }

    #[test]
    fn stale_file_rule() {
        assert!(check_stale_file("crates/bench/src/lib.rs.bak").is_some());
        assert!(check_stale_file("crates/bench/src/lib.rs").is_none());
        assert!(check_stale_file("a/b.orig").is_some());
    }

    #[test]
    fn tokens_in_strings_do_not_fire() {
        let src = r#"fn f() { let s = "x.unwrap() HashMap thread_rng"; }"#;
        assert!(lint(src).findings.is_empty());
    }

    // ------------------------------------------------------------------
    // Semantic rules L7–L10 against a hand-built symbol table.

    fn sim_symbols() -> Symbols {
        let mut sym = Symbols::default();
        sym.newtypes
            .insert("Millivolts".into(), ("u32".into(), "sim".into()));
        sym.newtypes
            .insert("CoreId".into(), ("u8".into(), "sim".into()));
        sym.trace_schema.insert(
            "SweepStarted".into(),
            ["program", "dataset", "core"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
        );
        sym.trace_schema.insert(
            "SweepFinished".into(),
            ["program", "vmin_mv"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
        );
        sym.fn_result.insert("persist_cache".into(), (1, 1));
        sym.fn_result.insert("lookup".into(), (1, 2));
        sym.active_quantities = vec![
            crate::symbols::ActiveQuantity {
                quantity: crate::symbols::Quantity {
                    newtype: "Millivolts",
                    raw: &["u32"],
                    names: &["mv"],
                    suffixes: &["_mv"],
                },
                def_crate: "sim".into(),
            },
            crate::symbols::ActiveQuantity {
                quantity: crate::symbols::Quantity {
                    newtype: "CoreId",
                    raw: &["u8"],
                    names: &["core"],
                    suffixes: &[],
                },
                def_crate: "sim".into(),
            },
        ];
        sym
    }

    fn lint_sem(src: &str) -> FileOutcome {
        lint_rust_file_semantic("crates/sim/src/x.rs", src, DET, &sim_symbols())
    }

    #[test]
    fn unit_escape_flags_raw_param_and_return() {
        let out = lint_sem("pub fn set(mv: u32) {}\npub fn vmin_mv(&self) -> Option<u32> { None }");
        assert_eq!(rules_of(&out), vec![Rule::UnitEscape, Rule::UnitEscape]);
    }

    #[test]
    fn unit_escape_exemptions() {
        // Private fn, typed param, newtype's own impl, unrelated name.
        let src = "fn step(mv: u32) {}\n\
                   pub fn set(mv: Millivolts) {}\n\
                   impl Millivolts { pub fn new(mv: u32) -> Self { Self(mv) } }\n\
                   pub fn count(n: u32) {}";
        assert!(lint_sem(src).findings.is_empty());
    }

    #[test]
    fn unit_escape_needs_dep_visibility() {
        // `trace` does not depend on `sim`, so it cannot name Millivolts.
        let out = lint_rust_file_semantic(
            "crates/trace/src/x.rs",
            "pub fn set(mv: u32) {}",
            DET,
            &sim_symbols(),
        );
        assert!(out.findings.is_empty());
    }

    #[test]
    fn span_balance_unknown_variant_and_field() {
        let out = lint_sem(
            "fn f(o: &O) { o.record(&TraceEvent::Bogus { x: 1 }); }\n\
             fn g(o: &O) { o.record(&TraceEvent::SweepFinished { program: p, typo: 1 }); }",
        );
        assert_eq!(rules_of(&out), vec![Rule::SpanBalance, Rule::SpanBalance]);
        assert!(out.findings[0].message.contains("Bogus"));
        assert!(out.findings[1].message.contains("typo"));
    }

    #[test]
    fn span_balance_reads_a_macro_declared_schema() {
        let decl = "trace_events! {\n\
                    pub enum TraceEvent { RailSet { rail: String, mv: u32 } }\n\
                    }";
        let mut per_file = std::collections::BTreeMap::new();
        per_file.insert(
            "crates/trace/src/event.rs".to_owned(),
            crate::symbols::file_symbols(&parse::parse(&lex(decl).tokens)),
        );
        let sym = Symbols::build(&per_file, &std::collections::BTreeMap::new());
        let out = lint_rust_file_semantic(
            "crates/sim/src/x.rs",
            "fn f(o: &O) { o.record(&TraceEvent::RailSet { rail: r, mv: 900, typo: 2 }); }\n\
             fn g(o: &O) { o.record(&TraceEvent::RailSat { rail: r, mv: 900 }); }\n\
             fn h(o: &O) { o.record(&TraceEvent::RailSet { rail: r, mv: 900 }); }",
            DET,
            &sym,
        );
        assert_eq!(rules_of(&out), vec![Rule::SpanBalance, Rule::SpanBalance]);
        assert!(out.findings[0].message.contains("typo"));
        assert!(out.findings[1].message.contains("RailSat"));
    }

    #[test]
    fn span_balance_unclosed_open_flagged() {
        let src = "fn f(o: &O) { o.record(&TraceEvent::SweepStarted { program: p, core: c }); }";
        let out = lint_sem(src);
        assert_eq!(rules_of(&out), vec![Rule::SpanBalance]);
        assert!(out.findings[0].message.contains("SweepFinished"));
    }

    #[test]
    fn span_balance_closed_open_and_patterns_ok() {
        // Open + close in the same fn is balanced; match patterns with `..`
        // or shorthand are not constructions.
        let src = "fn f(o: &O) {\n\
                     o.record(&TraceEvent::SweepStarted { program: p, core: c });\n\
                     o.record(&TraceEvent::SweepFinished { program: p, vmin_mv: v });\n\
                   }\n\
                   fn g(e: &TraceEvent) { match e { TraceEvent::SweepStarted { program, .. } => (), _ => () } }";
        assert!(lint_sem(src).findings.is_empty());
    }

    #[test]
    fn order_sensitivity_flags_bare_spawn() {
        let out = lint_sem("fn run(s: &S) { s.spawn(|| work()); collect(); }");
        assert_eq!(rules_of(&out), vec![Rule::OrderSensitivity]);
    }

    #[test]
    fn order_sensitivity_reorder_path_ok() {
        let src = "fn run(s: &S) { s.spawn(|| work()); let pending = BTreeMap::new(); emit_record(pending); }";
        assert!(lint_sem(src).findings.is_empty());
    }

    #[test]
    fn swallowed_fallibility_flags_io_and_workspace_results() {
        let src = "fn f(w: &mut W) { let _ = w.flush(); }\n\
                   fn g() { let _ = persist_cache(&path); }\n\
                   fn h(w: &mut W) { let _ = writeln!(self.writer, \"x\"); }\n\
                   fn k() { drop(fs::remove_file(p)); }";
        let out = lint_sem(src);
        assert_eq!(rules_of(&out), vec![Rule::SwallowedFallibility; 4]);
    }

    #[test]
    fn swallowed_fallibility_exemptions() {
        // String-target write! is infallible; `lookup` is not always-Result;
        // plain drops of values are fine; waived sites count as waivers.
        let src = "fn f(out: &mut String) { let _ = writeln!(out, \"x\"); }\n\
                   fn g() { let _ = lookup(k); }\n\
                   fn h(v: Vec<u8>) { drop(v); }\n\
                   fn k(w: &mut W) {\n\
                     // lint: allow(swallowed-fallibility) — best-effort progress\n\
                     let _ = w.flush();\n\
                   }";
        let out = lint_sem(src);
        assert!(out.findings.is_empty());
        assert_eq!(out.waivers.len(), 1);
        assert!(out.waivers[0].used);
    }

    #[test]
    fn semantic_rules_skip_test_spans() {
        let src = "#[cfg(test)]\nmod tests {\n pub fn set(mv: u32) {}\n fn f(w: &mut W) { let _ = w.flush(); }\n}";
        assert!(lint_sem(src).findings.is_empty());
    }
}

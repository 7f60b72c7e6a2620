//! The determinism rules.
//!
//! Every artifact this workspace emits is contractually byte-identical
//! across thread counts. The dynamic pins
//! (`tests/campaign_determinism.rs`, `tests/obs_metrics.rs`, the CI
//! smoke diffs) can only catch a violation a seed happens to exercise;
//! these rules classify the hazard *classes* at the source instead:
//!
//! | rule | hazard |
//! |------|--------|
//! | `D1` | unordered `HashMap`/`HashSet` traversal (or Debug-format) in artifact-producing crates |
//! | `D2` | wall-clock / host-parallelism reads not justified with `allow(D2)` |
//! | `D3` | raw `{:?}` or float `{}` formatting inside JSON/artifact-emitting functions |
//! | `D4` | `SimComponent` callbacks bypassing the `ActionSink` write-phase discipline |
//! | `D5` | metrics-name hygiene: canonical lowercase dotted names, one kind per name |
//! | `D7` | a library `pub fn` that no other crate, example or doc example names |
//! | `D0` | a `detlint: allow(..)` suppression without a written justification |
//!
//! Detection is lexical and deliberately conservative: each rule fires
//! on the token shapes that have actually produced (or nearly
//! produced) nondeterminism in this repo's history, and anything it
//! cannot prove is left to the dynamic pins. False positives are
//! handled by `// detlint: allow(<rule>) -- <reason>`, which demands a
//! justification precisely because it weakens a static guarantee.
//!
//! `D7` guards the API rather than determinism: the public surface is
//! what the workspace calls. It needs every file of the run before it
//! can judge one, so the engine gathers [`Callers`] first. (`D6` is
//! reserved.)

use crate::lexer::{self, Comment, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Stable metadata for one rule, used by `--rules` and the README
/// table.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub hint: &'static str,
}

/// Every rule, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D0",
        summary: "detlint allow() without a `-- reason` justification (or naming an unknown rule)",
        hint: "write `// detlint: allow(<rule>) -- <why this site is safe>`",
    },
    RuleInfo {
        id: "D1",
        summary: "HashMap/HashSet iteration or Debug-format in an artifact-producing crate",
        hint: "use BTreeMap/BTreeSet (or sort before traversal); keyed lookup is fine",
    },
    RuleInfo {
        id: "D2",
        summary: "Instant::now/SystemTime/available_parallelism outside timing-sidecar/bench-report modules",
        hint: "host time is execution-class: keep it in the --timing-json sidecar, or justify with allow(D2)",
    },
    RuleInfo {
        id: "D3",
        summary: "raw {:?} or float {} formatting inside a JSON/artifact-emitting function",
        hint: "emit through offramps_bench::json (escape/number/ObjectWriter); Debug output is not a stable format",
    },
    RuleInfo {
        id: "D4",
        summary: "SimComponent callback calling scheduler mutators or draining the sink directly",
        hint: "components answer only through ActionSink::send/send_at/wake_at; the scheduler's write phase commits",
    },
    RuleInfo {
        id: "D5",
        summary: "metric name not lowercase-dotted, or one name registered as two kinds",
        hint: "metric names are canonical `sub.system.name`; one name = one kind (counter|histogram)",
    },
    RuleInfo {
        id: "D7",
        summary: "library pub fn named by no other crate, src/, examples/ or fenced doc example",
        hint: "narrow it to pub(crate) or delete it; a kept site says `allow(D7) -- <its caller>`",
    },
];

/// Looks up a rule id (`"D1"`), returning its info.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One finding, prior to suppression matching.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
    /// Set by the engine when a well-formed `allow` covers this
    /// finding.
    pub suppressed: bool,
}

impl Finding {
    /// Renders `file:line: RULE message` (the stable shape the fixture
    /// goldens pin).
    pub fn render(&self) -> String {
        format!("{}:{}: {} {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Where a file sits in the determinism contract — derived from its
/// path by the engine, or set explicitly by the fixture harness.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Path as displayed in findings.
    pub display: String,
    /// In an artifact-producing crate (core/bench/store/obs/
    /// sidechannel or the umbrella src/)? Gates D1 and D3.
    pub artifact: bool,
    /// The crate a file belongs to, for D7: `<name>` under
    /// `crates/<name>/`, otherwise the file itself.
    pub krate: String,
    /// Library source whose `pub fn`s D7 checks (`crates/*/src`).
    pub library: bool,
}

/// The crate key of a doc example: compiled as its own crate, it
/// calls every crate from outside.
const DOC_EXAMPLE: &str = "<doc example>";

/// Cross-crate identifier table for D7: every identifier the run's
/// non-test code names, with the crates that name it. Fenced doc
/// examples count as a crate of their own. One table spans the whole
/// lint run and is complete before any file is judged.
#[derive(Debug, Default)]
pub struct Callers {
    by_name: BTreeMap<String, BTreeSet<String>>,
}

impl Callers {
    fn note(&mut self, name: &str, krate: &str) {
        self.by_name
            .entry(name.to_string())
            .or_default()
            .insert(krate.to_string());
    }

    fn named_outside(&self, name: &str, krate: &str) -> bool {
        self.by_name
            .get(name)
            .is_some_and(|crates| crates.iter().any(|k| k != krate))
    }
}

/// Cross-file metric registration table for D5. One table spans the
/// whole lint run, so a name counted in `cache.rs` and observed as a
/// histogram in `campaign.rs` is a conflict.
#[derive(Debug, Default)]
pub struct MetricsTable {
    by_name: BTreeMap<String, MetricSig>,
}

#[derive(Debug, Clone)]
struct MetricSig {
    kind: &'static str,
    file: String,
    line: u32,
}

/// A half-open token region `[start, end)` with its line span.
#[derive(Debug, Clone, Copy)]
struct Region {
    start: usize,
    end: usize,
}

/// Analyzed file: token stream plus the structural regions the rules
/// share (test modules, fn bodies, impl blocks).
pub struct Analysis<'a> {
    toks: &'a [Tok],
    ctx: &'a FileCtx,
    test_lines: Vec<(u32, u32)>,
    fns: Vec<FnRegion>,
    to_json_impls: Vec<Region>,
    sim_component_impls: Vec<Region>,
}

#[derive(Debug, Clone)]
struct FnRegion {
    name: String,
    region: Region,
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

const FORMAT_MACROS: &[&str] = &[
    "format",
    "write",
    "writeln",
    "print",
    "println",
    "eprint",
    "eprintln",
    "panic",
    "assert",
    "debug_assert",
];

const PATH_FILLER: &[&str] = &["std", "alloc", "collections", "thread", "time"];

impl<'a> Analysis<'a> {
    pub fn new(toks: &'a [Tok], ctx: &'a FileCtx) -> Self {
        let test_lines = find_test_regions(toks);
        let fns = find_fn_regions(toks);
        let to_json_impls = find_impl_regions(toks, "ToJson");
        let sim_component_impls = find_impl_regions(toks, "SimComponent");
        Analysis {
            toks,
            ctx,
            test_lines,
            fns,
            to_json_impls,
            sim_component_impls,
        }
    }

    fn in_test(&self, line: u32) -> bool {
        self.test_lines
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    fn finding(&self, line: u32, rule_id: &'static str, msg: String) -> Finding {
        Finding {
            file: self.ctx.display.clone(),
            line,
            rule: rule_id,
            msg,
            suppressed: false,
        }
    }

    /// Adds this file's identifiers to `callers`: those of its
    /// non-test code under its own crate, and those inside fenced
    /// examples of its doc comments (`///`, `//!`) as a doc example.
    pub fn gather_callers(&self, comments: &[Comment], callers: &mut Callers) {
        for tok in self.toks {
            if tok.kind == TokKind::Ident && !self.in_test(tok.line) {
                callers.note(&tok.text, &self.ctx.krate);
            }
        }
        let mut fenced = String::new();
        let mut in_fence = false;
        for c in comments {
            let Some(body) = c.text.strip_prefix(['/', '!']) else {
                continue;
            };
            if body.trim_start().starts_with("```") {
                in_fence = !in_fence;
            } else if in_fence {
                fenced.push_str(body);
                fenced.push('\n');
            }
        }
        for tok in lexer::lex(&fenced).0 {
            if tok.kind == TokKind::Ident {
                callers.note(&tok.text, DOC_EXAMPLE);
            }
        }
    }

    /// Runs every rule over the file.
    pub fn run(&self, metrics: &mut MetricsTable, callers: &Callers) -> Vec<Finding> {
        let mut out = Vec::new();
        if self.ctx.artifact {
            self.rule_d1(&mut out);
            self.rule_d3(&mut out);
        }
        self.rule_d2(&mut out);
        self.rule_d4(&mut out);
        self.rule_d5(metrics, &mut out);
        if self.ctx.library {
            self.rule_d7(callers, &mut out);
        }
        out.sort_by_key(|f| (f.line, f.rule));
        out
    }

    // ----- D1: unordered hash traversal in artifact crates -----

    fn rule_d1(&self, out: &mut Vec<Finding>) {
        let names = self.hash_bound_names();
        if names.is_empty() {
            return;
        }
        let t = self.toks;
        let mut i = 0;
        while i < t.len() {
            if self.in_test(t[i].line) {
                i += 1;
                continue;
            }
            // `for pat in [& mut] [self .] NAME {` — unordered loop.
            if t[i].is_ident("in") {
                let mut j = i + 1;
                while j < t.len()
                    && (t[j].is_punct('&')
                        || t[j].is_ident("mut")
                        || t[j].is_ident("self")
                        || t[j].is_punct('.'))
                {
                    j += 1;
                }
                if j + 1 < t.len()
                    && t[j].kind == TokKind::Ident
                    && names.contains(t[j].text.as_str())
                    && t[j + 1].is_punct('{')
                {
                    out.push(self.finding(
                        t[j].line,
                        "D1",
                        format!(
                            "for-loop over hash collection `{}` — traversal order is unspecified",
                            t[j].text
                        ),
                    ));
                }
            }
            // `NAME . method (` with an iteration method.
            if t[i].kind == TokKind::Ident
                && names.contains(t[i].text.as_str())
                && i + 3 < t.len()
                && t[i + 1].is_punct('.')
                && t[i + 2].kind == TokKind::Ident
                && ITER_METHODS.contains(&t[i + 2].text.as_str())
                && t[i + 3].is_punct('(')
            {
                out.push(self.finding(
                    t[i].line,
                    "D1",
                    format!(
                        "`{}.{}()` traverses a hash collection in unspecified order",
                        t[i].text,
                        t[i + 2].text
                    ),
                ));
            }
            // Debug-format of a hash collection in a format macro.
            if let Some(mac) = self.format_macro_at(i) {
                if mac.literal.contains(":?") {
                    for arg in &mac.arg_idents {
                        if names.contains(arg.as_str()) {
                            out.push(self.finding(
                                mac.line,
                                "D1",
                                format!(
                                    "Debug-format of hash collection `{arg}` — `{{:?}}` order is unspecified"
                                ),
                            ));
                        }
                    }
                    for name in &names {
                        if mac.literal.contains(&format!("{{{name}:?}}")) {
                            out.push(self.finding(
                                mac.line,
                                "D1",
                                format!(
                                    "Debug-format of hash collection `{name}` — `{{:?}}` order is unspecified"
                                ),
                            ));
                        }
                    }
                }
            }
            i += 1;
        }
    }

    /// Names bound to `HashMap`/`HashSet` in this file: `let`
    /// bindings, fn parameters, and struct fields (which also covers
    /// `self.name` receivers — the field name is what the method-call
    /// scan sees).
    fn hash_bound_names(&self) -> BTreeSet<String> {
        let t = self.toks;
        let mut names = BTreeSet::new();
        for (i, tok) in t.iter().enumerate() {
            if !(tok.is_ident("HashMap") || tok.is_ident("HashSet")) {
                continue;
            }
            // Walk back over path/reference filler to the binding
            // shape: `NAME :` (typed binding, param, field) or
            // `let [mut] NAME =` (inferred binding).
            let mut j = i;
            while j > 0 {
                let p = &t[j - 1];
                let filler = p.is_punct(':') && j >= 2 && t[j - 2].is_punct(':'); // `::`
                if filler {
                    j -= 2;
                    continue;
                }
                if p.kind == TokKind::Ident && PATH_FILLER.contains(&p.text.as_str()) {
                    j -= 1;
                    continue;
                }
                if p.is_punct('&')
                    || p.is_punct('<')
                    || p.is_ident("mut")
                    || p.kind == TokKind::Lifetime
                {
                    j -= 1;
                    continue;
                }
                break;
            }
            if j == 0 {
                continue;
            }
            // `NAME : HashMap` (single colon).
            if j >= 2 && t[j - 1].is_punct(':') && !t[j - 2].is_punct(':') {
                if t[j - 2].kind == TokKind::Ident {
                    names.insert(t[j - 2].text.clone());
                }
                continue;
            }
            // `let [mut] NAME = ... HashMap`.
            if t[j - 1].is_punct('=') && j >= 2 && t[j - 2].kind == TokKind::Ident {
                let name_at = j - 2;
                let before = name_at.checked_sub(1).map(|k| &t[k]);
                let before2 = name_at.checked_sub(2).map(|k| &t[k]);
                let let_bound = matches!(before, Some(b) if b.is_ident("let"))
                    || (matches!(before, Some(b) if b.is_ident("mut"))
                        && matches!(before2, Some(b) if b.is_ident("let")));
                if let_bound {
                    names.insert(t[name_at].text.clone());
                }
            }
        }
        names
    }

    // ----- D2: wall-clock and host-parallelism reads -----

    fn rule_d2(&self, out: &mut Vec<Finding>) {
        let t = self.toks;
        for (i, tok) in t.iter().enumerate() {
            if self.in_test(tok.line) || tok.kind != TokKind::Ident {
                continue;
            }
            let hit = match tok.text.as_str() {
                "Instant" => {
                    // Only the read (`Instant::now`), not the type in a
                    // signature — a fn *receiving* an Instant is fine.
                    i + 3 < t.len()
                        && t[i + 1].is_punct(':')
                        && t[i + 2].is_punct(':')
                        && t[i + 3].is_ident("now")
                }
                "SystemTime" | "available_parallelism" => true,
                _ => false,
            };
            if hit {
                let callee = if tok.text == "Instant" {
                    "Instant::now".to_string()
                } else {
                    tok.text.clone()
                };
                out.push(self.finding(
                    tok.line,
                    "D2",
                    format!("`{callee}` reads host execution state"),
                ));
            }
        }
    }

    // ----- D3: raw formatting inside JSON-emitting functions -----

    fn in_json_emitter(&self, idx: usize) -> bool {
        let named = self.fns.iter().any(|f| {
            (f.region.start..f.region.end).contains(&idx)
                && (f.name.contains("json") || f.name.starts_with("render"))
        });
        named
            || self
                .to_json_impls
                .iter()
                .any(|r| (r.start..r.end).contains(&idx))
    }

    fn rule_d3(&self, out: &mut Vec<Finding>) {
        for i in 0..self.toks.len() {
            let Some(mac) = self.format_macro_at(i) else {
                continue;
            };
            if self.in_test(mac.line) || !self.in_json_emitter(i) {
                continue;
            }
            if mac.literal.contains(":?") {
                out.push(self.finding(
                    mac.line,
                    "D3",
                    "`{:?}` inside a JSON-emitting function — Debug is not a canonical encoding"
                        .to_string(),
                ));
            } else if mac.literal.contains("{:.") {
                out.push(self.finding(
                    mac.line,
                    "D3",
                    "manual float precision formatting inside a JSON-emitting function".to_string(),
                ));
            } else if mac.literal.contains("{}") && mac.has_float_hint {
                out.push(self.finding(
                    mac.line,
                    "D3",
                    "float `{}` formatting inside a JSON-emitting function — route floats through json::number"
                        .to_string(),
                ));
            }
        }
    }

    // ----- D4: write-phase discipline in SimComponent callbacks -----

    fn rule_d4(&self, out: &mut Vec<Finding>) {
        let t = self.toks;
        for region in &self.sim_component_impls {
            let mut i = region.start;
            while i < region.end {
                let tok = &t[i];
                if self.in_test(tok.line) {
                    i += 1;
                    continue;
                }
                if tok.is_ident("Scheduler") {
                    out.push(self.finding(
                        tok.line,
                        "D4",
                        "SimComponent code references the Scheduler — components only see the ActionSink"
                            .to_string(),
                    ));
                }
                // `recv . method (` where the receiver or method names
                // a scheduler mutation or a sink lifecycle call.
                if tok.kind == TokKind::Ident
                    && i + 3 < region.end
                    && t[i + 1].is_punct('.')
                    && t[i + 2].kind == TokKind::Ident
                    && t[i + 3].is_punct('(')
                {
                    let recv = tok.text.as_str();
                    let method = t[i + 2].text.as_str();
                    let scheduler_recv = matches!(recv, "scheduler" | "sched");
                    let mutator = matches!(method, "add_component" | "connect" | "step" | "commit");
                    let sink_lifecycle = recv == "sink" && matches!(method, "drain" | "begin");
                    if mutator && (scheduler_recv || recv == "sink") {
                        out.push(self.finding(
                            tok.line,
                            "D4",
                            format!(
                                "`{recv}.{method}()` mutates the scheduler from a SimComponent callback"
                            ),
                        ));
                    } else if sink_lifecycle {
                        out.push(self.finding(
                            tok.line,
                            "D4",
                            format!(
                                "`sink.{method}()` — the sink's lifecycle belongs to the scheduler's write phase"
                            ),
                        ));
                    }
                }
                i += 1;
            }
        }
    }

    // ----- D5: metrics-name hygiene -----

    fn rule_d5(&self, metrics: &mut MetricsTable, out: &mut Vec<Finding>) {
        let t = self.toks;
        let mut i = 0;
        while i + 2 < t.len() {
            let site = (|| -> Option<(u32, &'static str, String)> {
                if !t[i].is_punct('.') {
                    return None;
                }
                let method = &t[i + 1];
                if method.kind != TokKind::Ident || !t[i + 2].is_punct('(') {
                    return None;
                }
                let kind = match method.text.as_str() {
                    "count" => "counter",
                    "observe" => "histogram",
                    _ => return None,
                };
                let args = self.call_args(i + 2)?;
                let name = first_name_literal(t, &args)?;
                Some((method.line, kind, name))
            })();
            if let Some((line, kind, name)) = site {
                if !self.in_test(line) {
                    self.check_metric(metrics, line, kind, &name, out);
                }
            }
            i += 1;
        }
    }

    fn check_metric(
        &self,
        metrics: &mut MetricsTable,
        line: u32,
        kind: &'static str,
        name: &str,
        out: &mut Vec<Finding>,
    ) {
        // Canonical shape: lowercase dotted, `{..}` format holes
        // allowed (they stand for a detector or workload name).
        let mut flat = String::new();
        let mut depth = 0usize;
        for c in name.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if depth == 1 {
                        flat.push('x');
                    }
                }
                '}' => depth = depth.saturating_sub(1),
                _ if depth > 0 => {}
                _ => flat.push(c),
            }
        }
        let char_ok = flat
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.');
        let shape_ok = char_ok
            && flat.contains('.')
            && !flat.starts_with('.')
            && !flat.ends_with('.')
            && !flat.contains("..");
        if !shape_ok {
            out.push(self.finding(
                line,
                "D5",
                format!(
                    "metric name {name:?} is not canonical lowercase dotted (`sub.system.name`)"
                ),
            ));
            return;
        }
        match metrics.by_name.get(name) {
            None => {
                metrics.by_name.insert(
                    name.to_string(),
                    MetricSig {
                        kind,
                        file: self.ctx.display.clone(),
                        line,
                    },
                );
            }
            Some(sig) if sig.kind != kind => {
                out.push(self.finding(
                    line,
                    "D5",
                    format!(
                        "metric {name:?} registered as a {kind} here but as a {} at {}:{}",
                        sig.kind, sig.file, sig.line
                    ),
                ));
            }
            Some(_) => {}
        }
    }

    // ----- D7: a library pub fn needs a caller outside its crate -----

    fn rule_d7(&self, callers: &Callers, out: &mut Vec<Finding>) {
        let t = self.toks;
        for i in 0..t.len() {
            if !t[i].is_ident("pub") || self.in_test(t[i].line) {
                continue;
            }
            // `pub fn NAME` or `pub const fn NAME`; `pub(crate)` has a
            // `(` after `pub` and never matches.
            let mut j = i + 1;
            if t.get(j).is_some_and(|tok| tok.is_ident("const")) {
                j += 1;
            }
            if !t.get(j).is_some_and(|tok| tok.is_ident("fn")) {
                continue;
            }
            let Some(name) = t.get(j + 1).filter(|tok| tok.kind == TokKind::Ident) else {
                continue;
            };
            if !callers.named_outside(&name.text, &self.ctx.krate) {
                out.push(self.finding(
                    name.line,
                    "D7",
                    format!(
                        "`pub fn {}` is named nowhere outside crate `{}`",
                        name.text, self.ctx.krate
                    ),
                ));
            }
        }
    }

    // ----- shared helpers -----

    /// Token indices of the top-level argument tokens of a call whose
    /// `(` is at `open`. Returns indices up to (not including) the
    /// matching `)`.
    fn call_args(&self, open: usize) -> Option<Vec<usize>> {
        let t = self.toks;
        if !t.get(open)?.is_punct('(') {
            return None;
        }
        let mut depth = 0i32;
        let mut out = Vec::new();
        for (k, tok) in t.iter().enumerate().skip(open) {
            if tok.is_punct('(') || tok.is_punct('[') || tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct(')') || tok.is_punct(']') || tok.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return Some(out);
                }
            } else if k > open {
                out.push(k);
            }
            // Runaway guard: an unbalanced file stops the scan.
            if out.len() > 4096 {
                return None;
            }
        }
        None
    }

    /// If token `i` starts a format-like macro call (`format!(..)`),
    /// returns its first string literal and the identifier arguments
    /// after it.
    fn format_macro_at(&self, i: usize) -> Option<MacroCall> {
        let t = self.toks;
        if t[i].kind != TokKind::Ident || !FORMAT_MACROS.contains(&t[i].text.as_str()) {
            return None;
        }
        // Allow `assert_eq`-style suffixed variants via exact list
        // only; `i + 1` must be `!`.
        if !t.get(i + 1)?.is_punct('!') {
            return None;
        }
        let open = i + 2;
        let args = self.call_args(open)?;
        let lit_pos = args.iter().position(|&k| t[k].kind == TokKind::Str)?;
        let literal = t[args[lit_pos]].text.clone();
        let mut arg_idents = Vec::new();
        let mut has_float_hint = false;
        let mut prev_is_as = false;
        for &k in &args[lit_pos + 1..] {
            match t[k].kind {
                TokKind::Ident => {
                    if prev_is_as && (t[k].text == "f64" || t[k].text == "f32") {
                        has_float_hint = true;
                    }
                    prev_is_as = t[k].text == "as";
                    arg_idents.push(t[k].text.clone());
                }
                TokKind::Num => {
                    if t[k].text.contains('.')
                        || t[k].text.ends_with("f64")
                        || t[k].text.ends_with("f32")
                    {
                        has_float_hint = true;
                    }
                    prev_is_as = false;
                }
                _ => prev_is_as = false,
            }
        }
        Some(MacroCall {
            line: t[i].line,
            literal,
            arg_idents,
            has_float_hint,
        })
    }
}

struct MacroCall {
    line: u32,
    literal: String,
    arg_idents: Vec<String>,
    has_float_hint: bool,
}

/// `#[cfg(test)] mod name { .. }` line ranges — rule-exempt: tests pin
/// behaviour dynamically and routinely Debug-print or time things.
fn find_test_regions(t: &[Tok]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 6 < t.len() {
        let is_cfg_test = t[i].is_punct('#')
            && t[i + 1].is_punct('[')
            && t[i + 2].is_ident("cfg")
            && t[i + 3].is_punct('(')
            && t[i + 4].is_ident("test")
            && t[i + 5].is_punct(')')
            && t[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip further attributes, then expect `mod name {` or an
        // item; only a module body forms a region (a single
        // `#[cfg(test)] fn` is rare enough to not special-case).
        let mut j = i + 7;
        while j + 1 < t.len() && t[j].is_punct('#') && t[j + 1].is_punct('[') {
            let mut depth = 0;
            while j < t.len() {
                if t[j].is_punct('[') {
                    depth += 1;
                } else if t[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if j + 2 < t.len() && t[j].is_ident("mod") && t[j + 1].kind == TokKind::Ident {
            if let Some(region) = brace_region(t, j + 2) {
                out.push((t[region.start].line, t[region.end - 1].line));
                i = region.end;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// All `fn name .. { .. }` regions (nested fns produce nested
/// regions; rules probe every enclosing one).
fn find_fn_regions(t: &[Tok]) -> Vec<FnRegion> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        if !t[i].is_ident("fn") || i + 1 >= t.len() || t[i + 1].kind != TokKind::Ident {
            continue;
        }
        // First `{` at paren depth 0 after the signature opens the
        // body; a `;` first means a trait method declaration.
        let mut j = i + 2;
        let mut paren = 0i32;
        let mut body = None;
        while j < t.len() {
            if t[j].is_punct('(') {
                paren += 1;
            } else if t[j].is_punct(')') {
                paren -= 1;
            } else if paren == 0 && t[j].is_punct(';') {
                break;
            } else if paren == 0 && t[j].is_punct('{') {
                body = Some(j);
                break;
            }
            j += 1;
        }
        if let Some(open) = body {
            if let Some(region) = brace_region(t, open) {
                out.push(FnRegion {
                    name: t[i + 1].text.clone(),
                    region,
                });
            }
        }
    }
    out
}

/// `impl .. Marker .. for .. { .. }` regions (trait-impl blocks whose
/// header names `marker`).
fn find_impl_regions(t: &[Tok], marker: &str) -> Vec<Region> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        if !t[i].is_ident("impl") {
            continue;
        }
        // Scan the header up to the opening brace.
        let mut j = i + 1;
        let mut saw_marker = false;
        let mut saw_for = false;
        while j < t.len() && !t[j].is_punct('{') && !t[j].is_punct(';') {
            if t[j].is_ident(marker) {
                saw_marker = true;
            }
            if t[j].is_ident("for") {
                saw_for = true;
            }
            j += 1;
        }
        if saw_marker && saw_for && j < t.len() && t[j].is_punct('{') {
            if let Some(region) = brace_region(t, j) {
                out.push(region);
            }
        }
    }
    out
}

/// The token region spanned by the brace block opening at `open`
/// (inclusive of both braces).
fn brace_region(t: &[Tok], open: usize) -> Option<Region> {
    if !t.get(open)?.is_punct('{') {
        return None;
    }
    let mut depth = 0i32;
    for (k, tok) in t.iter().enumerate().skip(open) {
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(Region {
                    start: open,
                    end: k + 1,
                });
            }
        }
    }
    None
}

/// First string-literal metric name among call args — either a direct
/// literal or the literal inside `& format ! ( "..." , .. )`.
fn first_name_literal(t: &[Tok], args: &[usize]) -> Option<String> {
    let mut k = 0;
    while k < args.len() {
        let idx = args[k];
        match t[idx].kind {
            TokKind::Str => return Some(t[idx].text.clone()),
            TokKind::Punct if t[idx].text == "&" => k += 1,
            TokKind::Ident if t[idx].text == "format" => {
                // `format ! ( "lit"` — the literal is the first Str
                // after the `(`.
                for &n in &args[k + 1..args.len().min(k + 5)] {
                    if t[n].kind == TokKind::Str {
                        return Some(t[n].text.clone());
                    }
                }
                return None;
            }
            _ => return None,
        }
    }
    None
}

/// A parsed `detlint:` comment directive.
#[derive(Debug, Clone)]
pub struct Allow {
    pub line: u32,
    pub rules: Vec<String>,
    pub reason: Option<String>,
    /// Parse errors turn into D0 findings and void the suppression.
    pub malformed: Option<String>,
}

/// Extracts every `detlint:` directive from the file's line comments.
/// Anything after `detlint:` that is not a well-formed
/// `allow(<rules>) -- <reason>` is reported (D0) rather than silently
/// ignored — a typo must not silently re-arm or disarm a lint.
pub fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("detlint:") else {
            continue;
        };
        let rest = c.text[pos + "detlint:".len()..].trim();
        let mut allow = Allow {
            line: c.line,
            rules: Vec::new(),
            reason: None,
            malformed: None,
        };
        let parsed = (|| -> Result<(Vec<String>, Option<String>), String> {
            let body = rest
                .strip_prefix("allow")
                .ok_or_else(|| format!("expected `allow(..)`, found {rest:?}"))?
                .trim_start();
            let body = body
                .strip_prefix('(')
                .ok_or_else(|| "expected `(` after `allow`".to_string())?;
            let close = body
                .find(')')
                .ok_or_else(|| "unclosed `allow(` directive".to_string())?;
            let ids: Vec<String> = body[..close]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if ids.is_empty() {
                return Err("allow() names no rules".to_string());
            }
            for id in &ids {
                if rule(id).is_none() {
                    return Err(format!("unknown rule {id:?}"));
                }
            }
            let tail = body[close + 1..].trim();
            let reason = tail.strip_prefix("--").map(|r| r.trim().to_string());
            Ok((ids, reason))
        })();
        match parsed {
            Ok((ids, reason)) => {
                allow.rules = ids;
                match reason {
                    Some(r) if !r.is_empty() => allow.reason = Some(r),
                    _ => {
                        allow.malformed = Some(
                            "suppression needs a written justification: `-- <reason>`".to_string(),
                        )
                    }
                }
            }
            Err(e) => allow.malformed = Some(e),
        }
        out.push(allow);
    }
    out
}

//! The five repo-invariant rules plus the unsafe-header check, all
//! running over [`SourceFile`] token streams.
//!
//! | rule          | invariant                                                    |
//! |---------------|--------------------------------------------------------------|
//! | `panic`       | decode paths never `unwrap`/`expect`/`panic!`/index slices   |
//! | `capacity`    | decode-path preallocation is dominated by a length guard     |
//! | `lock-rank`   | reactor locks acquire in `core → links → link` order, inbox alone |
//! | `epoch`       | `&mut self` methods on tagged causal state reach a `StateTag` bump |
//! | `determinism` | deterministic-metric modules never read wall clocks          |
//! | `unsafe-header` | every crate root forbids `unsafe` (testkit/alloc: denies `unsafe_op_in_unsafe_fn`) |
//!
//! Violations are silenced only by the inline allowlist syntax
//! `// lint: allow(<rule>) — <reason>`; the reason is mandatory.

use crate::source::{FnInfo, SourceFile};
use std::collections::{HashMap, HashSet};

/// One diagnostic, printed as `path:line rule message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rel: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{} {} {}", self.rel, self.line, self.rule, self.msg)
    }
}

/// Rule scoping. In repo mode, each rule derives its scope from the
/// file path; `force` (self-test fixtures) puts every file in scope
/// for every rule so fixtures exercise the same code paths.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    pub force: bool,
}

// ---------------------------------------------------------------- scopes

/// Decode-path scope: `from_bytes` / `decode*` / `parse*` functions in
/// the codec-bearing crates, plus *every* function in the TCP framing
/// module (all of it faces hostile bytes).
fn decode_fn_in_scope(rel: &str, f: &FnInfo, scope: Scope) -> bool {
    let name_matches =
        f.name == "from_bytes" || f.name.starts_with("decode") || f.name.starts_with("parse");
    if scope.force {
        return name_matches || rel.contains("framing");
    }
    if rel == "crates/net/src/framing.rs" {
        return true;
    }
    let dir = rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/crdt/src/")
        || rel.starts_with("crates/lattice/src/");
    dir && name_matches
}

fn lock_rank_in_scope(rel: &str, scope: Scope) -> bool {
    scope.force || rel.starts_with("crates/net/src/")
}

/// Epoch scope: the flat causal state and its wrappers.
pub fn epoch_file_in_scope(rel: &str, scope: Scope) -> bool {
    scope.force
        || matches!(
            rel,
            "crates/crdt/src/flat.rs"
                | "crates/crdt/src/causal.rs"
                | "crates/crdt/src/dotstores.rs"
        )
}

/// Determinism scope: modules whose numbers land in gated deterministic
/// metrics. The sim drivers' timing columns and the socket runtime are
/// the explicit allow-by-path complement — everything NOT listed here
/// may read clocks freely (their columns are artifact-only).
fn determinism_in_scope(rel: &str, scope: Scope) -> bool {
    if scope.force {
        return true;
    }
    // obs: registry and recorder values land in gated expositions; the
    // clock module is the single sanctioned wall-clock seam (its
    // `MonotonicClock` is only plugged into artifact paths).
    if rel.starts_with("crates/obs/src/") {
        return rel != "crates/obs/src/clock.rs";
    }
    const DENY_DIRS: &[&str] = &[
        "src/", // umbrella crate
        "crates/lattice/src/",
        "crates/crdt/src/",
        "crates/core/src/",
        "crates/store/src/",
        "crates/workloads/src/",
        // bench: every report is seed-determined; `benchmark/` owns
        // every timed number.
        "crates/bench/src/",
    ];
    const DENY_FILES: &[&str] = &[
        // sim: accounting + fault model are deterministic; the two
        // drivers (runner, sharded_engine) time their own wall-clock
        // columns and are exempt.
        "crates/sim/src/lib.rs",
        "crates/sim/src/metrics.rs",
        "crates/sim/src/network.rs",
        "crates/sim/src/topology.rs",
        "crates/sim/src/scenario.rs",
        // net: frame grammar and message codecs feed byte accounting;
        // node/reactor/cluster own real sockets and real clocks.
        "crates/net/src/framing.rs",
        "crates/net/src/message.rs",
    ];
    DENY_FILES.contains(&rel) || DENY_DIRS.iter().any(|d| rel.starts_with(d))
}

// ------------------------------------------------------------- rule: panic

const IDX_EXEMPT_PREV: &[&str] = &[
    "in", "as", "return", "break", "else", "match", "mut", "ref", "dyn", "where",
];

pub fn check_panic(f: &SourceFile, scope: Scope, out: &mut Vec<Diagnostic>) {
    for func in f.fns.iter().filter(|x| !x.is_test) {
        if !decode_fn_in_scope(&f.rel, func, scope) {
            continue;
        }
        let body = &f.toks[func.body.clone()];
        for (k, t) in body.iter().enumerate() {
            let prev = k.checked_sub(1).map(|p| &body[p]);
            let next = body.get(k + 1);
            let mut flag = |msg: String| {
                if !f.allowed("panic", t.line) {
                    out.push(Diagnostic {
                        rel: f.rel.clone(),
                        line: t.line,
                        rule: "panic",
                        msg,
                    });
                }
            };
            match t.text.as_str() {
                "unwrap" | "expect"
                    if prev.is_some_and(|p| p.is_punct('.'))
                        && next.is_some_and(|x| x.is_punct('(')) =>
                {
                    flag(format!(
                        "`{}()` in decode path `{}` — hostile input must surface CodecError, not panic",
                        t.text, func.name
                    ));
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if next.is_some_and(|x| x.is_punct('!')) =>
                {
                    flag(format!(
                        "`{}!` in decode path `{}` — return an error for bad input",
                        t.text, func.name
                    ));
                }
                "[" if t.is_punct('[') => {
                    // Expression-position indexing: `x[`, `)[`, `][`.
                    // Type/slice-pattern positions (`&[u8]`, `= [0; 4]`,
                    // `#[attr]`) have non-value tokens before the `[`.
                    let indexing = match prev {
                        Some(p) if p.is_punct(')') || p.is_punct(']') => true,
                        Some(p)
                            if p.kind == crate::lexer::TokKind::Ident
                                && !IDX_EXEMPT_PREV.contains(&p.text.as_str()) =>
                        {
                            true
                        }
                        _ => false,
                    };
                    if indexing {
                        flag(format!(
                            "slice indexing in decode path `{}` — use get()/split_at checked forms",
                            func.name
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------- rule: capacity

pub fn check_capacity(f: &SourceFile, scope: Scope, out: &mut Vec<Diagnostic>) {
    for func in f.fns.iter().filter(|x| !x.is_test) {
        if !decode_fn_in_scope(&f.rel, func, scope) {
            continue;
        }
        let body = &f.toks[func.body.clone()];
        for k in 0..body.len() {
            let t = &body[k];
            if !(t.is_ident("with_capacity") || t.is_ident("reserve"))
                || !body.get(k + 1).is_some_and(|x| x.is_punct('('))
            {
                continue;
            }
            // Argument token span.
            let mut depth = 0i32;
            let mut j = k + 1;
            let arg_start = k + 2;
            while j < body.len() {
                if body[j].is_punct('(') {
                    depth += 1;
                } else if body[j].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let args = &body[arg_start..j.min(body.len())];
            let arg_idents: Vec<&str> = args
                .iter()
                .filter(|a| a.kind == crate::lexer::TokKind::Ident)
                .map(|a| a.text.as_str())
                .collect();
            // Intrinsically bounded arguments need no guard:
            // constants/literals, or an explicit `.min(…)` clamp.
            let const_bounded = arg_idents.iter().all(|s| {
                s.chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
            });
            let clamped = arg_idents.contains(&"min");
            if const_bounded || clamped {
                continue;
            }
            // Otherwise a dominating in-function guard must precede:
            // an `if` whose condition compares (`<`/`>`) something
            // involving `len` or one of the argument idents.
            let guarded = (0..k).any(|g| {
                if !body[g].is_ident("if") {
                    return false;
                }
                let mut cond_end = g + 1;
                while cond_end < k && !body[cond_end].is_punct('{') {
                    cond_end += 1;
                }
                let cond = &body[g + 1..cond_end];
                let has_cmp = cond.iter().any(|c| c.is_punct('<') || c.is_punct('>'));
                let mentions = cond.iter().any(|c| {
                    c.is_ident("len")
                        || (c.kind == crate::lexer::TokKind::Ident
                            && arg_idents.contains(&c.text.as_str()))
                });
                has_cmp && mentions
            });
            if !guarded && !f.allowed("capacity", t.line) {
                out.push(Diagnostic {
                    rel: f.rel.clone(),
                    line: t.line,
                    rule: "capacity",
                    msg: format!(
                        "`{}` in decode path `{}` not dominated by a length/cap guard — hostile counts must be rejected before preallocation",
                        t.text, func.name
                    ),
                });
            }
        }
    }
}

// --------------------------------------------------------- rule: lock-rank

/// Declared reactor lock ranks, keyed by the mutex field / binding
/// ident the acquisition reads. Mirrors `crdt_net::reactor::rank`.
fn lock_rank_of(recv: &str) -> Option<(u8, &'static str)> {
    match recv {
        "state" => Some((1, "core")),
        "links" => Some((2, "links")),
        "link" => Some((3, "link")),
        "inbox" => Some((4, "inbox")),
        _ => None,
    }
}

const INBOX_RANK: u8 = 4;

#[derive(Debug)]
enum Release {
    /// Temporary guard — dies at the end of the current statement.
    Stmt(i32),
    /// `let g = m.lock()…;` — dies when the enclosing block closes.
    Below(i32),
    /// `if let` / `while let` / `match` on a lock — the guard lives
    /// through the construct's block; dies when depth returns here.
    Return(i32),
}

pub fn check_lock_rank(f: &SourceFile, scope: Scope, out: &mut Vec<Diagnostic>) {
    if !lock_rank_in_scope(&f.rel, scope) {
        return;
    }
    for func in f.fns.iter().filter(|x| !x.is_test) {
        let body = &f.toks[func.body.clone()];
        let mut live: Vec<(u8, &'static str, Option<String>, Release)> = Vec::new();
        let mut depth = 0i32;
        // Index of the first token of the current statement.
        let mut stmt_start = 0usize;
        for k in 0..body.len() {
            let t = &body[k];
            if t.is_punct('{') {
                depth += 1;
                stmt_start = k + 1;
                continue;
            }
            if t.is_punct('}') {
                depth -= 1;
                live.retain(|(_, _, _, rel)| match *rel {
                    Release::Below(d) => depth >= d,
                    Release::Return(d) => depth > d,
                    Release::Stmt(d) => depth >= d,
                });
                stmt_start = k + 1;
                continue;
            }
            if t.is_punct(';') {
                live.retain(|(_, _, _, rel)| !matches!(*rel, Release::Stmt(d) if depth <= d));
                stmt_start = k + 1;
                continue;
            }
            // drop(name) releases a bound guard early.
            if t.is_ident("drop")
                && body.get(k + 1).is_some_and(|x| x.is_punct('('))
                && body.get(k + 3).is_some_and(|x| x.is_punct(')'))
            {
                if let Some(name) = body.get(k + 2) {
                    if let Some(pos) = live
                        .iter()
                        .rposition(|(_, _, n, _)| n.as_deref() == Some(name.text.as_str()))
                    {
                        live.remove(pos);
                    }
                }
                continue;
            }
            // m.lock()
            if !(t.is_ident("lock")
                && k >= 2
                && body[k - 1].is_punct('.')
                && body.get(k + 1).is_some_and(|x| x.is_punct('(')))
            {
                continue;
            }
            let recv = &body[k - 2];
            let Some((rank, label)) = lock_rank_of(&recv.text) else {
                continue;
            };
            // Ordering check against everything currently held.
            for (held_rank, held_label, _, _) in &live {
                let violation =
                    *held_rank >= rank || rank == INBOX_RANK || *held_rank == INBOX_RANK;
                if violation && !f.allowed("lock-rank", t.line) {
                    out.push(Diagnostic {
                        rel: f.rel.clone(),
                        line: t.line,
                        rule: "lock-rank",
                        msg: format!(
                            "`{}` acquires {label}(rank {rank}) while holding {held_label}(rank {held_rank}); order is core → links → link, inbox alone",
                            func.name
                        ),
                    });
                    break;
                }
            }
            // Bound or temporary? Skip `.unwrap()` / `.expect(…)`
            // continuations; a further `.` means the guard is a
            // statement temporary.
            let mut j = k + 2; // past `lock` `(`; lock() takes no args
            if body.get(j).is_some_and(|x| x.is_punct(')')) {
                j += 1;
            }
            loop {
                let chained = body.get(j).is_some_and(|x| x.is_punct('.'))
                    && body
                        .get(j + 1)
                        .is_some_and(|x| x.is_ident("unwrap") || x.is_ident("expect"));
                if !chained {
                    break;
                }
                j += 2; // `.` + ident
                if body.get(j).is_some_and(|x| x.is_punct('(')) {
                    let mut d = 0i32;
                    while j < body.len() {
                        if body[j].is_punct('(') {
                            d += 1;
                        } else if body[j].is_punct(')') {
                            d -= 1;
                            if d == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
            }
            let chain_continues = body
                .get(j)
                .is_some_and(|x| x.is_punct('.') || x.is_punct('?'));
            let stmt = &body[stmt_start..k.min(body.len())];
            let release = if chain_continues {
                Release::Stmt(depth)
            } else if stmt.first().is_some_and(|s| s.is_ident("let")) {
                Release::Below(depth)
            } else if stmt
                .first()
                .is_some_and(|s| s.is_ident("if") || s.is_ident("while") || s.is_ident("match"))
            {
                Release::Return(depth)
            } else {
                Release::Stmt(depth)
            };
            // Binding name: `let [mut] NAME = …` or `… let [mut] NAME = …`
            let name = stmt
                .iter()
                .position(|s| s.is_ident("let"))
                .and_then(|li| {
                    let mut ni = li + 1;
                    while stmt.get(ni).is_some_and(|s| s.is_ident("mut")) {
                        ni += 1;
                    }
                    stmt.get(ni).filter(|s| {
                        s.kind == crate::lexer::TokKind::Ident
                            && stmt
                                .get(ni + 1)
                                .is_some_and(|e| e.is_punct('=') || e.is_punct(':'))
                    })
                })
                .map(|s| s.text.clone());
            live.push((rank, label, name, release));
        }
    }
}

// ------------------------------------------------------------- rule: epoch

/// Epoch-invalidation completeness, run over the scoped file *group*
/// (the flat causal state is split across flat.rs / causal.rs /
/// dotstores.rs; struct definitions and delegation cross those files).
///
/// Checked types: structs carrying a `StateTag` field, structs wrapping
/// one (transitively, e.g. `AWSet(Causal<DotFun<E>>)`), and the component
/// structs a tagged struct is built from (e.g. `CausalContext`,
/// `DotRuns` — these own no tag, so every mutator must carry an
/// explicit allowlist note naming who bumps for them).
pub fn check_epoch(files: &[&SourceFile], out: &mut Vec<Diagnostic>) {
    // 1. Struct graph → checked set.
    let mut fields: HashMap<&str, &Vec<String>> = HashMap::new();
    for f in files {
        for s in &f.structs {
            fields.insert(s.name.as_str(), &s.field_idents);
        }
    }
    let mut tagged: HashSet<&str> = HashSet::new();
    // direct + wrappers (fixpoint)
    loop {
        let mut grew = false;
        for (name, fi) in &fields {
            if tagged.contains(name) {
                continue;
            }
            if fi
                .iter()
                .any(|t| t == "StateTag" || tagged.contains(t.as_str()))
            {
                tagged.insert(name);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    // components of directly-tagged structs (one hop + fixpoint down)
    let mut checked: HashSet<&str> = tagged.clone();
    loop {
        let mut grew = false;
        for name in checked.clone() {
            // Only descend through structs that actually carry the tag
            // (wrappers' generic params would drag in the primitive
            // stores, which own no epoch obligations).
            let direct_tag = fields
                .get(name)
                .is_some_and(|fi| fi.iter().any(|t| t == "StateTag"));
            let component_of_component = !tagged.contains(name);
            if !(direct_tag || component_of_component) {
                continue;
            }
            if let Some(fi) = fields.get(name) {
                for t in fi.iter() {
                    if t != "StateTag"
                        && fields.contains_key(t.as_str())
                        && !checked.contains(t.as_str())
                    {
                        // re-borrow via the map to get 'static-enough str
                        let key = *fields.get_key_value(t.as_str()).unwrap().0;
                        checked.insert(key);
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    if checked.is_empty() {
        return;
    }

    // 2. Bumping-function fixpoint across the group, by name.
    let mut bumping: HashSet<String> = HashSet::new();
    let mut calls: Vec<(String, HashSet<String>, &FnInfo, &SourceFile)> = Vec::new();
    for f in files {
        for func in &f.fns {
            let body = &f.toks[func.body.clone()];
            let direct = body
                .iter()
                .any(|t| t.is_ident("note_mutation") || t.is_ident("fresh_epoch"))
                || (body.iter().any(|t| t.is_ident("StateTag"))
                    && body.iter().any(|t| t.is_ident("fresh")));
            let mut callees = HashSet::new();
            for k in 0..body.len() {
                if body[k].kind == crate::lexer::TokKind::Ident
                    && body.get(k + 1).is_some_and(|x| x.is_punct('('))
                {
                    callees.insert(body[k].text.clone());
                }
            }
            if direct {
                bumping.insert(func.name.clone());
            }
            calls.push((func.name.clone(), callees, func, f));
        }
    }
    loop {
        let mut grew = false;
        for (name, callees, _, _) in &calls {
            if !bumping.contains(name) && callees.iter().any(|c| bumping.contains(c)) {
                bumping.insert(name.clone());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    // 3. Verdicts.
    for (name, _, func, f) in &calls {
        if func.is_test || !func.mut_self {
            continue;
        }
        let Some(ty) = func.impl_type.as_deref() else {
            continue;
        };
        if !checked.contains(ty) {
            continue;
        }
        if !(func.is_pub || func.in_trait_impl) {
            continue;
        }
        if bumping.contains(name) {
            continue;
        }
        if f.allowed_at_decl("epoch", func.decl_line) {
            continue;
        }
        out.push(Diagnostic {
            rel: f.rel.clone(),
            line: func.decl_line,
            rule: "epoch",
            msg: format!(
                "`{ty}::{name}` takes `&mut self` but never reaches a StateTag bump — cached wire frames go stale"
            ),
        });
    }
}

// ------------------------------------------------------- rule: determinism

pub fn check_determinism(f: &SourceFile, scope: Scope, out: &mut Vec<Diagnostic>) {
    if !determinism_in_scope(&f.rel, scope) {
        return;
    }
    for (k, t) in f.toks.iter().enumerate() {
        if f.in_test_range(k) {
            continue;
        }
        let clock = t.is_ident("Instant")
            || t.is_ident("SystemTime")
            || (t.is_ident("time") && k >= 2 && f.toks[k - 1].is_punct(':') && {
                // `std :: time`
                f.toks[k - 2].is_punct(':') && k >= 3 && f.toks[k - 3].is_ident("std")
            });
        if clock && !f.allowed("determinism", t.line) {
            out.push(Diagnostic {
                rel: f.rel.clone(),
                line: t.line,
                rule: "determinism",
                msg: format!(
                    "`{}` in a deterministic-metrics module — wall clocks belong in artifact-only timing modules",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------- rule: obs-doc

/// Every metric-registration macro site must pass literal strings for
/// both the dotted name and the doc — `register_counter!(reg, "a.b",
/// "what it counts")`. A computed name breaks the golden-name CI gate
/// and an absent doc leaves the exposition unexplained, so both are
/// structural errors here, not style.
pub fn check_obs_doc(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    const MACROS: &[&str] = &["register_counter", "register_gauge", "register_histogram"];
    for (k, t) in f.toks.iter().enumerate() {
        if !MACROS.iter().any(|m| t.is_ident(m)) {
            continue;
        }
        // An invocation is `ident ! (`; `macro_rules!` definitions are
        // `ident ! {` and don't match.
        let (Some(bang), Some(open)) = (f.toks.get(k + 1), f.toks.get(k + 2)) else {
            continue;
        };
        if !bang.is_punct('!') || !open.is_punct('(') {
            continue;
        }
        let mut depth = 1usize;
        let mut strings = 0usize;
        let mut j = k + 3;
        while j < f.toks.len() && depth > 0 {
            let u = &f.toks[j];
            if u.is_punct('(') {
                depth += 1;
            } else if u.is_punct(')') {
                depth -= 1;
            } else if u.kind == crate::lexer::TokKind::Literal && u.text.starts_with('"') {
                strings += 1;
            }
            j += 1;
        }
        if strings < 2 && !f.allowed("obs-doc", t.line) {
            out.push(Diagnostic {
                rel: f.rel.clone(),
                line: t.line,
                rule: "obs-doc",
                msg: format!(
                    "`{}!` needs a literal metric name and a literal doc string — every registration site documents its metric",
                    t.text
                ),
            });
        }
    }
}

// ------------------------------------------------------ rule: unsafe-header

/// Crate-root header policy, applied by the driver to each lib/bin
/// root it discovers; plus a stray-`unsafe` scan over every file.
pub fn check_unsafe_header(f: &SourceFile, is_crate_root: bool, out: &mut Vec<Diagnostic>) {
    let is_alloc_shim = f.rel.starts_with("crates/testkit/alloc/");
    if is_crate_root {
        let has_forbid = f.toks.windows(6).any(|w| {
            w[0].is_punct('#')
                && w[1].is_punct('!')
                && w[2].is_punct('[')
                && w[3].is_ident("forbid")
                && w[4].is_punct('(')
                && w[5].is_ident("unsafe_code")
        });
        let has_deny_unsafe_op = f.toks.iter().any(|t| t.is_ident("unsafe_op_in_unsafe_fn"));
        if is_alloc_shim {
            if !has_deny_unsafe_op {
                out.push(Diagnostic {
                    rel: f.rel.clone(),
                    line: 1,
                    rule: "unsafe-header",
                    msg: "testkit/alloc must declare #![deny(unsafe_op_in_unsafe_fn)] over its audited unsafe sites".into(),
                });
            }
        } else if !has_forbid {
            out.push(Diagnostic {
                rel: f.rel.clone(),
                line: 1,
                rule: "unsafe-header",
                msg: "crate root missing #![forbid(unsafe_code)]".into(),
            });
        }
    }
    if !is_alloc_shim {
        for t in f.toks.iter().filter(|t| t.is_ident("unsafe")) {
            out.push(Diagnostic {
                rel: f.rel.clone(),
                line: t.line,
                rule: "unsafe-header",
                msg: "`unsafe` outside testkit/alloc — the workspace is forbid(unsafe_code)".into(),
            });
        }
    }
}

// ----------------------------------------------------------------- driver

/// Run every per-file rule on one file.
pub fn check_file(f: &SourceFile, scope: Scope, is_crate_root: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_panic(f, scope, &mut out);
    check_capacity(f, scope, &mut out);
    check_lock_rank(f, scope, &mut out);
    check_determinism(f, scope, &mut out);
    check_obs_doc(f, &mut out);
    check_unsafe_header(f, is_crate_root, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn sf(rel: &str, src: &str) -> SourceFile {
        SourceFile::parse(rel.into(), src)
    }
    const FORCE: Scope = Scope { force: true };
    const REPO: Scope = Scope { force: false };

    #[test]
    fn panic_rule_flags_and_allows() {
        let f = sf(
            "crates/core/src/x.rs",
            "fn decode(input: &mut &[u8]) -> R {\n  let a = input[0];\n  let b = x.unwrap();\n  let c = y.expect(\"m\"); // lint: allow(panic) — provably present\n  panic!(\"boom\");\n}\nfn helper(v: &V) { v.unwrap(); }\n",
        );
        let mut out = Vec::new();
        check_panic(&f, REPO, &mut out);
        let lines: Vec<u32> = out.iter().map(|d| d.line).collect();
        assert_eq!(
            lines,
            vec![2, 3, 5],
            "index, unwrap, panic!; expect allowed; helper out of scope"
        );
    }

    #[test]
    fn panic_rule_ignores_tests_and_types() {
        let f = sf(
            "crates/crdt/src/x.rs",
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn decode_roundtrip() { x.unwrap(); }\n}\nfn decode(input: &[u8]) -> &[u8] { &input[..4] }\n",
        );
        let mut out = Vec::new();
        check_panic(&f, REPO, &mut out);
        assert_eq!(
            out.len(),
            1,
            "only the live range-index; test unwrap exempt"
        );
        assert_eq!(out[0].line, 6);
    }

    #[test]
    fn capacity_rule_guard_forms() {
        let good = sf(
            "crates/core/src/x.rs",
            "fn decode(input: &mut &[u8]) -> R {\n  let len = usize::decode(input)?;\n  if len > input.len() { return Err(E); }\n  let mut v = Vec::with_capacity(len);\n}\n",
        );
        let mut out = Vec::new();
        check_capacity(&good, REPO, &mut out);
        assert!(out.is_empty(), "guarded preallocation passes: {out:?}");

        let clamp = sf(
            "crates/core/src/x.rs",
            "fn decode(input: &mut &[u8]) -> R { let mut v = Vec::with_capacity(n.min(MAX_FRAME)); }",
        );
        out.clear();
        check_capacity(&clamp, REPO, &mut out);
        assert!(out.is_empty(), "min-clamped passes");

        let constant = sf(
            "crates/core/src/x.rs",
            "fn decode(input: &mut &[u8]) -> R { let mut v = Vec::with_capacity(16); v.reserve(HEADER_MAX); }",
        );
        out.clear();
        check_capacity(&constant, REPO, &mut out);
        assert!(out.is_empty(), "const-bounded passes");

        let bad = sf(
            "crates/core/src/x.rs",
            "fn decode(input: &mut &[u8]) -> R {\n  let len = usize::decode(input)?;\n  let mut v = Vec::with_capacity(len);\n}\n",
        );
        out.clear();
        check_capacity(&bad, REPO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn lock_rank_legal_sequences_pass() {
        let f = sf(
            "crates/net/src/node.rs",
            r#"
fn sync_step(inner: &Inner) {
    let neighbors: Vec<ReplicaId> = inner.links.lock().unwrap().keys().copied().collect();
    let mut core = inner.state.lock().unwrap();
    for to in neighbors {
        let l = { inner.links.lock().unwrap().get(&to).cloned() };
        if let Some(l) = l {
            let mut link = link.lock().unwrap();
            link.push(1);
        }
    }
}
fn drain(inner: &Inner) {
    let mut inbox = inner.inbox.lock().unwrap();
    let msgs = inbox.take();
    drop(inbox);
    let mut core = inner.state.lock().unwrap();
    core.apply(msgs);
}
"#,
        );
        let mut out = Vec::new();
        check_lock_rank(&f, REPO, &mut out);
        assert!(out.is_empty(), "legal order flagged: {out:?}");
    }

    #[test]
    fn lock_rank_inversions_flagged() {
        let f = sf(
            "crates/net/src/node.rs",
            r#"
fn bad_inversion(inner: &Inner) {
    let mut link = link.lock().unwrap();
    let mut core = inner.state.lock().unwrap();
}
fn bad_inbox_not_alone(inner: &Inner) {
    let mut core = inner.state.lock().unwrap();
    let mut inbox = inner.inbox.lock().unwrap();
}
fn temp_released_ok(inner: &Inner) {
    let n = inner.links.lock().unwrap().len();
    let mut core = inner.state.lock().unwrap();
}
"#,
        );
        let mut out = Vec::new();
        check_lock_rank(&f, REPO, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0]
            .msg
            .contains("core(rank 1) while holding link(rank 3)"));
        assert!(out[1].msg.contains("inbox"));
    }

    #[test]
    fn epoch_rule_tagged_and_wrapper() {
        let f = sf(
            "crates/crdt/src/causal.rs",
            r#"
pub struct StateTag { e: u64 }
pub struct DotFun<V>(Vec<V>);
pub struct Causal<S> { store: S, tag: StateTag }
pub struct AWSet<E>(Causal<DotFun<E>>);
impl<S> Causal<S> {
    pub fn mutate(&mut self) { self.tag.note_mutation(); }
}
impl<V> Causal<DotFun<V>> {
    pub fn silent_clear(&mut self) { self.store.0.clear(); }
}
impl<V> DotFun<V> {
    pub fn insert(&mut self, v: V) { self.0.push(v); }
}
impl<E> AWSet<E> {
    pub fn add(&mut self, e: E) { self.0.mutate(); }
    // lint: allow(epoch) — read-only rebuild, frames unaffected
    pub fn shrink(&mut self) { self.0.store.0.shrink_to_fit(); }
}
"#,
        );
        let mut out = Vec::new();
        check_epoch(&[&f], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("silent_clear"));
    }

    #[test]
    fn determinism_rule_scoping() {
        let denied = sf(
            "crates/core/src/state.rs",
            "fn t() { let s = Instant::now(); }",
        );
        let mut out = Vec::new();
        check_determinism(&denied, REPO, &mut out);
        assert_eq!(out.len(), 1);

        let bench = sf(
            "crates/bench/src/netload.rs",
            "fn t() { let s = Instant::now(); }",
        );
        out.clear();
        check_determinism(&bench, REPO, &mut out);
        assert_eq!(out.len(), 1, "the bench crate is denied as a directory");

        let exempt = sf(
            "crates/sim/src/runner.rs",
            "fn t() { let s = Instant::now(); }",
        );
        out.clear();
        check_determinism(&exempt, REPO, &mut out);
        assert!(out.is_empty(), "runner timing is artifact-only");

        let forced = sf("fixtures/bad/determinism.rs", "fn t() { std::time::x(); }");
        out.clear();
        check_determinism(&forced, FORCE, &mut out);
        assert_eq!(out.len(), 1, "std::time path form, forced scope");
    }

    #[test]
    fn unsafe_header_policy() {
        let missing = sf("crates/core/src/lib.rs", "#![warn(missing_docs)]\n");
        let mut out = Vec::new();
        check_unsafe_header(&missing, true, &mut out);
        assert_eq!(out.len(), 1);

        let ok = sf(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n",
        );
        out.clear();
        check_unsafe_header(&ok, true, &mut out);
        assert!(out.is_empty());

        let alloc = sf(
            "crates/testkit/alloc/src/lib.rs",
            "#![deny(unsafe_op_in_unsafe_fn)]\nunsafe fn x() {}\n",
        );
        out.clear();
        check_unsafe_header(&alloc, true, &mut out);
        assert!(out.is_empty(), "alloc shim keeps audited unsafe");

        let stray = sf("crates/core/src/x.rs", "fn f() { unsafe { g() } }");
        out.clear();
        check_unsafe_header(&stray, false, &mut out);
        assert_eq!(out.len(), 1, "stray unsafe outside the shim");
    }
}

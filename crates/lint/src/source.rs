//! Structural view of one source file: the token stream plus just
//! enough shape — function bodies, struct fields, impl context,
//! `#[cfg(test)]` regions, allowlist comments — for the rules to work
//! on. This is a single forward pass over tokens with a scope stack,
//! not a parser; it is deliberately tolerant of anything it does not
//! recognize.

use crate::lexer::{lex, Comment, Tok, TokKind};
use std::ops::Range;

/// One `fn` item with its body token range and enough context to scope
/// rules: receiver shape, visibility, enclosing impl, testness.
#[derive(Debug)]
pub struct FnInfo {
    pub name: String,
    /// Line of the `fn` keyword.
    pub decl_line: u32,
    /// Token indices of the body, *excluding* the outer braces.
    pub body: Range<usize>,
    /// Takes `&mut self`.
    pub mut_self: bool,
    /// `pub` or `pub(crate)`.
    pub is_pub: bool,
    /// Name of the `impl` self-type this fn sits in, if any.
    pub impl_type: Option<String>,
    /// The impl is `impl Trait for Type` (trait methods are public API
    /// regardless of the missing `pub`).
    pub in_trait_impl: bool,
    /// Under `#[cfg(test)]` / `#[test]`.
    pub is_test: bool,
}

/// A struct definition and the type idents its fields mention.
#[derive(Debug)]
pub struct StructInfo {
    pub name: String,
    pub field_idents: Vec<String>,
}

/// An inline allowlist annotation: `// lint: allow(<rule>) — <reason>`.
#[derive(Debug)]
pub struct Allow {
    pub rule: String,
    pub line: u32,
    pub has_reason: bool,
    /// Shares its line with code (trailing form): covers only that
    /// line. Own-line comments cover the line below as well.
    pub trailing: bool,
}

/// A lexed + structurally indexed source file.
pub struct SourceFile {
    /// Path relative to the lint root, for diagnostics.
    pub rel: String,
    pub toks: Vec<Tok>,
    pub fns: Vec<FnInfo>,
    pub structs: Vec<StructInfo>,
    pub allows: Vec<Allow>,
    /// Token-index ranges under `#[cfg(test)] mod … { … }`.
    test_ranges: Vec<Range<usize>>,
}

impl SourceFile {
    pub fn parse(rel: String, src: &str) -> SourceFile {
        let (toks, comments) = lex(src);
        let code_lines: std::collections::HashSet<u32> = toks.iter().map(|t| t.line).collect();
        let allows = parse_allows(&comments, &code_lines);
        let mut f = SourceFile {
            rel,
            toks,
            fns: Vec::new(),
            structs: Vec::new(),
            allows,
            test_ranges: Vec::new(),
        };
        f.index();
        f
    }

    /// Is this token index inside `#[cfg(test)]` code?
    pub fn in_test_range(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|r| r.contains(&idx))
    }

    /// Is `rule` allowlisted for a diagnostic on `line`? Accepts the
    /// annotation on the same line (trailing comment) or on the line
    /// directly above. Annotations without a reason do not count — the
    /// syntax demands `// lint: allow(rule) — <why>`.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.rule == rule
                && a.has_reason
                && (a.line == line || (!a.trailing && a.line + 1 == line))
        })
    }

    /// Allowlist annotations for `rule` that sit on no diagnostic —
    /// used by rules that attach allows to declarations (epoch).
    pub fn allowed_at_decl(&self, rule: &str, decl_line: u32) -> bool {
        // A fn-level allow may sit up to 2 lines above the `fn` line
        // (above the doc-comment-free attribute block) or on it.
        self.allows.iter().any(|a| {
            a.rule == rule && a.has_reason && (a.line <= decl_line && decl_line - a.line <= 2)
        })
    }

    /// Single forward pass building fns / structs / test ranges.
    fn index(&mut self) {
        #[derive(Debug)]
        enum Scope {
            Brace,
            TestMod,
            Impl { ty: String, is_trait: bool },
            Fn { fn_idx: usize, body_start: usize },
        }
        let toks = &self.toks;
        let n = toks.len();
        let mut scopes: Vec<Scope> = Vec::new();
        // Set when an item header (impl/mod/fn) has been parsed and the
        // next `{` opens its scope.
        let mut pending: Option<Scope> = None;
        let mut pending_attr_test = false;
        let mut i = 0usize;

        // Skip a generics list if `toks[i]` is `<`; returns index after `>`.
        let skip_generics = |toks: &[Tok], mut i: usize| -> usize {
            if i < toks.len() && toks[i].is_punct('<') {
                let mut depth = 0i32;
                while i < toks.len() {
                    if toks[i].is_punct('<') {
                        depth += 1;
                    } else if toks[i].is_punct('>') {
                        depth -= 1;
                        if depth == 0 {
                            return i + 1;
                        }
                    }
                    i += 1;
                }
            }
            i
        };

        while i < n {
            let t = &toks[i];
            match t.kind {
                TokKind::Punct if t.text == "#" => {
                    // Attribute: #[...] or #![...]. Record whether it
                    // mentions `test` (covers #[test] and #[cfg(test)]).
                    let mut j = i + 1;
                    if j < n && toks[j].is_punct('!') {
                        j += 1;
                    }
                    if j < n && toks[j].is_punct('[') {
                        let mut depth = 0i32;
                        let start = j;
                        while j < n {
                            if toks[j].is_punct('[') {
                                depth += 1;
                            } else if toks[j].is_punct(']') {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                        // `#[test]` or `#[cfg(test)]` — but NOT
                        // `#[cfg(not(test))]`: `test` must be the whole
                        // attr or sit alone inside `cfg(…)`.
                        let span = &toks[start..=j.min(n - 1)];
                        let bare_test = span.len() >= 2 && span[1].is_ident("test");
                        let cfg_test = span.windows(3).any(|w| {
                            w[0].is_punct('(') && w[1].is_ident("test") && w[2].is_punct(')')
                        }) && span.get(1).is_some_and(|t| t.is_ident("cfg"));
                        if bare_test || cfg_test {
                            pending_attr_test = true;
                        }
                        i = j + 1;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                TokKind::Ident if t.text == "impl" => {
                    // impl<G> Type {   |   impl<G> Trait for Type<G> {
                    let mut j = skip_generics(toks, i + 1);
                    // Walk the header up to `{`; note the last path-head
                    // ident seen right after `for`, falling back to the
                    // first ident of the header.
                    let mut first_ident: Option<String> = None;
                    let mut after_for: Option<String> = None;
                    let mut saw_for = false;
                    let mut angle = 0i32;
                    while j < n {
                        let h = &toks[j];
                        if h.is_punct('<') {
                            angle += 1;
                        } else if h.is_punct('>') {
                            angle -= 1;
                        } else if angle == 0 && h.is_punct('{') {
                            break;
                        } else if angle == 0 && h.is_punct(';') {
                            break; // `impl Trait for Type;` — not ours
                        } else if angle == 0 && h.kind == TokKind::Ident {
                            if h.text == "for" {
                                saw_for = true;
                                after_for = None;
                            } else if h.text == "where" {
                                // where-clause idents are noise
                                first_ident.get_or_insert_with(String::new);
                            } else if saw_for && after_for.is_none() {
                                after_for = Some(h.text.clone());
                            } else if first_ident.is_none() {
                                first_ident = Some(h.text.clone());
                            }
                        }
                        j += 1;
                    }
                    let ty = after_for.clone().or(first_ident).unwrap_or_default();
                    if j < n && toks[j].is_punct('{') {
                        pending = Some(Scope::Impl {
                            ty,
                            is_trait: saw_for,
                        });
                    }
                    pending_attr_test = false;
                    i = j; // the `{` (or `;`) is processed next
                    continue;
                }
                TokKind::Ident if t.text == "mod" => {
                    let is_test = pending_attr_test;
                    pending_attr_test = false;
                    // `mod name;` (out-of-line) has no scope.
                    let mut j = i + 1;
                    while j < n && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                        j += 1;
                    }
                    if j < n && toks[j].is_punct('{') {
                        pending = Some(if is_test {
                            Scope::TestMod
                        } else {
                            Scope::Brace
                        });
                    }
                    i = j;
                    continue;
                }
                TokKind::Ident if t.text == "struct" => {
                    pending_attr_test = false;
                    if let Some((info, next)) = parse_struct(toks, i) {
                        self.structs.push(info);
                        i = next;
                        continue;
                    }
                    i += 1;
                    continue;
                }
                TokKind::Ident if t.text == "fn" => {
                    // Function-pointer type `fn(` has no name ident.
                    let name_idx = i + 1;
                    if name_idx >= n || toks[name_idx].kind != TokKind::Ident {
                        pending_attr_test = false;
                        i += 1;
                        continue;
                    }
                    let name = toks[name_idx].text.clone();
                    let decl_line = t.line;
                    let mut j = skip_generics(toks, name_idx + 1);
                    // Receiver: look inside the parameter parens.
                    let mut mut_self = false;
                    if j < n && toks[j].is_punct('(') {
                        let mut depth = 0i32;
                        let params_start = j;
                        while j < n {
                            if toks[j].is_punct('(') {
                                depth += 1;
                            } else if toks[j].is_punct(')') {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                        let head: Vec<&Tok> =
                            toks[params_start + 1..j.min(n)].iter().take(4).collect();
                        // `&mut self` (optionally `&'a mut self`)
                        mut_self = head
                            .windows(2)
                            .any(|w| w[0].is_ident("mut") && w[1].is_ident("self"))
                            && head.first().is_some_and(|t| t.is_punct('&'));
                        j += 1;
                    }
                    // Find the body `{`, bailing on `;` (trait sig).
                    let mut body_open = None;
                    let mut angle = 0i32;
                    while j < n {
                        let h = &toks[j];
                        if h.is_punct('<') {
                            angle += 1;
                        } else if h.is_punct('>') {
                            angle -= 1;
                        } else if angle <= 0 && h.is_punct('{') {
                            body_open = Some(j);
                            break;
                        } else if angle <= 0 && h.is_punct(';') {
                            break;
                        }
                        j += 1;
                    }
                    // Visibility: look back over at most 6 tokens for
                    // `pub`, stopping at item boundaries.
                    let mut is_pub = false;
                    for k in (i.saturating_sub(6)..i).rev() {
                        let p = &toks[k];
                        if p.is_ident("pub") {
                            is_pub = true;
                            break;
                        }
                        let boundary = p.is_punct(';')
                            || p.is_punct('{')
                            || p.is_punct('}')
                            || p.is_punct(']');
                        if boundary {
                            break;
                        }
                    }
                    let (impl_type, in_trait_impl) = scopes
                        .iter()
                        .rev()
                        .find_map(|s| match s {
                            Scope::Impl { ty, is_trait } => Some((Some(ty.clone()), *is_trait)),
                            _ => None,
                        })
                        .unwrap_or((None, false));
                    let in_test_mod = scopes.iter().any(|s| matches!(s, Scope::TestMod));
                    let is_test = pending_attr_test || in_test_mod;
                    pending_attr_test = false;
                    if let Some(open) = body_open {
                        let fn_idx = self.fns.len();
                        self.fns.push(FnInfo {
                            name,
                            decl_line,
                            body: open + 1..open + 1, // end patched on close
                            mut_self,
                            is_pub,
                            impl_type,
                            in_trait_impl,
                            is_test,
                        });
                        pending = Some(Scope::Fn {
                            fn_idx,
                            body_start: open + 1,
                        });
                        i = open; // `{` handled next iteration
                    } else {
                        i = j + 1;
                    }
                    continue;
                }
                TokKind::Punct if t.text == "{" => {
                    scopes.push(pending.take().unwrap_or(Scope::Brace));
                    i += 1;
                    continue;
                }
                TokKind::Punct if t.text == "}" => {
                    match scopes.pop() {
                        Some(Scope::Fn { fn_idx, body_start }) => {
                            self.fns[fn_idx].body = body_start..i;
                        }
                        Some(Scope::TestMod) => {
                            // Whole-mod token range: approximate with
                            // "everything up to here since the mod
                            // opened" — find the matching open by
                            // scanning isn't needed; record a range
                            // ending here and starting at the first
                            // token whose fn/test containment matters.
                            // We track it precisely via a side stack
                            // below instead.
                        }
                        _ => {}
                    }
                    i += 1;
                    continue;
                }
                _ => {
                    if t.kind == TokKind::Ident {
                        pending_attr_test &= matches!(
                            t.text.as_str(),
                            "pub" | "crate" | "const" | "async" | "unsafe" | "extern"
                        );
                    }
                    i += 1;
                }
            }
        }

        // Second tiny pass for test token ranges: find `#[cfg(test)]`
        // attr followed by `mod … {` and record the brace span.
        self.test_ranges = find_test_ranges(&self.toks);
    }
}

/// Parse `struct Name …` starting at the `struct` keyword index.
/// Returns the info and the index to resume at.
fn parse_struct(toks: &[Tok], i: usize) -> Option<(StructInfo, usize)> {
    let name = toks.get(i + 1)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    let mut j = i + 2;
    // generics
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is_punct('<') {
                depth += 1;
            } else if toks[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    let mut field_idents = Vec::new();
    match toks.get(j) {
        Some(t) if t.is_punct('(') || t.is_punct('{') => {
            let open = if t.is_punct('(') { '(' } else { '{' };
            let close = if open == '(' { ')' } else { '}' };
            let mut depth = 0i32;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct(open) {
                    depth += 1;
                } else if t.is_punct(close) {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                } else if t.kind == TokKind::Ident
                    && !matches!(t.text.as_str(), "pub" | "crate" | "where")
                {
                    field_idents.push(t.text.clone());
                }
                j += 1;
            }
        }
        _ => {} // unit struct or `;`
    }
    Some((
        StructInfo {
            name: name.text.clone(),
            field_idents,
        },
        j,
    ))
}

/// `#[cfg(test)] mod name { … }` → token range of the braces' interior.
fn find_test_ranges(toks: &[Tok]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))
        {
            // scan forward to `mod … {` (tolerating more attrs between)
            let mut j = i + 5;
            let mut found_mod = false;
            while j < toks.len() && j < i + 40 {
                if toks[j].is_ident("mod") {
                    found_mod = true;
                } else if found_mod && toks[j].is_punct('{') {
                    // matching close
                    let start = j + 1;
                    let mut depth = 0i32;
                    while j < toks.len() {
                        if toks[j].is_punct('{') {
                            depth += 1;
                        } else if toks[j].is_punct('}') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    out.push(start..j);
                    break;
                } else if toks[j].is_punct(';') || toks[j].is_ident("fn") {
                    break; // cfg(test) on a non-mod item
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Extract `lint: allow(<rule>) — <reason>` annotations from comments.
fn parse_allows(comments: &[Comment], code_lines: &std::collections::HashSet<u32>) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("lint: allow(") else {
            continue;
        };
        let rest = &c.text[pos + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        // Anything substantive after the `)` counts as a reason;
        // em-dash or colon separators both accepted.
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '—', '-', ':', '–'])
            .trim();
        out.push(Allow {
            rule,
            line: c.line,
            has_reason: !reason.is_empty(),
            trailing: code_lines.contains(&c.line),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::parse("mem.rs".into(), src)
    }

    #[test]
    fn fn_extraction_with_receiver_and_impl() {
        let f = sf("impl<S: WireEncode> WireEncode for Causal<S> {\n  fn decode(input: &mut &[u8]) -> Result<Self, E> { body() }\n  pub fn bump(&mut self) { self.tag.note_mutation(); }\n}\n");
        assert_eq!(f.fns.len(), 2);
        let d = &f.fns[0];
        assert_eq!(d.name, "decode");
        assert_eq!(d.impl_type.as_deref(), Some("Causal"));
        assert!(d.in_trait_impl);
        assert!(!d.mut_self, "`&mut &[u8]` param is not a receiver");
        let b = &f.fns[1];
        assert!(b.mut_self && b.is_pub);
        assert!(!b.in_trait_impl || b.impl_type.is_some());
    }

    #[test]
    fn inherent_impl_type() {
        let f = sf("impl<V> Causal<DotFun<V>> { pub(crate) fn mutate(&mut self) { x() } }");
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Causal"));
        assert!(!f.fns[0].in_trait_impl);
        assert!(f.fns[0].is_pub);
        assert!(f.fns[0].mut_self);
    }

    #[test]
    fn test_mod_and_test_attr_detection() {
        let f =
            sf("fn live() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); }\n}\n");
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test);
        let unwrap_idx = f.toks.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(f.in_test_range(unwrap_idx));
    }

    #[test]
    fn struct_fields() {
        let f = sf("pub struct Causal<S> { store: S, ctx: CausalContext, tag: StateTag }\npub struct AWSet<E: Ord>(Causal<DotFun<E>>);\n");
        assert_eq!(f.structs.len(), 2);
        assert!(f.structs[0].field_idents.iter().any(|s| s == "StateTag"));
        assert!(f.structs[1].field_idents.iter().any(|s| s == "Causal"));
    }

    #[test]
    fn allow_annotations() {
        let f = sf("// lint: allow(panic) — just peeked\nx.unwrap();\ny.unwrap(); // lint: allow(panic) — infallible\nz.unwrap(); // lint: allow(panic)\n");
        assert!(f.allowed("panic", 2), "comment-above form");
        assert!(f.allowed("panic", 3), "trailing form");
        assert!(!f.allowed("panic", 4), "reason is mandatory");
        assert!(!f.allowed("capacity", 2), "rule name must match");
    }

    #[test]
    fn fn_pointer_type_is_not_a_fn_item() {
        let f = sf("struct S { k: PhantomData<fn() -> K> }\nfn real() {}\n");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "real");
    }
}

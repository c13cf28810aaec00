//! Pass 1 of the boundary-graph analyzer: a lightweight item parser over
//! the existing token stream.
//!
//! This is deliberately **approximate** — it recovers just enough structure
//! for the crate-graph (b2) and reachability passes: the module position of
//! a file, its `use` declarations (with nested groups, globs, and `as`
//! renames flattened to one leaf each), its `fn` items (with the `impl`
//! type they hang off, when any), and the call sites inside each body
//! (free/path calls and `.method(…)` calls). For the unused-surface rule
//! (`u1`) it also records every `pub` item with its token span, the token
//! span of each `use` declaration, and each `impl` block's self type and
//! span. Macro bodies, trait bounds, and expression structure are ignored;
//! `#[cfg(test)]` regions are skipped entirely, matching the token rules'
//! scope.

use crate::lexer::{Lexed, Tok, Token};

/// One `use` leaf: `use a::b::{c as d, e::*};` yields two decls.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UseDecl {
    /// 1-based line of the `use` keyword.
    pub line: usize,
    /// True for `pub use` / `pub(crate) use` re-exports.
    pub is_pub: bool,
    /// Full path segments as written (for a glob: the module path).
    pub path: Vec<String>,
    /// `as` rename, if any.
    pub alias: Option<String>,
    /// True for a trailing `::*`.
    pub glob: bool,
}

impl UseDecl {
    /// The name this leaf binds in the importing file (None for globs).
    pub fn binding(&self) -> Option<&str> {
        if self.glob {
            return None;
        }
        match &self.alias {
            Some(a) => Some(a.as_str()),
            None => self.path.last().map(String::as_str),
        }
    }

    /// The declaration as written, for diagnostics.
    pub fn rendered(&self) -> String {
        let mut s = String::new();
        if self.is_pub {
            s.push_str("pub ");
        }
        s.push_str("use ");
        s.push_str(&self.path.join("::"));
        if self.glob {
            s.push_str("::*");
        }
        if let Some(a) = &self.alias {
            s.push_str(" as ");
            s.push_str(a);
        }
        s
    }
}

/// One call site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// 1-based line of the called name.
    pub line: usize,
    /// Path segments as written (`helper::phase` → `["helper","phase"]`;
    /// a method call has exactly its method name).
    pub path: Vec<String>,
    /// True for `.name(…)` receiver calls.
    pub method: bool,
}

/// One `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    pub name: String,
    /// The `impl` type the fn hangs off, when inside an impl block.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Call sites inside this fn's body, innermost-fn attribution.
    pub calls: Vec<CallSite>,
}

/// One `pub` item: a free fn, inherent-impl method, struct, enum, const,
/// static, type alias, or trait.
#[derive(Clone, Debug)]
pub struct PubItem {
    /// The item keyword: `fn`, `struct`, `enum`, `const`, `static`, `type`
    /// or `trait`.
    pub kind: &'static str,
    pub name: String,
    /// The `impl` type a method or associated const hangs off.
    pub self_ty: Option<String>,
    /// 1-based line of the `pub` keyword.
    pub line: usize,
    /// Token span `[start, end)`: from `pub` through the closing `}`/`;`.
    pub span: (usize, usize),
}

/// An `impl` block's self type and token span.
#[derive(Clone, Debug)]
pub struct ImplSpan {
    /// The self type (`Type` in both `impl Type` and `impl Trait for Type`).
    pub ty: String,
    /// Token index of the `impl` keyword.
    pub start: usize,
    /// Token index one past the matching `}`.
    pub end: usize,
}

/// The parsed view of one source file.
#[derive(Debug)]
pub struct FileAst {
    /// Path relative to the scanned root, `/`-separated.
    pub path: String,
    /// Crate directory name (`sim`, `cluster`, …; `root` for the facade).
    pub krate: String,
    /// Module path derived from the file's location under `src/`.
    pub module: Vec<String>,
    pub uses: Vec<UseDecl>,
    /// Token spans `[use, ;]` of every non-test `use` declaration.
    pub use_spans: Vec<(usize, usize)>,
    pub fns: Vec<FnItem>,
    pub impls: Vec<ImplSpan>,
    pub items: Vec<PubItem>,
}

impl FileAst {
    /// Display name of a fn in this file: `crate::module::Type::name`.
    pub fn qualify(&self, f: &FnItem) -> String {
        let mut parts: Vec<&str> = Vec::with_capacity(4);
        parts.push(&self.krate);
        for m in &self.module {
            parts.push(m);
        }
        if let Some(ty) = &f.self_ty {
            parts.push(ty);
        }
        parts.push(&f.name);
        parts.join("::")
    }
}

/// The crate directory a relative path belongs to (`root` for `src/…`).
pub fn crate_dir(path: &str) -> Option<String> {
    if let Some(rest) = path.strip_prefix("crates/") {
        return rest.split('/').next().map(str::to_string);
    }
    if path.starts_with("src/") {
        return Some("root".to_string());
    }
    None
}

/// The module path of a file under its crate's `src/` directory:
/// `lib.rs`/`main.rs` → `[]`, `foo.rs`/`foo/mod.rs` → `[foo]`,
/// `fleet/shard.rs` → `[fleet, shard]`.
fn module_path(path: &str, krate: &str) -> Vec<String> {
    let rest = if krate == "root" {
        path
    } else {
        let prefix = format!("crates/{krate}/");
        match path.strip_prefix(&prefix) {
            Some(r) => r,
            None => path,
        }
    };
    let rest = rest.strip_prefix("src/").unwrap_or(rest);
    let rest = rest.strip_suffix(".rs").unwrap_or(rest);
    let mut out: Vec<String> = rest
        .split('/')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if matches!(out.last().map(String::as_str), Some("lib" | "main" | "mod")) {
        out.pop();
    }
    out
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "return", "loop", "in", "as", "let", "move", "where",
    "unsafe", "fn", "impl", "pub", "use", "mod", "struct", "enum", "trait", "type", "const",
    "static", "ref", "mut", "dyn", "break", "continue",
];

/// Parse one lexed file into its item-level structure.
pub fn parse(path: &str, lexed: &Lexed) -> FileAst {
    let krate = crate_dir(path).unwrap_or_else(|| "root".to_string());
    let module = module_path(path, &krate);
    let toks = &lexed.tokens;

    let (uses, use_spans) = parse_uses(toks, lexed);
    let impls = find_impl_spans(toks);
    let mut fns = find_fns(toks, lexed, &impls);
    attribute_calls(toks, lexed, &mut fns);
    let items = find_pub_items(toks, lexed, &impls);

    FileAst {
        path: path.to_string(),
        krate,
        module,
        uses,
        use_spans,
        fns: fns.into_iter().map(|f| f.item).collect(),
        impls,
        items,
    }
}

/// True when token `i` sits in item position (start of file or right after
/// `;`, `{`, `}`, or an attribute's `]`).
fn item_position(toks: &[Token], i: usize) -> bool {
    match i.checked_sub(1).map(|p| &toks[p].tok) {
        None => true,
        Some(Tok::Op(';' | '{' | '}' | ']')) => true,
        Some(Tok::Ident(s)) => s == "pub",
        Some(Tok::Op(')')) => {
            // `pub(crate)` / `pub(super)` visibility group.
            let mut depth = 0usize;
            let mut j = i - 1;
            loop {
                match &toks[j].tok {
                    Tok::Op(')') => depth += 1,
                    Tok::Op('(') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    return false;
                }
                j -= 1;
            }
            j.checked_sub(1)
                .is_some_and(|p| matches!(&toks[p].tok, Tok::Ident(s) if s == "pub"))
        }
        _ => false,
    }
}

fn parse_uses(toks: &[Token], lexed: &Lexed) -> (Vec<UseDecl>, Vec<(usize, usize)>) {
    let mut out = Vec::new();
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let is_use = matches!(&toks[i].tok, Tok::Ident(s) if s == "use");
        if !is_use || lexed.in_test_code(i) || !item_position(toks, i) {
            i += 1;
            continue;
        }
        let is_pub = is_pub_item(toks, i);
        let line = toks[i].line;
        let start = i + 1;
        let mut end = start;
        while end < toks.len() && !matches!(&toks[end].tok, Tok::Op(';')) {
            end += 1;
        }
        let mut cursor = start;
        parse_use_tree(
            toks,
            &mut cursor,
            end,
            &mut Vec::new(),
            line,
            is_pub,
            &mut out,
        );
        spans.push((i, (end + 1).min(toks.len())));
        i = end + 1;
    }
    (out, spans)
}

/// True when the item at token `i` carries a `pub` / `pub(crate)` prefix.
fn is_pub_item(toks: &[Token], i: usize) -> bool {
    match i.checked_sub(1).map(|p| &toks[p].tok) {
        Some(Tok::Ident(s)) => s == "pub",
        Some(Tok::Op(')')) => item_position(toks, i),
        _ => false,
    }
}

/// Recursive-descent over one use tree; appends flattened leaves. On entry
/// the prefix holds the group's base path; `,` rewinds to it, `}` returns
/// to the enclosing group.
fn parse_use_tree(
    toks: &[Token],
    cursor: &mut usize,
    end: usize,
    prefix: &mut Vec<String>,
    line: usize,
    is_pub: bool,
    out: &mut Vec<UseDecl>,
) {
    let base = prefix.len();
    while *cursor < end {
        match &toks[*cursor].tok {
            Tok::Ident(s) if s == "as" => {
                *cursor += 1;
                if let Some(Tok::Ident(alias)) = toks.get(*cursor).map(|t| &t.tok) {
                    if let Some(last) = out.last_mut() {
                        last.alias = Some(alias.clone());
                    }
                    *cursor += 1;
                }
            }
            Tok::Ident(s) => {
                prefix.push(s.clone());
                *cursor += 1;
                // Leaf unless followed by `::`.
                let continues = matches!(toks.get(*cursor).map(|t| &t.tok), Some(Tok::Op(':')))
                    && matches!(toks.get(*cursor + 1).map(|t| &t.tok), Some(Tok::Op(':')));
                if continues {
                    *cursor += 2;
                } else {
                    out.push(UseDecl {
                        line,
                        is_pub,
                        path: prefix.clone(),
                        alias: None,
                        glob: false,
                    });
                    prefix.pop();
                }
            }
            Tok::Op('*') => {
                out.push(UseDecl {
                    line,
                    is_pub,
                    path: prefix.clone(),
                    alias: None,
                    glob: true,
                });
                *cursor += 1;
            }
            Tok::Op('{') => {
                *cursor += 1;
                parse_use_tree(toks, cursor, end, prefix, line, is_pub, out);
                // The recursive call consumed through its matching `}`.
                prefix.truncate(base);
            }
            Tok::Op(',') => {
                *cursor += 1;
                prefix.truncate(base);
            }
            Tok::Op('}') => {
                *cursor += 1;
                return;
            }
            _ => {
                *cursor += 1;
            }
        }
    }
}

fn find_impl_spans(toks: &[Token]) -> Vec<ImplSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let is_impl = matches!(&toks[i].tok, Tok::Ident(s) if s == "impl");
        if !is_impl || !item_position(toks, i) {
            i += 1;
            continue;
        }
        // Collect idents at angle-depth 0 up to the opening brace; `for`
        // resets the collection so `impl Trait for Type` names `Type`.
        let mut j = i + 1;
        let mut angle = 0isize;
        let mut ty: Option<String> = None;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Op('<') => angle += 1,
                Tok::Op('>') => angle -= 1,
                Tok::Op('{') if angle <= 0 => break,
                Tok::Op(';') if angle <= 0 => break,
                Tok::Ident(s) if s == "for" && angle <= 0 => ty = None,
                Tok::Ident(s) if angle <= 0 && !KEYWORDS.contains(&s.as_str()) => {
                    ty = Some(s.clone());
                }
                _ => {}
            }
            j += 1;
        }
        if j < toks.len() && matches!(&toks[j].tok, Tok::Op('{')) {
            let end = match_brace(toks, j);
            if let (Some(ty), Some(end)) = (ty, end) {
                out.push(ImplSpan { ty, start: i, end });
            }
            i = j + 1;
        } else {
            i = j + 1;
        }
    }
    out
}

/// Given the index of `{`, return the index one past its matching `}`.
fn match_brace(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match &t.tok {
            Tok::Op('{') => depth += 1,
            Tok::Op('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Item keywords a `pub` item can carry, in the `u1` rule's scope.
const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "const", "static", "type", "trait"];

/// Every plain-`pub` item outside test code. `pub(crate)` and narrower
/// items are rustc's `dead_code` business, not part of the public surface.
fn find_pub_items(toks: &[Token], lexed: &Lexed, impls: &[ImplSpan]) -> Vec<PubItem> {
    let ident = |k: usize| match toks.get(k).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if ident(i) != Some("pub") || lexed.in_test_code(i) || !item_position(toks, i) {
            continue;
        }
        // Skip fn qualifiers (`const`/`unsafe`/`async`/`extern "C"`).
        let mut k = i + 1;
        loop {
            match (ident(k), ident(k + 1)) {
                (Some("unsafe" | "async" | "extern"), _) => k += 1,
                (Some("const"), Some("fn" | "unsafe" | "async" | "extern")) => k += 1,
                _ if matches!(toks.get(k).map(|t| &t.tok), Some(Tok::Str(_))) => k += 1,
                _ => break,
            }
        }
        let Some(kind) = ident(k).and_then(|kw| ITEM_KINDS.iter().copied().find(|&c| c == kw))
        else {
            continue;
        };
        let name_at = if ident(k + 1) == Some("mut") {
            k + 2
        } else {
            k + 1
        };
        let Some(name) = ident(name_at) else {
            continue;
        };
        let self_ty = impls
            .iter()
            .find(|s| s.start < i && i < s.end)
            .map(|s| s.ty.clone());
        out.push(PubItem {
            kind,
            name: name.to_string(),
            self_ty,
            line: toks[i].line,
            span: (i, item_end(toks, name_at, kind)),
        });
    }
    out
}

/// One past the last token of the item whose name sits at `from`: the
/// matching `}` of a braced body, or the `;` that ends the item.
fn item_end(toks: &[Token], from: usize, kind: &str) -> usize {
    let braced = matches!(kind, "fn" | "struct" | "enum" | "trait");
    let mut depth = 0isize;
    for j in from..toks.len() {
        match &toks[j].tok {
            Tok::Op('{') if depth == 0 && braced => {
                return match_brace(toks, j).unwrap_or(toks.len());
            }
            Tok::Op('(' | '[' | '{') => depth += 1,
            Tok::Op(')' | ']' | '}') => depth -= 1,
            Tok::Op(';') if depth == 0 => return j + 1,
            _ => {}
        }
    }
    toks.len()
}

struct FnSpan {
    item: FnItem,
    body_start: usize,
    body_end: usize,
}

fn find_fns(toks: &[Token], lexed: &Lexed, impls: &[ImplSpan]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let is_fn = matches!(&toks[i].tok, Tok::Ident(s) if s == "fn");
        if !is_fn || lexed.in_test_code(i) {
            i += 1;
            continue;
        }
        let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) else {
            i += 1;
            continue;
        };
        // Scan for the body `{` (or a `;` for body-less trait decls) at
        // paren/bracket depth 0; array types carry `;` at depth > 0.
        let mut j = i + 2;
        let mut depth = 0isize;
        let mut body = None;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Op('(' | '[') => depth += 1,
                Tok::Op(')' | ']') => depth -= 1,
                Tok::Op('{') if depth == 0 => {
                    body = Some(j);
                    break;
                }
                Tok::Op(';') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(body_start) = body else {
            i = j + 1;
            continue;
        };
        let Some(body_end) = match_brace(toks, body_start) else {
            i = j + 1;
            continue;
        };
        let self_ty = impls
            .iter()
            .find(|s| s.start < i && i < s.end)
            .map(|s| s.ty.clone());
        out.push(FnSpan {
            item: FnItem {
                name: name.clone(),
                self_ty,
                line: toks[i].line,
                calls: Vec::new(),
            },
            body_start,
            body_end,
        });
        // Continue INSIDE the body so nested fns are collected too.
        i = body_start + 1;
    }
    out
}

/// Scan every call site and attribute it to the innermost enclosing fn.
fn attribute_calls(toks: &[Token], lexed: &Lexed, fns: &mut [FnSpan]) {
    for i in 0..toks.len() {
        let Tok::Ident(name) = &toks[i].tok else {
            continue;
        };
        if lexed.in_test_code(i) || KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Op('('))) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &toks[p].tok);
        if matches!(prev, Some(Tok::Ident(s)) if s == "fn") {
            continue;
        }
        let method = matches!(prev, Some(Tok::Op('.')));
        let mut path = vec![name.clone()];
        if !method {
            // Walk leading `Seg::` qualifiers backwards.
            let mut k = i;
            while k >= 3
                && matches!(&toks[k - 1].tok, Tok::Op(':'))
                && matches!(&toks[k - 2].tok, Tok::Op(':'))
            {
                if let Tok::Ident(seg) = &toks[k - 3].tok {
                    if KEYWORDS.contains(&seg.as_str()) {
                        break;
                    }
                    path.insert(0, seg.clone());
                    k -= 3;
                } else {
                    break;
                }
            }
        }
        let line = toks[i].line;
        // Innermost enclosing fn = the one with the latest body_start that
        // still covers i.
        let owner = fns
            .iter_mut()
            .filter(|f| f.body_start < i && i < f.body_end)
            .max_by_key(|f| f.body_start);
        if let Some(owner) = owner {
            owner.item.calls.push(CallSite { line, path, method });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ast(src: &str) -> FileAst {
        parse("crates/demo/src/lib.rs", &lex(src))
    }

    #[test]
    fn module_paths_from_file_locations() {
        assert_eq!(
            parse("crates/cluster/src/fleet/shard.rs", &lex("")).module,
            vec!["fleet".to_string(), "shard".to_string()]
        );
        assert!(parse("crates/sim/src/lib.rs", &lex("")).module.is_empty());
        assert_eq!(
            parse("crates/sim/src/foo/mod.rs", &lex("")).module,
            vec!["foo".to_string()]
        );
        assert_eq!(parse("crates/sim/src/engine.rs", &lex("")).krate, "sim");
        assert_eq!(parse("src/lib.rs", &lex("")).krate, "root");
    }

    #[test]
    fn use_trees_flatten_groups_globs_and_renames() {
        let a = ast("use std::time::{Duration, Instant as Clock};\npub use std::collections::*;\nuse a::b;\n");
        assert_eq!(a.uses.len(), 4);
        assert_eq!(a.uses[0].path, vec!["std", "time", "Duration"]);
        assert!(!a.uses[0].is_pub);
        assert_eq!(a.uses[1].path, vec!["std", "time", "Instant"]);
        assert_eq!(a.uses[1].alias.as_deref(), Some("Clock"));
        assert_eq!(a.uses[1].binding(), Some("Clock"));
        assert!(a.uses[2].glob && a.uses[2].is_pub);
        assert_eq!(a.uses[2].path, vec!["std", "collections"]);
        assert_eq!(a.uses[3].path, vec!["a", "b"]);
    }

    #[test]
    fn nested_use_groups() {
        let a = ast("use x::{y::{z, w as v}, q};\n");
        let paths: Vec<Vec<String>> = a.uses.iter().map(|u| u.path.clone()).collect();
        assert_eq!(
            paths,
            vec![
                vec!["x".to_string(), "y".into(), "z".into()],
                vec!["x".to_string(), "y".into(), "w".into()],
                vec!["x".to_string(), "q".into()],
            ]
        );
        assert_eq!(a.uses[1].alias.as_deref(), Some("v"));
    }

    #[test]
    fn fns_calls_and_impl_types() {
        let src = "
pub struct Sched;
impl Sched {
    pub fn tick(&self) -> u64 {
        helper::phase() + self.inner()
    }
    fn inner(&self) -> u64 { 1 }
}
fn free() {
    let t = std::time::Instant::now();
    t.elapsed();
}
";
        let a = ast(src);
        let names: Vec<String> = a.fns.iter().map(|f| a.qualify(f)).collect();
        assert_eq!(
            names,
            vec!["demo::Sched::tick", "demo::Sched::inner", "demo::free"]
        );
        let tick = &a.fns[0];
        assert_eq!(
            tick.calls[0],
            CallSite {
                line: 5,
                path: vec!["helper".into(), "phase".into()],
                method: false
            }
        );
        assert!(tick.calls[1].method && tick.calls[1].path == vec!["inner".to_string()]);
        let free = &a.fns[2];
        assert_eq!(
            free.calls[0].path,
            vec![
                "std".to_string(),
                "time".into(),
                "Instant".into(),
                "now".into()
            ]
        );
        assert!(free.calls[1].method);
    }

    #[test]
    fn nested_fns_get_innermost_attribution() {
        let src = "
fn outer() {
    fn inner() {
        deep_call();
    }
    shallow_call();
}
";
        let a = ast(src);
        let outer = a.fns.iter().find(|f| f.name == "outer").expect("outer");
        let inner = a.fns.iter().find(|f| f.name == "inner").expect("inner");
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].path, vec!["shallow_call".to_string()]);
        assert_eq!(inner.calls[0].path, vec!["deep_call".to_string()]);
    }

    #[test]
    fn trait_decls_and_test_code_are_skipped() {
        let src = "
trait T { fn decl_only(&self); }
#[cfg(test)]
mod tests {
    fn t() { hidden_call(); }
    use std::time::Instant;
}
fn prod() { visible_call(); }
";
        let a = ast(src);
        assert!(a
            .fns
            .iter()
            .all(|f| f.name != "decl_only" || f.calls.is_empty()));
        assert!(a.fns.iter().all(|f| f.name != "t"));
        assert!(a.uses.is_empty(), "test-gated uses are skipped");
        let prod = a.fns.iter().find(|f| f.name == "prod").expect("prod");
        assert_eq!(prod.calls[0].path, vec!["visible_call".to_string()]);
    }

    #[test]
    fn pub_items_record_kind_owner_and_span() {
        let src = "
pub struct Point { pub x: u32 }
impl Point {
    pub const fn origin() -> Point { Point { x: 0 } }
    pub(crate) fn hidden(&self) {}
}
impl Default for Point { fn default() -> Self { Point::origin() } }
pub const LIMIT: [u8; 2] = [1, 2];
pub static mut COUNT: u32 = 0;
pub type Alias = Point;
pub trait Shape { fn area(&self) -> f64; }
pub enum Kind { A, B }
#[cfg(test)]
pub fn test_only() {}
";
        let a = ast(src);
        let got: Vec<(&str, &str, Option<&str>, usize)> = a
            .items
            .iter()
            .map(|it| (it.kind, it.name.as_str(), it.self_ty.as_deref(), it.line))
            .collect();
        assert_eq!(
            got,
            vec![
                ("struct", "Point", None, 2),
                ("fn", "origin", Some("Point"), 4),
                ("const", "LIMIT", None, 8),
                ("static", "COUNT", None, 9),
                ("type", "Alias", None, 10),
                ("trait", "Shape", None, 11),
                ("enum", "Kind", None, 12),
            ]
        );
        // Spans cover the whole item: the struct's fields, the const's
        // initializer through its `;`.
        let toks = &lex(src).tokens;
        let last = |i: usize| &toks[a.items[i].span.1 - 1].tok;
        assert_eq!(last(0), &Tok::Op('}'));
        assert_eq!(last(2), &Tok::Op(';'));
        assert_eq!(a.impls.len(), 2);
        assert!(a.impls.iter().all(|s| s.ty == "Point"));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let src = "fn f() { println!(\"x\"); if cond() { return; } match x() {} }";
        let a = ast(src);
        let paths: Vec<Vec<String>> = a.fns[0].calls.iter().map(|c| c.path.clone()).collect();
        assert_eq!(paths, vec![vec!["cond".to_string()], vec!["x".to_string()]]);
    }
}

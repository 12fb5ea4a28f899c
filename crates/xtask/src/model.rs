//! The workspace symbol model: an item-level view of the sources built
//! from the [`crate::tokens`] stream (no rustc, no syn — consistent with
//! the vendored-stub policy).
//!
//! The model records exactly what the `analyze` passes consume:
//!
//! * **enums with variants** — the enum families of
//!   [`crate::analyze::FAMILIES`];
//! * **fn items** with their impl context and body token ranges — the
//!   call-graph nodes;
//! * **impl blocks** with trait names — so a `Display` match arm is not
//!   mistaken for a construction site;
//! * **lock acquisition sites** (`.lock()`, `.read()`, `.write()`,
//!   `.get_or_init(…)`) with guard liveness — the lock-order graph input;
//! * **direct calls** — the call-graph edges;
//! * **path references** (`Qual::Name`) — variant match/construction/test
//!   mentions.
//!
//! Everything is an *approximation over tokens*, not a compiled crate:
//! guard liveness is block-scoped (a guard moved out of its block is
//! considered released), call resolution is by bare name, and lock
//! identity is `ImplType::receiver_field`. The analyses that consume the
//! model are designed so over-approximation surfaces as an annotatable
//! finding, never a silent pass.

use crate::lexer::{self, Line};
use crate::rules;
use crate::tokens::{self, TokKind, TokenFile};

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "return", "for", "loop", "let", "fn", "impl", "enum", "struct",
    "trait", "mod", "use", "pub", "where", "move", "else", "in", "as", "dyn", "ref", "mut",
    "break", "continue", "crate", "super",
];

/// The lock-acquisition method names the model recognizes. `Mutex`/
/// `RwLock`/`parking_lot` guards plus `OnceLock::get_or_init` (whose
/// closure runs under the cell's internal lock) — `FlightSlot` is an
/// `Arc<Mutex<…>>`, so its acquisitions are `.lock()` like any other.
const LOCK_METHODS: &[&str] = &["lock", "read", "write", "get_or_init"];

/// One tokenized, line-split source file of the model.
pub struct SourceFile {
    /// Workspace-relative path (virtual for fixtures).
    pub path: String,
    /// The lexer's per-line code/comment channels.
    pub lines: Vec<Line>,
    /// The token stream + delimiter index.
    pub tf: TokenFile,
    /// Per-line `#[cfg(test)]`-region flags (whole file for `tests/`).
    pub in_test: Vec<bool>,
    /// `// lint: allow(...)` annotations (shared grammar with the lints).
    pub allows: rules::Allows,
}

impl SourceFile {
    fn tok_in_test(&self, tok: usize) -> bool {
        let line = self.tf.toks[tok].line;
        self.in_test.get(line).copied().unwrap_or(false)
    }
}

/// An `enum` item and its variants.
pub struct EnumDef {
    /// Index into [`Model::files`].
    pub file: usize,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// The enum's name.
    pub name: String,
    /// `(variant name, 1-based line)` in declaration order.
    pub variants: Vec<(String, usize)>,
    /// Token range of the `{ … }` body (used to exclude the definition
    /// itself from reference counts).
    pub body: (usize, usize),
    /// Whether the definition sits in test code.
    pub in_test: bool,
}

/// A `fn` item.
pub struct FnDef {
    /// Index into [`Model::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` type name, if any.
    pub qual: Option<String>,
    /// Token indices of the body braces; `None` for bodyless decls.
    pub body: Option<(usize, usize)>,
    /// In test code: a `#[cfg(test)]` region, a `tests/` file, or an
    /// attribute mentioning `test`.
    pub in_test: bool,
}

/// An `impl` block (inherent or trait).
pub struct ImplDef {
    /// Index into [`Model::files`].
    pub file: usize,
    /// The implemented trait's name for `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// The `Self` type's name.
    pub type_name: String,
    /// Token indices of the body braces.
    pub body: (usize, usize),
}

/// One `Qual::Name` path pair.
pub struct PathRef {
    /// Index into [`Model::files`].
    pub file: usize,
    /// 1-based line.
    pub line: usize,
    /// Token index of the qualifier.
    pub tok: usize,
    /// The qualifier (`Request` of `Request::Open`).
    pub qual: String,
    /// The referred name (`Open` of `Request::Open`).
    pub name: String,
    /// Whether the reference sits in test code.
    pub in_test: bool,
}

/// One lock acquisition.
pub struct LockSite {
    /// Index into [`Model::files`].
    pub file: usize,
    /// 1-based line.
    pub line: usize,
    /// Token index of the receiver's head.
    pub tok: usize,
    /// Lock identity: `ImplType::receiver_field` (or `file-stem::field`
    /// outside any impl).
    pub lock: String,
    /// Index into [`Model::fns`] of the owning function, if any.
    pub fn_idx: Option<usize>,
    /// Guard liveness: the token index past which the guard is dead. For
    /// a temporary (no `let` binding) this equals `tok` — the guard lives
    /// for the statement only.
    pub held_until: usize,
    /// `// lint: allow(lock-order) — reason` on the acquisition line:
    /// the site is excluded from the lock-order graph.
    pub allowed: bool,
    /// Whether the site sits in test code.
    pub in_test: bool,
}

/// One direct call `callee(…)` / `.callee(…)` / `Type::callee(…)`.
pub struct CallSite {
    /// Index into [`Model::files`].
    pub file: usize,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// The callee's bare name.
    pub callee: String,
    /// Index into [`Model::fns`] of the calling function, if any.
    pub fn_idx: Option<usize>,
}

/// The assembled workspace model.
pub struct Model {
    /// Every tokenized source file.
    pub files: Vec<SourceFile>,
    /// Every `enum` item.
    pub enums: Vec<EnumDef>,
    /// Every `fn` item.
    pub fns: Vec<FnDef>,
    /// Every `impl` block.
    pub impls: Vec<ImplDef>,
    /// Every `Qual::Name` pair.
    pub path_refs: Vec<PathRef>,
    /// Every lock acquisition.
    pub locks: Vec<LockSite>,
    /// Every direct call.
    pub calls: Vec<CallSite>,
}

impl Model {
    /// Builds the model from `(path, source)` pairs. Paths drive test
    /// classification (`/tests/` files are wholly test code) and lock
    /// identity fallbacks; fixtures pass virtual paths.
    pub fn build(files: &[(String, String)]) -> Model {
        let mut model = Model {
            files: Vec::new(),
            enums: Vec::new(),
            fns: Vec::new(),
            impls: Vec::new(),
            path_refs: Vec::new(),
            locks: Vec::new(),
            calls: Vec::new(),
        };
        for (path, src) in files {
            let lines = lexer::split(src);
            let tf = tokens::tokenize(&lines);
            let all_test = path.contains("/tests/") || path.starts_with("tests/");
            let in_test = if all_test {
                vec![true; lines.len()]
            } else {
                rules::test_regions(&lines)
            };
            let allows = rules::collect_allows(&lines);
            model.files.push(SourceFile {
                path: path.clone(),
                lines,
                tf,
                in_test,
                allows,
            });
            let fi = model.files.len() - 1;
            model.scan_file(fi);
        }
        model
    }

    /// The enum named `name` defined in a file whose path contains
    /// `path_hint` (first match).
    pub fn enum_def(&self, name: &str, path_hint: &str) -> Option<&EnumDef> {
        self.enums
            .iter()
            .find(|e| e.name == name && self.files[e.file].path.contains(path_hint))
    }

    /// Every reference `Qual::Name`.
    pub fn refs<'a>(&'a self, qual: &'a str, name: &'a str) -> impl Iterator<Item = &'a PathRef> {
        self.path_refs
            .iter()
            .filter(move |r| r.qual == qual && r.name == name)
    }

    /// The impl block whose body contains token `tok` of file `file`.
    pub fn impl_at(&self, file: usize, tok: usize) -> Option<&ImplDef> {
        self.impls
            .iter()
            .filter(|i| i.file == file && i.body.0 < tok && tok < i.body.1)
            .max_by_key(|i| i.body.0)
    }

    /// The fn whose body contains token `tok` of file `file`.
    pub fn fn_at(&self, file: usize, tok: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.body.is_some_and(|(b, e)| b < tok && tok < e))
            .max_by_key(|(_, f)| f.body.map(|(b, _)| b))
            .map(|(i, _)| i)
    }

    // -- construction -------------------------------------------------------

    fn scan_file(&mut self, fi: usize) {
        self.scan_impls_enums_fns(fi);
        self.scan_paths(fi);
        self.scan_locks_and_calls(fi);
    }

    /// Skip a generic parameter list starting at `<`; returns the index
    /// past the matching `>`. `->` is one token, so angle depth is exact
    /// for well-formed items.
    fn skip_angles(tf: &TokenFile, mut i: usize) -> usize {
        let mut depth = 0usize;
        while i < tf.toks.len() {
            match tf.toks[i].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i
    }

    fn scan_impls_enums_fns(&mut self, fi: usize) {
        let file = &self.files[fi];
        let tf = &file.tf;
        let n = tf.toks.len();
        let mut enums = Vec::new();
        let mut impls = Vec::new();
        let mut fns = Vec::new();
        for i in 0..n {
            let t = &tf.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "impl" => {
                    if let Some(d) = Self::parse_impl(tf, i, fi) {
                        impls.push(d);
                    }
                }
                "enum" => {
                    if let Some(d) = Self::parse_enum(file, i, fi) {
                        enums.push(d);
                    }
                }
                "fn" => {
                    if let Some(d) = Self::parse_fn(file, i, fi) {
                        fns.push(d);
                    }
                }
                _ => {}
            }
        }
        // Attach impl context to fns (impls were collected in the same
        // pass, order-independent thanks to token ranges).
        for f in &mut fns {
            if let Some((b, _)) = f.body {
                f.qual = impls
                    .iter()
                    .filter(|i| i.body.0 < b && b < i.body.1)
                    .max_by_key(|i| i.body.0)
                    .map(|i| i.type_name.clone());
            }
        }
        self.enums.extend(enums);
        self.impls.extend(impls);
        self.fns.extend(fns);
    }

    fn parse_impl(tf: &TokenFile, at: usize, fi: usize) -> Option<ImplDef> {
        // impl[<…>] Trait for Type { … }   |   impl[<…>] Type[<…>] { … }
        let mut i = at + 1;
        if tf.toks.get(i)?.is_punct("<") {
            i = Self::skip_angles(tf, i);
        }
        // Last path segment before `for` is the trait; last segment of the
        // type head after `for` (or of the whole header for inherent
        // impls) is the Self type. Idents after `where` are bounds, not
        // names.
        let mut pre_for: Option<String> = None;
        let mut post_for: Option<String> = None;
        let mut saw_for = false;
        let mut in_where = false;
        while i < tf.toks.len() {
            let t = &tf.toks[i];
            if t.is_punct("{") {
                let close = tf.match_of(i)?;
                let type_name = if saw_for { post_for? } else { pre_for.clone()? };
                return Some(ImplDef {
                    file: fi,
                    trait_name: if saw_for { pre_for } else { None },
                    type_name,
                    body: (i, close),
                });
            }
            if t.is_punct(";") {
                return None;
            }
            if t.is_ident("for") {
                saw_for = true;
            } else if t.is_ident("where") {
                in_where = true;
            } else if t.kind == TokKind::Ident && !t.is_ident("dyn") && !in_where {
                if saw_for {
                    post_for = Some(t.text.clone());
                } else {
                    pre_for = Some(t.text.clone());
                }
            }
            if t.is_punct("<") {
                i = Self::skip_angles(tf, i);
                continue;
            }
            i += 1;
        }
        None
    }

    fn parse_enum(file: &SourceFile, at: usize, fi: usize) -> Option<EnumDef> {
        let tf = &file.tf;
        let name_tok = tf.toks.get(at + 1)?;
        if name_tok.kind != TokKind::Ident {
            return None;
        }
        // Find the body brace (skip generics / where clause).
        let mut i = at + 2;
        while i < tf.toks.len() && !tf.toks[i].is_punct("{") {
            if tf.toks[i].is_punct(";") {
                return None;
            }
            if tf.toks[i].is_punct("<") {
                i = Self::skip_angles(tf, i);
                continue;
            }
            i += 1;
        }
        let open = i;
        let close = tf.match_of(open)?;
        let mut variants = Vec::new();
        let mut j = open + 1;
        while j < close {
            let t = &tf.toks[j];
            // Skip attributes on the variant.
            if t.is_punct("#") {
                if tf.toks.get(j + 1).is_some_and(|n| n.is_punct("[")) {
                    j = tf.match_of(j + 1).map(|c| c + 1).unwrap_or(j + 2);
                    continue;
                }
                j += 1;
                continue;
            }
            if t.kind == TokKind::Ident {
                variants.push((t.text.clone(), t.line + 1));
                // Skip to the variant's trailing comma at body depth:
                // jump over payload groups and discriminant expressions.
                while j < close && !tf.toks[j].is_punct(",") {
                    if matches!(tf.toks[j].text.as_str(), "(" | "[" | "{")
                        && tf.toks[j].kind == TokKind::Punct
                    {
                        j = tf.match_of(j).unwrap_or(j);
                    }
                    j += 1;
                }
            }
            j += 1;
        }
        Some(EnumDef {
            file: fi,
            line: tf.toks[at].line + 1,
            name: name_tok.text.clone(),
            variants,
            body: (open, close),
            in_test: file.in_test.get(tf.toks[at].line).copied().unwrap_or(false),
        })
    }

    fn parse_fn(file: &SourceFile, at: usize, fi: usize) -> Option<FnDef> {
        let tf = &file.tf;
        let name_tok = tf.toks.get(at + 1)?;
        if name_tok.kind != TokKind::Ident {
            return None;
        }
        let mut i = at + 2;
        if tf.toks.get(i).is_some_and(|t| t.is_punct("<")) {
            i = Self::skip_angles(tf, i);
        }
        if !tf.toks.get(i).is_some_and(|t| t.is_punct("(")) {
            return None;
        }
        let args_close = tf.match_of(i)?;
        // Scan to the body `{` or a bodyless `;`, jumping over parenthesized
        // return types and skipping generics in where clauses.
        let mut j = args_close + 1;
        let body = loop {
            let t = tf.toks.get(j)?;
            if t.is_punct("{") {
                break Some((j, tf.match_of(j)?));
            }
            if t.is_punct(";") {
                break None;
            }
            if t.is_punct("(") || t.is_punct("[") {
                j = tf.match_of(j)? + 1;
                continue;
            }
            if t.is_punct("<") {
                j = Self::skip_angles(tf, j);
                continue;
            }
            j += 1;
        };
        let line_idx = tf.toks[at].line;
        let in_region = file.in_test.get(line_idx).copied().unwrap_or(false);
        Some(FnDef {
            file: fi,
            line: line_idx + 1,
            name: name_tok.text.clone(),
            qual: None,
            body,
            in_test: in_region || Self::has_test_attr(file, at),
        })
    }

    /// Whether the item at token `at` carries an attribute mentioning
    /// `test` (`#[test]`, `#[cfg(test)]`, …) — `not(test)` excluded.
    fn has_test_attr(file: &SourceFile, at: usize) -> bool {
        let tf = &file.tf;
        let mut j = at;
        // Walk back over visibility/safety qualifiers to the attributes.
        while j > 0 {
            let prev = &tf.toks[j - 1];
            if prev.kind == TokKind::Ident
                && matches!(prev.text.as_str(), "pub" | "unsafe" | "async" | "const")
            {
                j -= 1;
                continue;
            }
            if prev.is_punct(")") {
                // pub(crate)
                if let Some(open) = tf.match_of(j - 1) {
                    j = open;
                    continue;
                }
            }
            if prev.is_punct("]") {
                let Some(open) = tf.match_of(j - 1) else {
                    return false;
                };
                if open > 0 && tf.toks[open - 1].is_punct("#") {
                    let mut saw_not = false;
                    for k in open + 1..j - 1 {
                        let t = &tf.toks[k];
                        if t.is_ident("not") {
                            saw_not = true;
                        }
                        if t.is_ident("test") && !saw_not {
                            return true;
                        }
                    }
                    j = open - 1;
                    continue;
                }
                return false;
            }
            return false;
        }
        false
    }

    fn scan_paths(&mut self, fi: usize) {
        let file = &self.files[fi];
        let tf = &file.tf;
        let mut refs = Vec::new();
        for i in 0..tf.toks.len().saturating_sub(2) {
            if tf.toks[i].kind == TokKind::Ident
                && tf.toks[i + 1].is_punct("::")
                && tf.toks[i + 2].kind == TokKind::Ident
            {
                refs.push(PathRef {
                    file: fi,
                    line: tf.toks[i].line + 1,
                    tok: i,
                    qual: tf.toks[i].text.clone(),
                    name: tf.toks[i + 2].text.clone(),
                    in_test: file.tok_in_test(i),
                });
            }
        }
        self.path_refs.extend(refs);
    }

    fn scan_locks_and_calls(&mut self, fi: usize) {
        let file = &self.files[fi];
        let tf = &file.tf;
        let n = tf.toks.len();
        let mut locks = Vec::new();
        let mut calls = Vec::new();
        for i in 0..n {
            let t = &tf.toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let followed_by_paren = tf.toks.get(i + 1).is_some_and(|x| x.is_punct("("));
            if !followed_by_paren {
                continue;
            }
            let is_def = i > 0 && tf.toks[i - 1].is_ident("fn");
            let is_method = i > 0 && tf.toks[i - 1].is_punct(".");
            if is_def || CALL_KEYWORDS.contains(&t.text.as_str()) {
                continue;
            }
            if is_method && LOCK_METHODS.contains(&t.text.as_str()) {
                if let Some(site) = Self::lock_site(file, fi, i) {
                    locks.push(site);
                }
                continue;
            }
            calls.push(CallSite {
                file: fi,
                tok: i,
                callee: t.text.clone(),
                fn_idx: None,
            });
        }
        self.locks.extend(locks);
        self.calls.extend(calls);
        // Resolve owners now that fns for this file exist.
        for idx in 0..self.locks.len() {
            if self.locks[idx].file == fi && self.locks[idx].fn_idx.is_none() {
                self.locks[idx].fn_idx = self.fn_at(fi, self.locks[idx].tok);
            }
        }
        for idx in 0..self.calls.len() {
            if self.calls[idx].file == fi && self.calls[idx].fn_idx.is_none() {
                self.calls[idx].fn_idx = self.fn_at(fi, self.calls[idx].tok);
            }
        }
    }

    /// Builds a [`LockSite`] for the lock method at token `at` (the
    /// method-name token; `at-1` is the `.`).
    fn lock_site(file: &SourceFile, fi: usize, at: usize) -> Option<LockSite> {
        let tf = &file.tf;
        // Receiver field: nearest ident before the `.`, jumping over index
        // / call groups (`self.tops[k].sets` → `sets`).
        let mut r = at - 1; // the `.`
        let field = loop {
            if r == 0 {
                return None;
            }
            r -= 1;
            let t = &tf.toks[r];
            if t.kind == TokKind::Ident {
                break t.text.clone();
            }
            if t.is_punct(")") || t.is_punct("]") {
                r = tf.match_of(r)?;
                continue;
            }
            if t.is_punct(".") || t.is_punct("::") {
                continue;
            }
            return None;
        };
        let line_idx = tf.toks[at].line;
        let held_until = Self::guard_extent(tf, r, at);
        Some(LockSite {
            file: fi,
            line: line_idx + 1,
            tok: at,
            lock: field,
            fn_idx: None,
            held_until,
            allowed: file.allows.allowed(line_idx, "lock-order"),
            in_test: file.tok_in_test(at),
        })
    }

    /// Guard liveness: if the acquisition is `let`-bound (directly, or as
    /// the tail expression of a `let x = { …; recv.lock() };` block —
    /// repeatedly, for nested block values), the guard lives to the end of
    /// the block holding the `let` — or to a `drop(name)` before that.
    /// Otherwise it is a temporary, dead at the end of its own statement
    /// (`held_until == acquisition token`).
    fn guard_extent(tf: &TokenFile, recv_head: usize, at: usize) -> usize {
        let mut probe = recv_head;
        // End of the acquisition expression: the lock call's close paren.
        let mut expr_end = at;
        if tf.toks.get(at + 1).is_some_and(|t| t.is_punct("(")) {
            if let Some(close) = tf.match_of(at + 1) {
                expr_end = close;
            }
        }
        loop {
            if let Some(let_idx) = Self::stmt_let(tf, probe) {
                let end = tf.block_end(let_idx).unwrap_or(tf.toks.len());
                // `drop(name)` inside the scope releases early.
                if let Some(name) = Self::binding_name(tf, let_idx) {
                    for k in at..end {
                        if tf.toks[k].is_ident("drop")
                            && tf.toks.get(k + 1).is_some_and(|t| t.is_punct("("))
                            && tf.toks.get(k + 2).is_some_and(|t| t.is_ident(&name))
                        {
                            return k;
                        }
                    }
                }
                return end;
            }
            // Not directly bound. If the expression is a block's tail
            // (`{ …; recv.lock() }`), the value — and the guard — flows
            // one block out; look for a binding there.
            let close = expr_end + 1;
            if !tf.toks.get(close).is_some_and(|t| t.is_punct("}")) {
                return at;
            }
            let Some(open) = tf.match_of(close) else {
                return at;
            };
            if open == 0 || !tf.toks[open - 1].is_punct("=") {
                return at;
            }
            probe = open - 1;
            expr_end = close;
        }
    }

    /// Scans backwards from `from` for the statement's `let`, stopping at
    /// statement/block boundaries.
    fn stmt_let(tf: &TokenFile, from: usize) -> Option<usize> {
        let mut j = from;
        loop {
            let t = &tf.toks[j];
            if t.is_ident("let") {
                return Some(j);
            }
            if t.is_punct(";") || t.is_punct("}") || t.is_punct("{") {
                return None;
            }
            if t.is_punct(")") || t.is_punct("]") {
                if let Some(open) = tf.match_of(j) {
                    j = open;
                }
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
    }

    fn binding_name(tf: &TokenFile, let_idx: usize) -> Option<String> {
        let mut j = let_idx + 1;
        while j < tf.toks.len() {
            let t = &tf.toks[j];
            if t.is_ident("mut") {
                j += 1;
                continue;
            }
            if t.kind == TokKind::Ident {
                return Some(t.text.clone());
            }
            return None;
        }
        None
    }
}

/// Qualifies a lock's receiver field by its impl context: the node name
/// used in the lock-order graph.
pub fn lock_node(model: &Model, site: &LockSite) -> String {
    let qual = model
        .impl_at(site.file, site.tok)
        .map(|i| i.type_name.clone())
        .unwrap_or_else(|| {
            let path = &model.files[site.file].path;
            path.rsplit('/')
                .next()
                .unwrap_or(path)
                .trim_end_matches(".rs")
                .to_string()
        });
    format!("{qual}::{}", site.lock)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> Model {
        Model::build(&[("crates/core/src/x.rs".to_string(), src.to_string())])
    }

    #[test]
    fn enums_and_variants_parse() {
        let m = model(
            "pub enum Request {\n\
                 Open { query: String },\n\
                 #[allow(dead_code)]\n\
                 Expand(u64, u32),\n\
                 Stats,\n\
             }\n",
        );
        let e = &m.enums[0];
        assert_eq!(e.name, "Request");
        let names: Vec<&str> = e.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Open", "Expand", "Stats"]);
    }

    #[test]
    fn fns_get_impl_context_and_test_flags() {
        let m = model(
            "impl Engine {\n\
                 fn probe(&self) -> u32 { 1 }\n\
             }\n\
             impl std::fmt::Display for EngineError {\n\
                 fn fmt(&self, f: &mut F) -> R { write(f) }\n\
             }\n\
             #[test]\n\
             fn check_probe() { assert!(true); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() {}\n\
             }\n",
        );
        let probe = m.fns.iter().find(|f| f.name == "probe").unwrap();
        assert_eq!(probe.qual.as_deref(), Some("Engine"));
        assert!(!probe.in_test);
        let fmt = m.fns.iter().find(|f| f.name == "fmt").unwrap();
        assert_eq!(fmt.qual.as_deref(), Some("EngineError"));
        let imp = m.impl_at(fmt.file, fmt.body.unwrap().0 + 1).unwrap();
        assert_eq!(imp.trait_name.as_deref(), Some("Display"));
        assert!(
            m.fns
                .iter()
                .find(|f| f.name == "check_probe")
                .unwrap()
                .in_test
        );
        assert!(m.fns.iter().find(|f| f.name == "helper").unwrap().in_test);
    }

    #[test]
    fn lock_sites_track_guard_liveness() {
        let m = model(
            "impl Engine {\n\
                 fn a(&self) {\n\
                     let g = self.cache.lock();\n\
                     self.flights.lock().clear();\n\
                     drop(g);\n\
                     self.sessions.lock().len();\n\
                 }\n\
                 fn b(&self) {\n\
                     let t = {\n\
                         let _sp = span();\n\
                         self.sessions.lock()\n\
                     };\n\
                     t.len();\n\
                 }\n\
             }\n",
        );
        let cache = m.locks.iter().find(|l| l.lock == "cache").unwrap();
        let flights = m.locks.iter().find(|l| l.lock == "flights").unwrap();
        // cache is let-bound: held past the flights acquisition, released
        // at drop(g) before the sessions acquisition.
        assert!(cache.held_until > flights.tok);
        let sess_a = m
            .locks
            .iter()
            .filter(|l| l.lock == "sessions")
            .find(|l| m.fns[l.fn_idx.unwrap()].name == "a")
            .unwrap();
        assert!(cache.held_until < sess_a.tok, "drop(g) releases the guard");
        // flights is a temporary: dead at its own statement.
        assert_eq!(flights.held_until, flights.tok);
        // b: the block-value binding holds the guard past the block.
        let sess_b = m
            .locks
            .iter()
            .filter(|l| l.lock == "sessions")
            .find(|l| m.fns[l.fn_idx.unwrap()].name == "b")
            .unwrap();
        assert!(
            sess_b.held_until > sess_b.tok + 4,
            "held into the outer block"
        );
    }

    #[test]
    fn calls_and_paths_are_collected() {
        let m = model(
            "fn outer() {\n\
                 helper(1);\n\
                 self.method(2);\n\
                 let x = EngineError::UnknownSession(id);\n\
                 mac!(ignored);\n\
             }\n",
        );
        let callees: Vec<&str> = m.calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(callees.contains(&"helper"));
        assert!(callees.contains(&"method"));
        assert!(!callees.contains(&"mac"));
        assert!(m
            .path_refs
            .iter()
            .any(|r| r.qual == "EngineError" && r.name == "UnknownSession"));
    }
}

//! The public-API snapshot entries.
//!
//! `cargo xtask check` extracts every `pub` item of the library crates —
//! free functions, inherent methods, structs and their `pub` fields, enum
//! variants, traits and their methods, type aliases, consts, re-exports —
//! normalizes each to one line of token text, and compares the sorted set
//! against the committed `api.lock` at the workspace root
//! ([`crate::snapshot`]). A mismatch fails the run: changing a public
//! signature requires re-running with `--update` and committing the diff,
//! so breaking changes are always a *reviewed* diff, never an accident.
//!
//! The surface is over-approximated on purpose: module visibility chains
//! are not resolved (a `pub` item inside a private module is still
//! locked), because the lock checks *stability*, not reachability —
//! over-locking can only make the snapshot stricter.

use crate::lexer::{matching, Kind, Tok};

/// Extracts the public-API entries of one file's tokens, skipping those
/// under `mask` (test code). `prefix` is the crate + module path the
/// entries are namespaced under (e.g. `core::offline::rvaq`).
pub fn api_of_file(prefix: &str, toks: &[Tok], mask: &[bool]) -> Vec<String> {
    let mut out = Vec::new();
    let mut mods: Vec<(String, i32)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if mask[i] {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
            }
            i += 1;
            continue;
        }
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            while mods.last().is_some_and(|&(_, d)| d > depth) {
                mods.pop();
            }
            i += 1;
            continue;
        }
        if t.is_ident("impl") {
            i = emit_impl(prefix, &mods, toks, mask, i, &mut out);
            continue;
        }
        if t.is_ident("macro_rules") && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            // A macro body is a token template, not items: its `pub struct
            // $name` names no type (xtask does not expand macros).
            let open = i + 3;
            i = if toks
                .get(open)
                .is_some_and(|n| n.is_punct('{') || n.is_punct('('))
            {
                matching(toks, open) + 1
            } else {
                i + 1
            };
            continue;
        }
        if t.is_ident("mod")
            && toks.get(i + 1).is_some_and(|n| n.kind == Kind::Ident)
            && toks.get(i + 2).is_some_and(|n| n.is_punct('{'))
        {
            // Inline module (any visibility): extend the path.
            mods.push((toks[i + 1].text.clone(), depth + 1));
            depth += 1;
            i += 3;
            continue;
        }
        if t.is_ident("pub") {
            // `pub(crate)` / `pub(super)` are not public API.
            if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                i += 1;
                continue;
            }
            i = emit_pub_item(prefix, &mods, toks, i, &mut out);
            continue;
        }
        i += 1;
    }
    out.sort();
    out.dedup();
    out
}

/// Current path string: `prefix[::mod[::mod…]]`.
fn path_of(prefix: &str, mods: &[(String, i32)]) -> String {
    let mut p = String::from(prefix);
    for (m, _) in mods {
        p.push_str("::");
        p.push_str(m);
    }
    p
}

/// Scans from `from` to the first `{` or `;` at brace level 0, returning
/// (header end index, `Some(open)` if a body follows).
fn header_end(toks: &[Tok], from: usize) -> (usize, Option<usize>) {
    let mut j = from;
    while j < toks.len() {
        if toks[j].is_punct('{') {
            return (j, Some(j));
        }
        if toks[j].is_punct(';') {
            return (j, None);
        }
        j += 1;
    }
    (j, None)
}

/// Emits one `pub` module-level item starting at the `pub` token; returns
/// the index to resume scanning from (past the item for container items).
fn emit_pub_item(
    prefix: &str,
    mods: &[(String, i32)],
    toks: &[Tok],
    pub_at: usize,
    out: &mut Vec<String>,
) -> usize {
    let path = path_of(prefix, mods);
    // Skip modifiers to the item keyword.
    let mut k = pub_at + 1;
    while toks.get(k).is_some_and(|t| {
        t.is_ident("unsafe") || t.is_ident("const") || t.is_ident("async") || t.is_ident("extern")
    }) || toks.get(k).is_some_and(|t| t.kind == Kind::Lit)
    {
        // `pub const fn` — `const` here is a modifier only when `fn`
        // follows eventually; a `pub const NAME` item stops the skip.
        if toks[k].is_ident("const") && !toks.get(k + 1).is_some_and(|t| t.is_ident("fn")) {
            break;
        }
        k += 1;
    }
    let Some(kw) = toks.get(k) else {
        return pub_at + 1;
    };
    match kw.text.as_str() {
        "fn" => {
            let (end, _) = header_end(toks, k);
            out.push(format!("{path} {}", render_tokens(&toks[pub_at + 1..end])));
            pub_at + 1
        }
        "struct" | "enum" | "trait" | "union" => {
            let kind = kw.text.clone();
            let name = toks
                .get(k + 1)
                .map(|t| t.text.clone())
                .unwrap_or_else(|| String::from("?"));
            let (end, open) = header_end(toks, k);
            out.push(format!("{path} {}", render_tokens(&toks[pub_at + 1..end])));
            let Some(open) = open else {
                // Body-less (`pub struct Marker;` / tuple struct): the
                // header line already carries the full declaration.
                return end + 1;
            };
            let close = matching(toks, open) + 1;
            let body = &toks[open + 1..close.saturating_sub(1).max(open + 1)];
            match kind.as_str() {
                "struct" | "union" => emit_pub_fields(&path, &name, body, out),
                "enum" => emit_variants(&path, &name, body, out),
                "trait" => emit_trait_members(&path, &name, body, out),
                _ => {}
            }
            close
        }
        "use" | "mod" | "static" | "type" | "const" => {
            let stop_at_eq = matches!(kw.text.as_str(), "static" | "type" | "const");
            // A `use` tree's braces are part of the item: only `;` ends it.
            let stop_at_brace = kw.text != "use";
            let mut j = k;
            while j < toks.len()
                && !toks[j].is_punct(';')
                && !(stop_at_brace && toks[j].is_punct('{'))
            {
                if stop_at_eq && toks[j].is_punct('=') {
                    break;
                }
                j += 1;
            }
            out.push(format!("{path} {}", render_tokens(&toks[pub_at + 1..j])));
            // `pub mod name { … }` keeps scanning inside (the main loop's
            // mod branch will push the path when it reaches `mod`).
            pub_at + 1
        }
        _ => pub_at + 1,
    }
}

/// Emits `pub` fields of a struct body as `path Type.field: …` entries.
fn emit_pub_fields(path: &str, name: &str, body: &[Tok], out: &mut Vec<String>) {
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            // Clamp: a `->` in a fn-pointer field type has `>` with no `<`.
            depth = (depth - 1).max(0);
        }
        if depth == 0
            && t.is_ident("pub")
            && body.get(i + 1).is_some_and(|n| n.kind == Kind::Ident)
            && body.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            // Field type: tokens to the `,` at this level (or body end).
            let mut j = i + 3;
            let mut d = 0i32;
            while j < body.len() {
                let x = &body[j];
                if x.is_punct('(') || x.is_punct('[') || x.is_punct('<') || x.is_punct('{') {
                    d += 1;
                } else if x.is_punct(')') || x.is_punct(']') || x.is_punct('>') || x.is_punct('}') {
                    d -= 1;
                }
                if d <= 0 && x.is_punct(',') {
                    break;
                }
                j += 1;
            }
            out.push(format!(
                "{path} {name}.{}: {}",
                body[i + 1].text,
                render_tokens(&body[i + 3..j])
            ));
            i = j;
            continue;
        }
        i += 1;
    }
}

/// Emits enum variants as `path Enum::Variant …` entries.
fn emit_variants(path: &str, name: &str, body: &[Tok], out: &mut Vec<String>) {
    let mut i = 0usize;
    while i < body.len() {
        // Skip attributes on variants.
        if body[i].is_punct('#') && body.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i = matching(body, i + 1) + 1;
            continue;
        }
        if body[i].kind != Kind::Ident {
            i += 1;
            continue;
        }
        // Variant: ident then optional payload, to the `,` at this level.
        let start = i;
        let mut d = 0i32;
        let mut j = i;
        while j < body.len() {
            let x = &body[j];
            if x.is_punct('(') || x.is_punct('[') || x.is_punct('<') || x.is_punct('{') {
                d += 1;
            } else if x.is_punct(')') || x.is_punct(']') || x.is_punct('>') || x.is_punct('}') {
                d -= 1;
            }
            if d <= 0 && x.is_punct(',') {
                break;
            }
            // `= discriminant` values are part of the surface too.
            j += 1;
        }
        out.push(format!("{path} {name}::{}", render_tokens(&body[start..j])));
        i = j + 1;
    }
}

/// Emits trait members (`fn` signatures, assoc `type`/`const`) as
/// `path Trait::…` entries.
fn emit_trait_members(path: &str, name: &str, body: &[Tok], out: &mut Vec<String>) {
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        }
        if depth == 0 && (t.is_ident("fn") || t.is_ident("type") || t.is_ident("const")) {
            let mut j = i;
            while j < body.len() && !body[j].is_punct('{') && !body[j].is_punct(';') {
                if body[j].is_punct('=') {
                    break;
                }
                j += 1;
            }
            out.push(format!("{path} {name}::{}", render_tokens(&body[i..j])));
            if body.get(j).is_some_and(|x| x.is_punct('{')) {
                i = matching(body, j) + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
}

/// Emits `pub fn` / `pub const` / `pub type` members of an inherent impl
/// as `path Type::…` entries; returns the index past the impl body.
fn emit_impl(
    prefix: &str,
    mods: &[(String, i32)],
    toks: &[Tok],
    mask: &[bool],
    impl_at: usize,
    out: &mut Vec<String>,
) -> usize {
    let path = path_of(prefix, mods);
    let Some(header) = impl_header(toks, impl_at) else {
        return impl_at + 1;
    };
    let (open, name) = (header.open, header.self_ty);
    let close = matching(toks, open) + 1;
    if header.is_trait {
        // Trait-impl methods restate the trait's surface; skip.
        return close;
    }
    let body_start = open + 1;
    let body = &toks[body_start..close.saturating_sub(1).max(body_start)];
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        }
        if depth == 0 && t.is_ident("pub") && !mask[body_start + i] {
            if body.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                i += 1;
                continue; // pub(crate) method
            }
            let mut j = i + 1;
            while j < body.len() && !body[j].is_punct('{') && !body[j].is_punct(';') {
                if body[j].is_punct('=') {
                    break;
                }
                j += 1;
            }
            out.push(format!("{path} {name}::{}", render_tokens(&body[i + 1..j])));
            if body.get(j).is_some_and(|x| x.is_punct('{')) {
                i = matching(body, j) + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    close
}

/// Renders a token slice as normalized, space-separated text. The
/// punctuation digraphs `::`, `->`, and `=>` are rejoined so signatures
/// and API entries read naturally.
pub fn render_tokens(toks: &[Tok]) -> String {
    let mut s = String::new();
    let mut last = "";
    for t in toks {
        let digraph = (last == ":" && t.text == ":")
            || (last == "-" && t.text == ">")
            || (last == "=" && t.text == ">");
        if !s.is_empty() && !digraph {
            s.push(' ');
        }
        s.push_str(&t.text);
        last = &t.text;
    }
    s
}

/// The header of one `impl` block.
pub(crate) struct ImplHeader {
    /// Index of the body's `{`.
    pub open: usize,
    /// The `Self` type's name (`?` when none is visible).
    pub self_ty: String,
    /// Whether the block implements a trait (`impl … for …`).
    pub is_trait: bool,
}

/// Parses the header of the `impl` at `impl_at`; `None` when no body
/// follows.
pub(crate) fn impl_header(toks: &[Tok], impl_at: usize) -> Option<ImplHeader> {
    // Scan to the body `{` (angle-bracket aware: generic bounds may nest);
    // remember the segment after `for` (trait impls).
    let mut j = impl_at + 1;
    let mut angle = 0i32;
    let mut after_for: Option<usize> = None;
    let open = loop {
        let t = toks.get(j)?;
        if angle <= 0 && t.is_punct('{') {
            break j;
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle <= 0 && t.is_ident("for") {
            after_for = Some(j + 1);
        }
        j += 1;
    };
    // The self type is the first identifier of its segment (the whole
    // header for inherent impls), past a leading `< … >` group.
    let mut k = after_for.unwrap_or(impl_at + 1);
    if toks.get(k).is_some_and(|t| t.is_punct('<')) {
        k = (matching(toks, k) + 1).min(open);
    }
    let self_ty = toks[k..open]
        .iter()
        .find(|t| t.kind == Kind::Ident && !t.is_ident("dyn") && !t.is_ident("where"))
        .map(|t| t.text.clone())
        .unwrap_or_else(|| String::from("?"));
    Some(ImplHeader {
        open,
        self_ty,
        is_trait: after_for.is_some(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn api_of(prefix: &str, src: &str) -> Vec<String> {
        let toks = lex(src).tokens;
        api_of_file(prefix, &toks, &crate::rules::test_mask(&toks))
    }

    #[test]
    fn free_fns_and_methods_are_locked() {
        let src = "pub fn free(x: u32) -> u32 { x }\n\
                   pub struct S { pub field: u64, hidden: u64 }\n\
                   impl S {\n    pub fn method(&self) -> u64 { self.field }\n    fn private(&self) {}\n}\n";
        let api = api_of("vaq-x", src);
        assert!(api.iter().any(|l| l.contains("fn free ( x : u32 ) -> u32")));
        assert!(api.iter().any(|l| l.contains("S.field: u64")));
        assert!(api.iter().any(|l| l.contains("S::fn method")));
        assert!(!api.iter().any(|l| l.contains("hidden")));
        assert!(!api.iter().any(|l| l.contains("private")));
    }

    #[test]
    fn enum_variants_and_trait_methods_are_locked() {
        let src = "pub enum E { A, B(u32), C { x: u64 } }\n\
                   pub trait T {\n    fn req(&self) -> u32;\n    fn def(&self) -> u32 { 1 }\n}\n";
        let api = api_of("vaq-x", src);
        assert!(api.iter().any(|l| l.contains("E::A")));
        assert!(api.iter().any(|l| l.contains("E::B ( u32 )")));
        assert!(api.iter().any(|l| l.contains("T::fn req")));
        assert!(api.iter().any(|l| l.contains("T::fn def")));
    }

    #[test]
    fn braced_use_trees_are_rendered_whole() {
        let both = api_of("vaq-x", "pub use vocab::{Vocabulary, VocabularyKind};\n");
        assert_eq!(both, ["vaq-x use vocab :: { Vocabulary , VocabularyKind }"]);
        let nested = api_of("vaq-x", "pub use a::{b::{C, D}, E};\npub fn f() {}\n");
        assert_eq!(
            nested,
            ["vaq-x fn f ( )", "vaq-x use a :: { b :: { C , D } , E }"],
            "the tree's braces open no block"
        );
        // Dropping a name from a braced list shows in the diff.
        let one = api_of("vaq-x", "pub use vocab::{Vocabulary};\n");
        let snapshot = |lines: Vec<String>| crate::snapshot::Snapshot::new(lines);
        let diff = snapshot(one).diff(&snapshot(both.clone()));
        assert_eq!(diff.removed, both);
        assert_eq!(diff.added, ["vaq-x use vocab :: { Vocabulary }"]);
    }

    #[test]
    fn restricted_visibility_is_not_api() {
        let api = api_of("vaq-x", "pub(crate) fn internal() {}\n");
        assert!(api.is_empty(), "{api:?}");
    }

    #[test]
    fn inline_modules_extend_the_path() {
        let api = api_of("vaq-x", "pub mod inner {\n    pub fn f() {}\n}\n");
        assert!(
            api.iter().any(|l| l.starts_with("vaq-x::inner fn f")),
            "{api:?}"
        );
    }

    #[test]
    fn test_modules_are_not_api() {
        let src = "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\npub fn real() {}\n";
        let api = api_of("vaq-x", src);
        assert_eq!(api.len(), 1, "{api:?}");
        assert!(api[0].contains("fn real"));
    }

    #[test]
    fn macro_rules_bodies_are_not_api() {
        let src = "macro_rules! id {\n    ($name:ident) => {\n        pub struct $name(pub u64);\n        \
                   impl $name {\n            pub fn new() {}\n        }\n    };\n}\npub fn real() {}\n";
        let api = api_of("vaq-x", src);
        assert_eq!(api, ["vaq-x fn real ( )"], "{api:?}");
    }

    #[test]
    fn trait_impls_do_not_add_surface() {
        let src = "pub struct S;\nimpl Clone for S {\n    fn clone(&self) -> S { S }\n}\n";
        let api = api_of("vaq-x", src);
        assert_eq!(api.len(), 1, "{api:?}");
    }

    #[test]
    fn const_values_are_not_part_of_the_surface() {
        let a = api_of("vaq-x", "pub const N: u64 = 1;\n");
        let b = api_of("vaq-x", "pub const N: u64 = 2;\n");
        assert_eq!(a, b, "changing a const's value is not an API break");
    }

    fn self_ty(src: &str) -> (String, bool) {
        let toks = lex(src).tokens;
        let at = toks.iter().position(|t| t.is_ident("impl")).unwrap();
        let h = impl_header(&toks, at).unwrap();
        assert!(toks[h.open].is_punct('{'));
        (h.self_ty, h.is_trait)
    }

    #[test]
    fn inherent_impl_names_its_type() {
        let got = self_ty("impl<T: Ord> Engine<T> {\n    fn push(&mut self) {}\n}\n");
        assert_eq!(got, ("Engine".to_string(), false));
    }

    #[test]
    fn trait_impl_type_comes_after_for() {
        let got = self_ty("impl<'a> Iterator for Walker<'a> {\n    fn next(&mut self) {}\n}\n");
        assert_eq!(got, ("Walker".to_string(), true));
    }
}

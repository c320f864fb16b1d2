//! A lightweight item-level parser on top of [`crate::lexer`].
//!
//! The semantic rules (L7–L10) need to know *where function boundaries
//! are* and *what types cross them* — not full expression trees. This
//! parser recovers exactly that: `fn` signatures (params, return type,
//! body token span), `struct`/`enum` declarations (fields, tuple-newtype
//! shape), `impl` blocks (so methods know their owning type), and `use`
//! paths — all from the token stream, with no external dependencies.
//!
//! Like the lexer, the parser is forgiving: any construct it does not
//! recognise is skipped token-by-token, never an error. A lint pass must
//! survive half-written files and future Rust syntax.

use crate::lexer::{TokKind, Token};

/// One function parameter: a binding name (possibly empty for pattern
/// params) and a normalized type string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The bound identifier (`mv` in `mv: u32`); empty for tuple patterns.
    pub name: String,
    /// Normalized type text (`Option<u32>`, `&mut Millivolts`).
    pub ty: String,
}

/// A parsed `fn` signature.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FnSig {
    /// Non-receiver parameters in declaration order.
    pub params: Vec<Param>,
    /// Normalized return type, `None` for `()`-returning functions.
    pub ret: Option<String>,
}

/// One struct/enum field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name; empty for tuple fields.
    pub name: String,
    /// Normalized type text.
    pub ty: String,
}

/// One enum variant with its fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// Fields; empty for unit variants.
    pub fields: Vec<Field>,
    /// Whether the fields are named (`{ a: T }`) rather than tuple (`(T)`).
    pub named: bool,
}

/// What kind of item was parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    /// A free function or method.
    Fn(FnSig),
    /// A struct declaration.
    Struct {
        /// Declared fields (tuple fields have empty names).
        fields: Vec<Field>,
        /// Whether this is a tuple struct (`struct Millivolts(u32);`).
        tuple: bool,
    },
    /// An enum declaration.
    Enum {
        /// Declared variants.
        variants: Vec<Variant>,
    },
    /// An `impl` block (inherent or trait).
    Impl {
        /// Base name of the implemented type (`Millivolts` for
        /// `impl fmt::Display for Millivolts<'_>`).
        type_name: String,
        /// Whether this is `impl Trait for Type`.
        is_trait_impl: bool,
    },
    /// A `use` declaration with its joined path text.
    Use {
        /// The imported path, tokens joined (`std::collections::BTreeMap`).
        path: String,
    },
}

/// One parsed item with position and context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Item kind and payload.
    pub kind: ItemKind,
    /// Item name (empty for `impl` blocks and `use` items).
    pub name: String,
    /// Whether the item is `pub` (any visibility wider than private).
    pub is_pub: bool,
    /// 1-based line of the item's name (or introducing keyword).
    pub line: u32,
    /// 1-based column of the item's name (or introducing keyword).
    pub col: u32,
    /// Token-index range `[start, end)` of the item's brace body, into the
    /// token slice the parser was given. `None` for bodiless items.
    pub body: Option<(usize, usize)>,
    /// For fns inside an `impl` block: the implemented type's base name.
    pub owner: Option<String>,
    /// Whether the item sits inside a trait impl or trait declaration
    /// (its visibility is the trait's, not its own `pub`).
    pub in_trait_impl: bool,
}

/// The parsed form of one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All recognised items, in source order. Items nested in `impl`/`mod`
    /// blocks are flattened into this list with `owner` context.
    pub items: Vec<Item>,
}

/// Parses the token stream of one file into items.
#[must_use]
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    parse_items(tokens, 0, tokens.len(), None, false, &mut out.items);
    out
}

/// Returns true for tokens that render as word-like text (idents, numeric
/// literals) so type normalization knows where a space is required.
fn wordy(t: &Token) -> bool {
    matches!(t.kind, TokKind::Ident(_) | TokKind::Int | TokKind::Float)
}

/// Text form of a token, for joining into normalized type strings.
fn tok_text(t: &Token) -> &str {
    match &t.kind {
        TokKind::Ident(s) | TokKind::Punct(s) => s,
        TokKind::Int => "0",
        TokKind::Float => "0.0",
        TokKind::Lifetime => "'_",
    }
}

/// Joins a token slice into a normalized type string: no spaces except
/// between adjacent word-like tokens (`Option<u32>`, `&mut Millivolts`).
fn join_tokens(tokens: &[Token]) -> String {
    let mut s = String::new();
    let mut prev_wordy = false;
    for t in tokens {
        let w = wordy(t);
        if w && prev_wordy {
            s.push(' ');
        }
        s.push_str(tok_text(t));
        prev_wordy = w;
    }
    s
}

/// Net angle-bracket depth change contributed by one punct token. `->` and
/// `=>` contain `>` but never appear inside generic argument lists we
/// track, so they are excluded.
fn angle_delta(p: &str) -> i32 {
    if p == "->" || p == "=>" {
        return 0;
    }
    let opens = p.matches('<').count() as i32;
    let closes = p.matches('>').count() as i32;
    opens - closes
}

/// Skips a generic parameter list starting at `<`; returns the index past
/// the matching `>`. `i` must point at a token whose text starts with `<`.
fn skip_generics(tokens: &[Token], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < tokens.len() {
        if let Some(p) = tokens[i].punct() {
            depth += angle_delta(p);
            if depth <= 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// From an opening delimiter at `i`, returns the index of the matching
/// closing delimiter, tracking all three bracket kinds.
fn match_delim(tokens: &[Token], i: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].punct() {
            Some("(" | "[" | "{") => depth += 1,
            Some(")" | "]" | "}") => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Skips to the `;` terminating a const/static/type item, ignoring
/// semicolons nested inside brackets (`[u32; 3]`) or braces.
fn skip_to_semi(tokens: &[Token], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < tokens.len() {
        match tokens[i].punct() {
            Some("(" | "[" | "{") => depth += 1,
            Some(")" | "]" | "}") => depth -= 1,
            Some(";") if depth <= 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Skips an attribute (`#[...]` / `#![...]`) starting at `#`; returns the
/// index past the closing `]`.
fn skip_attribute(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if tokens.get(j).and_then(Token::punct) == Some("!") {
        j += 1;
    }
    if tokens.get(j).and_then(Token::punct) == Some("[") {
        match_delim(tokens, j).map_or(tokens.len(), |e| e + 1)
    } else {
        i + 1
    }
}

/// Recursive item scanner over `tokens[start..end)`.
fn parse_items(
    tokens: &[Token],
    start: usize,
    end: usize,
    owner: Option<&str>,
    in_trait_impl: bool,
    out: &mut Vec<Item>,
) {
    let mut i = start;
    while i < end {
        // Attributes.
        if tokens[i].punct() == Some("#") {
            i = skip_attribute(tokens, i);
            continue;
        }
        // Visibility.
        let mut is_pub = false;
        let item_start = i;
        if tokens[i].ident() == Some("pub") {
            is_pub = true;
            i += 1;
            if i < end && tokens[i].punct() == Some("(") {
                i = match_delim(tokens, i).map_or(end, |e| e + 1);
            }
        }
        // Fn modifiers (`const fn`, `unsafe fn`, `async fn`, `extern "C" fn`).
        let mut j = i;
        while let Some("const" | "unsafe" | "async" | "extern" | "default") =
            tokens.get(j).and_then(Token::ident)
        {
            j += 1;
        }
        let is_fn_head = tokens.get(j).and_then(Token::ident) == Some("fn");
        if is_fn_head && j > i {
            i = j; // real modifiers before `fn`
        }

        match tokens.get(i).and_then(Token::ident) {
            Some("fn") => {
                i = parse_fn(tokens, i, end, is_pub, owner, in_trait_impl, out);
            }
            Some("struct") => {
                i = parse_struct(tokens, i, end, is_pub, out);
            }
            Some("enum") => {
                i = parse_enum(tokens, i, end, is_pub, out);
            }
            Some("impl") => {
                i = parse_impl(tokens, i, end, out);
            }
            Some("trait") => {
                i = parse_trait(tokens, i, end, out);
            }
            Some("mod") => {
                i = parse_mod(tokens, i, end, owner, in_trait_impl, out);
            }
            Some("use") => {
                i = parse_use(tokens, i, end, is_pub, out);
            }
            Some("const" | "static" | "type") => {
                i = skip_to_semi(tokens, i);
            }
            Some("macro_rules") => {
                // `macro_rules! name { ... }` — skip the whole definition.
                i = skip_macro_like(tokens, i, end);
            }
            _ => {
                // Item-level macro invocation or anything unrecognised:
                // resynchronise. A brace body (`thread_local! { ... }`,
                // `trace_events! { ... }`) declares items, so it is scanned
                // like a module's; `name!(...)` / `name![...]` stay opaque.
                if tokens.get(i).and_then(Token::ident).is_some()
                    && tokens.get(i + 1).and_then(Token::punct) == Some("!")
                {
                    if tokens.get(i + 2).and_then(Token::punct) == Some("{") {
                        i = parse_mod(tokens, i + 1, end, owner, in_trait_impl, out);
                    } else {
                        i = skip_macro_like(tokens, i, end);
                    }
                } else {
                    i = item_start.max(i) + 1;
                }
            }
        }
    }
}

/// Skips `name ! (...)` / `name ! [...]` / `macro_rules! name { ... }`.
fn skip_macro_like(tokens: &[Token], mut i: usize, end: usize) -> usize {
    while i < end {
        match tokens[i].punct() {
            Some("(" | "[" | "{") => {
                let is_brace = tokens[i].punct() == Some("{");
                let close = match_delim(tokens, i).map_or(end, |e| e + 1);
                if is_brace {
                    return close;
                }
                i = close;
                // `name!(...)` as an item ends with `;`.
                if tokens.get(i).and_then(Token::punct) == Some(";") {
                    return i + 1;
                }
                return i;
            }
            Some(";") => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Parses a `fn` item starting at the `fn` keyword; returns the index past
/// the item.
fn parse_fn(
    tokens: &[Token],
    fn_idx: usize,
    end: usize,
    is_pub: bool,
    owner: Option<&str>,
    in_trait_impl: bool,
    out: &mut Vec<Item>,
) -> usize {
    let mut i = fn_idx + 1;
    let Some(name_tok) = tokens.get(i) else {
        return end;
    };
    let Some(name) = name_tok.ident().map(str::to_owned) else {
        return i + 1;
    };
    let (line, col) = (name_tok.line, name_tok.col);
    i += 1;
    // Generics.
    if i < end && tokens[i].punct().is_some_and(|p| p.starts_with('<')) {
        i = skip_generics(tokens, i);
    }
    // Parameters.
    let mut sig = FnSig::default();
    if i < end && tokens[i].punct() == Some("(") {
        let close = match_delim(tokens, i)
            .unwrap_or(end.min(tokens.len()).saturating_sub(1))
            .max(i + 1);
        sig.params = parse_params(&tokens[i + 1..close]);
        i = close + 1;
    }
    // Return type.
    if i < end && tokens[i].punct() == Some("->") {
        let ret_start = i + 1;
        let mut j = ret_start;
        let mut angle = 0i32;
        while j < end {
            if let Some(p) = tokens[j].punct() {
                if angle == 0 && (p == "{" || p == ";") {
                    break;
                }
                angle += angle_delta(p);
            } else if angle == 0 && tokens[j].ident() == Some("where") {
                break;
            }
            j += 1;
        }
        sig.ret = Some(join_tokens(&tokens[ret_start..j]));
        i = j;
    }
    // Where clause.
    if i < end && tokens[i].ident() == Some("where") {
        while i < end && !matches!(tokens[i].punct(), Some("{" | ";")) {
            i += 1;
        }
    }
    // Body (or `;` for trait method declarations).
    let mut body = None;
    if i < end {
        if tokens[i].punct() == Some("{") {
            let close = match_delim(tokens, i)
                .unwrap_or(end.saturating_sub(1))
                .max(i + 1);
            body = Some((i + 1, close));
            i = close + 1;
        } else if tokens[i].punct() == Some(";") {
            i += 1;
        }
    }
    out.push(Item {
        kind: ItemKind::Fn(sig),
        name,
        is_pub,
        line,
        col,
        body,
        owner: owner.map(str::to_owned),
        in_trait_impl,
    });
    i
}

/// Splits and parses a parameter list's tokens (between the parens).
fn parse_params(tokens: &[Token]) -> Vec<Param> {
    let mut params = Vec::new();
    for seg in split_top_commas(tokens) {
        if seg.is_empty() {
            continue;
        }
        // Receiver: `self`, `&self`, `&'a mut self`, `mut self`.
        if seg.iter().all(|t| {
            matches!(t.ident(), Some("self" | "mut"))
                || t.punct() == Some("&")
                || t.kind == TokKind::Lifetime
        }) && seg.iter().any(|t| t.ident() == Some("self"))
        {
            continue;
        }
        // Find the top-level `:` separating pattern from type.
        let mut depth = 0i32;
        let mut colon = None;
        for (k, t) in seg.iter().enumerate() {
            if let Some(p) = t.punct() {
                match p {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ":" if depth == 0 => {
                        colon = Some(k);
                        break;
                    }
                    _ => {}
                }
            }
        }
        let Some(colon) = colon else { continue };
        // Binding name: the last ident of the pattern (`mv` in `mut mv`);
        // empty for tuple/struct patterns.
        let pattern = &seg[..colon];
        let name = if pattern.iter().any(|t| t.punct().is_some()) {
            String::new()
        } else {
            pattern
                .iter()
                .rev()
                .find_map(|t| t.ident())
                .unwrap_or("")
                .to_owned()
        };
        params.push(Param {
            name,
            ty: join_tokens(&seg[colon + 1..]),
        });
    }
    params
}

/// Splits a token slice on commas at zero bracket *and* angle depth.
pub(crate) fn split_top_commas(tokens: &[Token]) -> Vec<&[Token]> {
    let mut segs = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0usize;
    for (k, t) in tokens.iter().enumerate() {
        if let Some(p) = t.punct() {
            match p {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 && angle == 0 => {
                    segs.push(&tokens[start..k]);
                    start = k + 1;
                    continue;
                }
                _ => angle += angle_delta(p),
            }
            // Closures (`|x| ...`) in parameter defaults don't occur in
            // signatures; `|` is left uninterpreted.
        }
        let _ = t;
    }
    if start < tokens.len() {
        segs.push(&tokens[start..]);
    }
    segs
}

/// Parses a `struct` item; returns the index past it.
fn parse_struct(
    tokens: &[Token],
    kw_idx: usize,
    end: usize,
    is_pub: bool,
    out: &mut Vec<Item>,
) -> usize {
    let mut i = kw_idx + 1;
    let Some(name_tok) = tokens.get(i) else {
        return end;
    };
    let Some(name) = name_tok.ident().map(str::to_owned) else {
        return i + 1;
    };
    let (line, col) = (name_tok.line, name_tok.col);
    i += 1;
    if i < end && tokens[i].punct().is_some_and(|p| p.starts_with('<')) {
        i = skip_generics(tokens, i);
    }
    // Where clause before the body.
    if i < end && tokens[i].ident() == Some("where") {
        while i < end && !matches!(tokens[i].punct(), Some("{" | "(" | ";")) {
            i += 1;
        }
    }
    let mut fields = Vec::new();
    let mut tuple = false;
    match tokens.get(i).and_then(Token::punct) {
        Some("(") => {
            tuple = true;
            let close = match_delim(tokens, i)
                .unwrap_or(end.saturating_sub(1))
                .max(i + 1);
            for seg in split_top_commas(&tokens[i + 1..close]) {
                let seg = strip_visibility(seg);
                if seg.is_empty() {
                    continue;
                }
                fields.push(Field {
                    name: String::new(),
                    ty: join_tokens(seg),
                });
            }
            i = skip_to_semi(tokens, close + 1);
        }
        Some("{") => {
            let close = match_delim(tokens, i)
                .unwrap_or(end.saturating_sub(1))
                .max(i + 1);
            fields = parse_named_fields(&tokens[i + 1..close]);
            i = close + 1;
        }
        Some(";") => i += 1,
        _ => {}
    }
    out.push(Item {
        kind: ItemKind::Struct { fields, tuple },
        name,
        is_pub,
        line,
        col,
        body: None,
        owner: None,
        in_trait_impl: false,
    });
    i
}

/// Drops a leading `pub` / `pub(...)` from a field's token slice.
fn strip_visibility(seg: &[Token]) -> &[Token] {
    if seg.first().and_then(Token::ident) == Some("pub") {
        if seg.get(1).and_then(Token::punct) == Some("(") {
            if let Some(close) = match_delim(seg, 1) {
                return &seg[close + 1..];
            }
        }
        return &seg[1..];
    }
    seg
}

/// Parses `name: Ty` named fields (attributes stripped).
fn parse_named_fields(tokens: &[Token]) -> Vec<Field> {
    let mut fields = Vec::new();
    for seg in split_top_commas(tokens) {
        // Strip leading attributes.
        let mut s = seg;
        while s.first().and_then(Token::punct) == Some("#") {
            let after = skip_attribute(s, 0);
            s = &s[after.min(s.len())..];
        }
        let s = strip_visibility(s);
        if s.len() < 3 || s[1].punct() != Some(":") {
            continue;
        }
        let Some(name) = s[0].ident() else { continue };
        fields.push(Field {
            name: name.to_owned(),
            ty: join_tokens(&s[2..]),
        });
    }
    fields
}

/// Parses an `enum` item; returns the index past it.
fn parse_enum(
    tokens: &[Token],
    kw_idx: usize,
    end: usize,
    is_pub: bool,
    out: &mut Vec<Item>,
) -> usize {
    let mut i = kw_idx + 1;
    let Some(name_tok) = tokens.get(i) else {
        return end;
    };
    let Some(name) = name_tok.ident().map(str::to_owned) else {
        return i + 1;
    };
    let (line, col) = (name_tok.line, name_tok.col);
    i += 1;
    if i < end && tokens[i].punct().is_some_and(|p| p.starts_with('<')) {
        i = skip_generics(tokens, i);
    }
    let mut variants = Vec::new();
    if tokens.get(i).and_then(Token::punct) == Some("{") {
        let close = match_delim(tokens, i)
            .unwrap_or(end.saturating_sub(1))
            .max(i + 1);
        for seg in split_top_commas(&tokens[i + 1..close]) {
            let mut s = seg;
            while s.first().and_then(Token::punct) == Some("#") {
                let after = skip_attribute(s, 0);
                s = &s[after.min(s.len())..];
            }
            let Some(vname) = s.first().and_then(Token::ident) else {
                continue;
            };
            let mut fields = Vec::new();
            let mut named = false;
            match s.get(1).and_then(Token::punct) {
                Some("{") => {
                    named = true;
                    if let Some(vclose) = match_delim(s, 1) {
                        fields = parse_named_fields(&s[2..vclose]);
                    }
                }
                Some("(") => {
                    if let Some(vclose) = match_delim(s, 1) {
                        for f in split_top_commas(&s[2..vclose]) {
                            if f.is_empty() {
                                continue;
                            }
                            fields.push(Field {
                                name: String::new(),
                                ty: join_tokens(f),
                            });
                        }
                    }
                }
                _ => {}
            }
            variants.push(Variant {
                name: vname.to_owned(),
                fields,
                named,
            });
        }
        i = close + 1;
    }
    out.push(Item {
        kind: ItemKind::Enum { variants },
        name,
        is_pub,
        line,
        col,
        body: None,
        owner: None,
        in_trait_impl: false,
    });
    i
}

/// Parses an `impl` block, recursing into its body for methods.
fn parse_impl(tokens: &[Token], kw_idx: usize, end: usize, out: &mut Vec<Item>) -> usize {
    let (line, col) = (tokens[kw_idx].line, tokens[kw_idx].col);
    let mut i = kw_idx + 1;
    if i < end && tokens[i].punct().is_some_and(|p| p.starts_with('<')) {
        i = skip_generics(tokens, i);
    }
    // Collect the type path up to `{`; an intervening `for` marks a trait
    // impl, and the implemented type is what follows it.
    let mut is_trait_impl = false;
    let mut last_ident: Option<String> = None;
    let mut angle = 0i32;
    while i < end {
        match &tokens[i].kind {
            TokKind::Punct(p) if p == "{" && angle == 0 => break,
            TokKind::Punct(p) => angle += angle_delta(p),
            TokKind::Ident(s) if s == "for" && angle == 0 => {
                is_trait_impl = true;
                last_ident = None;
            }
            TokKind::Ident(s) if s == "where" && angle == 0 => {
                // Type path complete; skip the where clause.
                while i < end && tokens[i].punct() != Some("{") {
                    i += 1;
                }
                break;
            }
            TokKind::Ident(s) if angle == 0 => last_ident = Some(s.clone()),
            _ => {}
        }
        i += 1;
    }
    let type_name = last_ident.unwrap_or_default();
    let mut body = None;
    if i < end && tokens[i].punct() == Some("{") {
        let close = match_delim(tokens, i)
            .unwrap_or(end.saturating_sub(1))
            .max(i + 1);
        body = Some((i + 1, close));
        i = close + 1;
    }
    out.push(Item {
        kind: ItemKind::Impl {
            type_name: type_name.clone(),
            is_trait_impl,
        },
        name: String::new(),
        is_pub: false,
        line,
        col,
        body,
        owner: None,
        in_trait_impl: false,
    });
    if let Some((bstart, bend)) = body {
        parse_items(tokens, bstart, bend, Some(&type_name), is_trait_impl, out);
    }
    i
}

/// Parses a `trait` declaration, recursing into default methods.
fn parse_trait(tokens: &[Token], kw_idx: usize, end: usize, out: &mut Vec<Item>) -> usize {
    let mut i = kw_idx + 1;
    let Some(name) = tokens.get(i).and_then(Token::ident).map(str::to_owned) else {
        return (kw_idx + 1).min(end);
    };
    i += 1;
    while i < end && tokens[i].punct() != Some("{") {
        if tokens[i].punct() == Some(";") {
            return i + 1;
        }
        i += 1;
    }
    if i >= end {
        return end;
    }
    let close = match_delim(tokens, i).unwrap_or(end.saturating_sub(1));
    parse_items(tokens, i + 1, close, Some(&name), true, out);
    close + 1
}

/// Parses a `mod` item, recursing into an inline body.
fn parse_mod(
    tokens: &[Token],
    kw_idx: usize,
    end: usize,
    owner: Option<&str>,
    in_trait_impl: bool,
    out: &mut Vec<Item>,
) -> usize {
    let mut i = kw_idx + 1;
    // Skip the module name and find `{` or `;`.
    while i < end {
        match tokens[i].punct() {
            Some(";") => return i + 1,
            Some("{") => {
                let close = match_delim(tokens, i).unwrap_or(end.saturating_sub(1));
                parse_items(tokens, i + 1, close, owner, in_trait_impl, out);
                return close + 1;
            }
            _ => i += 1,
        }
    }
    end
}

/// Parses a `use` item, recording the joined path.
fn parse_use(
    tokens: &[Token],
    kw_idx: usize,
    _end: usize,
    is_pub: bool,
    out: &mut Vec<Item>,
) -> usize {
    let (line, col) = (tokens[kw_idx].line, tokens[kw_idx].col);
    let start = kw_idx + 1;
    let semi = skip_to_semi(tokens, start);
    let path = join_tokens(&tokens[start..semi.saturating_sub(1).max(start)]);
    out.push(Item {
        kind: ItemKind::Use { path },
        name: String::new(),
        is_pub,
        line,
        col,
        body: None,
        owner: None,
        in_trait_impl: false,
    });
    semi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Vec<Item> {
        parse(&lex(src).tokens).items
    }

    fn fns(src: &str) -> Vec<Item> {
        items(src)
            .into_iter()
            .filter(|i| matches!(i.kind, ItemKind::Fn(_)))
            .collect()
    }

    #[test]
    fn parses_fn_signature_with_params_and_return() {
        let f = &fns("pub fn step(&self, mv: u32, name: &str) -> Option<u32> { None }")[0];
        assert_eq!(f.name, "step");
        assert!(f.is_pub);
        let ItemKind::Fn(sig) = &f.kind else { panic!() };
        assert_eq!(sig.params.len(), 2);
        assert_eq!(
            sig.params[0],
            Param {
                name: "mv".into(),
                ty: "u32".into()
            }
        );
        assert_eq!(
            sig.params[1],
            Param {
                name: "name".into(),
                ty: "&str".into()
            }
        );
        assert_eq!(sig.ret.as_deref(), Some("Option<u32>"));
    }

    #[test]
    fn generic_params_and_commas_inside_angles() {
        let f = &fns("fn f<K: Ord, V>(map: BTreeMap<K, V>, n: u32) {}")[0];
        let ItemKind::Fn(sig) = &f.kind else { panic!() };
        assert_eq!(sig.params.len(), 2);
        assert_eq!(sig.params[0].ty, "BTreeMap<K,V>");
        assert_eq!(sig.params[1].name, "n");
        assert!(sig.ret.is_none());
    }

    #[test]
    fn const_fn_and_pub_crate() {
        let f = &fns("pub(crate) const fn new(mv: u32) -> Millivolts { Millivolts(mv) }")[0];
        assert!(f.is_pub);
        assert_eq!(f.name, "new");
        let ItemKind::Fn(sig) = &f.kind else { panic!() };
        assert_eq!(sig.ret.as_deref(), Some("Millivolts"));
    }

    #[test]
    fn tuple_struct_detected_as_newtype() {
        let it = &items("pub struct Millivolts(u32);")[0];
        assert_eq!(it.name, "Millivolts");
        let ItemKind::Struct { fields, tuple } = &it.kind else {
            panic!()
        };
        assert!(*tuple);
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].ty, "u32");
    }

    #[test]
    fn named_struct_fields_parsed() {
        let it = &items("pub struct S { pub mv: u32, name: String }")[0];
        let ItemKind::Struct { fields, tuple } = &it.kind else {
            panic!()
        };
        assert!(!*tuple);
        assert_eq!(
            fields[0],
            Field {
                name: "mv".into(),
                ty: "u32".into()
            }
        );
        assert_eq!(fields[1].name, "name");
    }

    #[test]
    fn enum_variants_with_named_fields() {
        let src = "pub enum E { Unit, Tuple(u32, String), Rec { core: u8, mv: u32 } }";
        let it = &items(src)[0];
        let ItemKind::Enum { variants } = &it.kind else {
            panic!()
        };
        assert_eq!(variants.len(), 3);
        assert_eq!(variants[0].name, "Unit");
        assert!(variants[0].fields.is_empty());
        assert_eq!(variants[1].fields.len(), 2);
        assert!(!variants[1].named);
        assert!(variants[2].named);
        assert_eq!(variants[2].fields[1].name, "mv");
    }

    #[test]
    fn impl_blocks_give_methods_an_owner() {
        let src = "impl Millivolts { pub fn get(self) -> u32 { self.0 } }\n\
                   impl fmt::Display for Millivolts { fn fmt(&self) {} }";
        let all = items(src);
        let methods: Vec<&Item> = all
            .iter()
            .filter(|i| matches!(i.kind, ItemKind::Fn(_)))
            .collect();
        assert_eq!(methods.len(), 2);
        assert_eq!(methods[0].owner.as_deref(), Some("Millivolts"));
        assert!(!methods[0].in_trait_impl);
        assert_eq!(methods[1].owner.as_deref(), Some("Millivolts"));
        assert!(methods[1].in_trait_impl);
    }

    #[test]
    fn generic_impl_type_base_name() {
        let src = "impl<W: Write> Sink for ProgressSink<W> { fn emit(&mut self) {} }";
        let all = items(src);
        let ItemKind::Impl {
            type_name,
            is_trait_impl,
        } = &all[0].kind
        else {
            panic!()
        };
        assert_eq!(type_name, "ProgressSink");
        assert!(*is_trait_impl);
    }

    #[test]
    fn nested_mod_items_are_found() {
        let src = "mod inner { pub fn f(mv: u32) {} }";
        let f = &fns(src)[0];
        assert_eq!(f.name, "f");
    }

    #[test]
    fn trait_methods_are_marked() {
        let src =
            "pub trait Observer { fn enabled(&self) -> bool { true } fn record(&self, e: &E); }";
        let all = fns(src);
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|f| f.in_trait_impl));
        assert_eq!(all[0].owner.as_deref(), Some("Observer"));
    }

    #[test]
    fn const_items_with_bracket_semicolons_skipped() {
        let src = "pub const XS: [u32; 3] = [1, 2, 3];\npub fn after() {}";
        let all = fns(src);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].name, "after");
    }

    #[test]
    fn use_paths_joined() {
        let it = &items("use std::collections::BTreeMap;")[0];
        let ItemKind::Use { path } = &it.kind else {
            panic!()
        };
        assert_eq!(path, "std::collections::BTreeMap");
    }

    #[test]
    fn fn_body_token_span_covers_body() {
        let src = "fn f() { inner_call(); } fn g() {}";
        let all = fns(src);
        let toks = lex(src).tokens;
        let (s, e) = all[0].body.unwrap();
        let body_idents: Vec<&str> = toks[s..e].iter().filter_map(Token::ident).collect();
        assert_eq!(body_idents, vec!["inner_call"]);
        assert!(all[1].body.is_some());
    }

    #[test]
    fn pattern_params_have_empty_names() {
        let f = &fns("fn f((a, b): (u32, u32), mut n: usize) {}")[0];
        let ItemKind::Fn(sig) = &f.kind else { panic!() };
        assert_eq!(sig.params[0].name, "");
        assert_eq!(sig.params[1].name, "n");
        assert_eq!(sig.params[1].ty, "usize");
    }

    #[test]
    fn where_clause_does_not_pollute_return_type() {
        let f = &fns("fn f<T>(x: T) -> u32 where T: Ord { 0 }")[0];
        let ItemKind::Fn(sig) = &f.kind else { panic!() };
        assert_eq!(sig.ret.as_deref(), Some("u32"));
    }

    #[test]
    fn malformed_input_does_not_panic() {
        for src in [
            "fn", "struct", "impl {", "pub", "fn f(", "enum E {", "use ;",
        ] {
            let _ = items(src);
        }
    }
}

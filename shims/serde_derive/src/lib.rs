//! Offline stand-in for `serde_derive`.
//!
//! The build sandbox has no crates.io access, so this proc-macro crate
//! re-implements the two derives (and `serde_json`'s `json!`) against the
//! local `serde` shim's single-method traits:
//!
//! ```ignore
//! trait Serialize   { fn serialize(&self, out: &mut String); }
//! trait Deserialize { fn deserialize(v: &serde::Value) -> Result<Self, serde::Error>; }
//! ```
//!
//! Typed data goes straight to text; `serde::Value` is the parse model a
//! derived `Deserialize` reads and `json!` builds.
//!
//! Parsing is done directly over `proc_macro::TokenTree`s (no `syn`).
//! Supported shapes cover everything churnlab derives: named structs,
//! tuple/newtype structs, unit structs, enums with unit/tuple/named
//! variants, plain type generics, and the field attributes
//! `#[serde(default)]` and `#[serde(skip_serializing_if = "path")]`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------------
// Item model
// ---------------------------------------------------------------------------

struct Field {
    name: String,
    has_default: bool,
    skip_if: Option<String>,
    is_option: bool,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum Kind {
    Unit,
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    /// Raw generics declaration, e.g. `K` for `struct S<K>`; empty if none.
    generics_decl: String,
    /// Type-parameter idents (lifetimes and consts excluded).
    params: Vec<String>,
    kind: Kind,
}

// ---------------------------------------------------------------------------
// Token-level parsing
// ---------------------------------------------------------------------------

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

fn is_ident(t: &TokenTree, s: &str) -> bool {
    matches!(t, TokenTree::Ident(i) if i.to_string() == s)
}

/// Parse `#[serde(...)]` contents into (has_default, skip_if).
fn parse_serde_attr(group: &proc_macro::Group, has_default: &mut bool, skip_if: &mut Option<String>) {
    let inner: Vec<TokenTree> = group.stream().into_iter().collect();
    // inner = `serde ( ... )`
    if inner.len() != 2 || !is_ident(&inner[0], "serde") {
        return;
    }
    let args = match &inner[1] {
        TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => g.stream(),
        _ => return,
    };
    let toks: Vec<TokenTree> = args.into_iter().collect();
    let mut i = 0;
    while i < toks.len() {
        if is_ident(&toks[i], "default") {
            *has_default = true;
            i += 1;
        } else if is_ident(&toks[i], "skip_serializing_if") {
            // skip_serializing_if = "Path::to::pred"
            if i + 2 < toks.len() && is_punct(&toks[i + 1], '=') {
                if let TokenTree::Literal(l) = &toks[i + 2] {
                    let s = l.to_string();
                    *skip_if = Some(s.trim_matches('"').to_string());
                }
                i += 3;
            } else {
                i += 1;
            }
        } else {
            i += 1; // unknown serde attr token: ignore
        }
    }
}

/// Skip (and optionally interpret) a leading run of attributes at `i`.
fn skip_attrs(toks: &[TokenTree], mut i: usize, mut on_serde: impl FnMut(&proc_macro::Group)) -> usize {
    while i < toks.len() && is_punct(&toks[i], '#') {
        // `#` `[ ... ]`
        if i + 1 < toks.len() {
            if let TokenTree::Group(g) = &toks[i + 1] {
                if g.delimiter() == Delimiter::Bracket {
                    on_serde(g);
                }
            }
        }
        i += 2;
    }
    i
}

/// Skip `pub` / `pub(...)` at `i`.
fn skip_vis(toks: &[TokenTree], mut i: usize) -> usize {
    if i < toks.len() && is_ident(&toks[i], "pub") {
        i += 1;
        if i < toks.len() {
            if let TokenTree::Group(g) = &toks[i] {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

/// Parse the fields of a named-struct body (also used for named variants).
fn parse_named_fields(group: &proc_macro::Group) -> Vec<Field> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let mut has_default = false;
        let mut skip_if = None;
        i = skip_attrs(&toks, i, |g| parse_serde_attr(g, &mut has_default, &mut skip_if));
        if i >= toks.len() {
            break;
        }
        i = skip_vis(&toks, i);
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            _ => break, // malformed; bail quietly
        };
        i += 1;
        // `:`
        if i < toks.len() && is_punct(&toks[i], ':') {
            i += 1;
        }
        // Type tokens until a comma at angle-depth 0.
        let ty_start = i;
        let mut depth: i32 = 0;
        while i < toks.len() {
            if is_punct(&toks[i], '<') {
                depth += 1;
            } else if is_punct(&toks[i], '>') {
                depth -= 1;
            } else if is_punct(&toks[i], ',') && depth == 0 {
                break;
            }
            i += 1;
        }
        let is_option = ty_start < toks.len() && is_ident(&toks[ty_start], "Option");
        if i < toks.len() {
            i += 1; // consume comma
        }
        fields.push(Field { name, has_default, skip_if, is_option });
    }
    fields
}

/// Count the fields of a tuple body: top-level (angle-aware) commas + 1.
fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut n = 1;
    let mut depth: i32 = 0;
    let last = toks.len() - 1;
    for (k, t) in toks.iter().enumerate() {
        if is_punct(t, '<') {
            depth += 1;
        } else if is_punct(t, '>') {
            depth -= 1;
        } else if is_punct(t, ',') && depth == 0 && k != last {
            n += 1; // trailing comma must not add a field
        }
    }
    n
}

fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs(&toks, i, |_| {});
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            _ => break,
        };
        i += 1;
        let mut shape = VariantShape::Unit;
        if i < toks.len() {
            if let TokenTree::Group(g) = &toks[i] {
                match g.delimiter() {
                    Delimiter::Parenthesis => {
                        shape = VariantShape::Tuple(count_tuple_fields(g));
                        i += 1;
                    }
                    Delimiter::Brace => {
                        shape = VariantShape::Named(parse_named_fields(g));
                        i += 1;
                    }
                    _ => {}
                }
            }
        }
        // Skip an explicit discriminant (`= expr`) up to the comma.
        while i < toks.len() && !is_punct(&toks[i], ',') {
            i += 1;
        }
        if i < toks.len() {
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs(&toks, 0, |_| {});
    i = skip_vis(&toks, i);
    let is_enum = if is_ident(&toks[i], "struct") {
        false
    } else if is_ident(&toks[i], "enum") {
        true
    } else {
        panic!("serde derive: expected `struct` or `enum`, got `{}`", toks[i]);
    };
    i += 1;
    let name = toks[i].to_string();
    i += 1;

    // Generics.
    let mut generics_decl = String::new();
    let mut params = Vec::new();
    if i < toks.len() && is_punct(&toks[i], '<') {
        i += 1;
        let mut depth = 1i32;
        let mut expecting_param = true;
        let mut decl: Vec<TokenTree> = Vec::new();
        while i < toks.len() && depth > 0 {
            if is_punct(&toks[i], '<') {
                depth += 1;
            } else if is_punct(&toks[i], '>') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            } else if is_punct(&toks[i], ',') && depth == 1 {
                expecting_param = true;
                decl.push(toks[i].clone());
                i += 1;
                continue;
            } else if depth == 1 && expecting_param {
                if let TokenTree::Ident(id) = &toks[i] {
                    let s = id.to_string();
                    if s != "const" {
                        params.push(s);
                    }
                    expecting_param = false;
                }
            }
            decl.push(toks[i].clone());
            i += 1;
        }
        let ts: TokenStream = decl.into_iter().collect();
        generics_decl = ts.to_string();
    }

    // Body.
    let kind = if is_enum {
        match &toks[i] {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => Kind::Enum(parse_variants(g)),
            other => panic!("serde derive: expected enum body, got `{other}`"),
        }
    } else {
        match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::TupleStruct(count_tuple_fields(g))
            }
            _ => Kind::Unit,
        }
    };

    Item { name, generics_decl, params, kind }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn impl_header(item: &Item, trait_name: &str) -> String {
    let name = &item.name;
    if item.generics_decl.is_empty() {
        format!("impl ::serde::{trait_name} for {name}")
    } else {
        let decl = &item.generics_decl;
        let args = item.params.join(", ");
        let bounds: Vec<String> =
            item.params.iter().map(|p| format!("{p}: ::serde::{trait_name}")).collect();
        format!("impl<{decl}> ::serde::{trait_name} for {name}<{args}> where {}", bounds.join(", "))
    }
}

/// `__out.push_str(<text>);` — `text` spelled as a Rust string literal.
fn push_text(text: &str) -> String {
    format!("__out.push_str({text:?});\n")
}

/// Writes for `open`, then each `(key, expr)` of `members` — `key`'s text
/// and `expr`'s value, comma-separated — then `close`. All the text
/// between two values goes out as one literal.
fn member_writes(open: &str, members: impl Iterator<Item = (String, String)>, close: &str) -> String {
    let mut s = String::new();
    let mut text = open.to_string();
    for (k, (key, expr)) in members.enumerate() {
        if k > 0 {
            text.push(',');
        }
        text.push_str(&key);
        s += &push_text(&text);
        s += &format!("::serde::Serialize::serialize({expr}, __out);\n");
        text.clear();
    }
    text.push_str(close);
    s + &push_text(&text)
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::Unit => push_text("null"),
        Kind::NamedStruct(fields) => {
            // A skipped field leaves no comma, so a field needs one unless
            // the text still ends in the object's `{` (no value ends so).
            let mut s = push_text("{");
            for f in fields {
                let write = format!(
                    "if !__out.ends_with('{{') {{ __out.push(','); }}\n{}::serde::Serialize::serialize(&self.{}, __out);\n",
                    push_text(&format!("\"{}\":", f.name)),
                    f.name
                );
                match &f.skip_if {
                    Some(path) => s.push_str(&format!("if !({path})(&self.{}) {{\n{write}}}\n", f.name)),
                    None => s.push_str(&write),
                }
            }
            s + &push_text("}")
        }
        Kind::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, __out);\n".to_string(),
        Kind::TupleStruct(n) => {
            member_writes("[", (0..*n).map(|k| (String::new(), format!("&self.{k}"))), "]")
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let (pattern, writes) = match &v.shape {
                    VariantShape::Unit => (String::new(), push_text(&format!("\"{vn}\""))),
                    // One field is written bare, several as an array.
                    VariantShape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let elems = binds.iter().map(|b| (String::new(), b.clone()));
                        let (open, close) = if *n == 1 { ("", "}") } else { ("[", "]}") };
                        let writes = member_writes(&format!("{{\"{vn}\":{open}"), elems, close);
                        (format!("({})", binds.join(", ")), writes)
                    }
                    // Unlike a struct's, a variant's fields are written
                    // even when `skip_serializing_if` holds.
                    VariantShape::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let members = binds.iter().map(|f| (format!("\"{f}\":"), f.to_string()));
                        let writes = member_writes(&format!("{{\"{vn}\":{{"), members, "}}");
                        (format!(" {{ {} }}", binds.join(", ")), writes)
                    }
                };
                arms.push_str(&format!("{name}::{vn}{pattern} => {{\n{writes}}}\n"));
            }
            format!("match self {{\n{arms}}}\n")
        }
    };
    format!(
        "{header} {{\n fn serialize(&self, __out: &mut ::std::string::String) {{\n {body} }}\n }}",
        header = impl_header(item, "Serialize")
    )
}

/// Expression for a missing named field during deserialization.
fn missing_field_expr(f: &Field, container: &str) -> String {
    if f.has_default {
        "::core::default::Default::default()".to_string()
    } else if f.is_option {
        "::core::option::Option::None".to_string()
    } else {
        format!(
            "return ::std::result::Result::Err(::serde::Error::custom(\"missing field `{}` in {}\"))",
            f.name, container
        )
    }
}

/// `Name { f: ..., }` construction body from an object binding `__obj`.
fn named_fields_from_obj(fields: &[Field], container: &str) -> String {
    let mut s = String::new();
    for f in fields {
        s.push_str(&format!(
            "{0}: match ::serde::get_field(__obj, \"{0}\") {{\n ::std::option::Option::Some(__x) => ::serde::Deserialize::deserialize(__x)?,\n ::std::option::Option::None => {1},\n }},\n",
            f.name,
            missing_field_expr(f, container)
        ));
    }
    s
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::Unit => format!("::std::result::Result::Ok({name})"),
        Kind::NamedStruct(fields) => format!(
            "let __obj = __v.as_object().ok_or_else(|| ::serde::Error::custom(\"expected object for {name}\"))?;\n\
             ::std::result::Result::Ok({name} {{\n{}}})",
            named_fields_from_obj(fields, name)
        ),
        Kind::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__v)?))")
        }
        Kind::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|k| format!("::serde::Deserialize::deserialize(&__arr[{k}])?"))
                .collect();
            format!(
                "let __arr = __v.as_array().ok_or_else(|| ::serde::Error::custom(\"expected array for {name}\"))?;\n\
                 if __arr.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::custom(\"wrong tuple arity for {name}\")); }}\n\
                 ::std::result::Result::Ok({name}({}))",
                elems.join(", ")
            )
        }
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => unit_arms.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),\n"
                    )),
                    VariantShape::Tuple(1) => data_arms.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::deserialize(__val)?)),\n"
                    )),
                    VariantShape::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|k| format!("::serde::Deserialize::deserialize(&__arr[{k}])?"))
                            .collect();
                        data_arms.push_str(&format!(
                            "\"{vn}\" => {{\n let __arr = __val.as_array().ok_or_else(|| ::serde::Error::custom(\"expected array for {name}::{vn}\"))?;\n\
                             if __arr.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::custom(\"wrong arity for {name}::{vn}\")); }}\n\
                             ::std::result::Result::Ok({name}::{vn}({}))\n }}\n",
                            elems.join(", ")
                        ));
                    }
                    VariantShape::Named(fields) => data_arms.push_str(&format!(
                        "\"{vn}\" => {{\n let __obj = __val.as_object().ok_or_else(|| ::serde::Error::custom(\"expected object for {name}::{vn}\"))?;\n\
                         ::std::result::Result::Ok({name}::{vn} {{\n{}}})\n }}\n",
                        named_fields_from_obj(fields, &format!("{name}::{vn}"))
                    )),
                }
            }
            format!(
                "match __v {{\n\
                 ::serde::Value::Str(__s) => match __s.as_str() {{\n{unit_arms}\
                 __other => ::std::result::Result::Err(::serde::Error::custom(::std::format!(\"unknown {name} variant `{{__other}}`\"))),\n }},\n\
                 ::serde::Value::Object(__o) if __o.len() == 1 => {{\n\
                 let (__k, __val) = &__o[0];\nlet _ = __val;\n\
                 match __k.as_str() {{\n{data_arms}\
                 __other => ::std::result::Result::Err(::serde::Error::custom(::std::format!(\"unknown {name} variant `{{__other}}`\"))),\n }}\n }},\n\
                 _ => ::std::result::Result::Err(::serde::Error::custom(\"expected string or single-key object for {name}\")),\n }}"
            )
        }
    };
    format!(
        "{header} {{\n fn deserialize(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n {body}\n }}\n }}",
        header = impl_header(item, "Deserialize")
    )
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("serde derive: generated invalid Serialize impl")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item).parse().expect("serde derive: generated invalid Deserialize impl")
}

// ---------------------------------------------------------------------------
// json! (re-exported by the serde_json shim)
// ---------------------------------------------------------------------------

fn tokens_to_expr(trees: &[TokenTree]) -> String {
    let ts: TokenStream = trees.iter().cloned().collect();
    ts.to_string()
}

/// Split a token list on top-level commas.
fn split_commas(trees: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    for t in trees {
        if is_punct(t, ',') {
            out.push(std::mem::take(&mut cur));
        } else {
            cur.push(t.clone());
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn json_value_expr(trees: &[TokenTree]) -> String {
    if trees.len() == 1 {
        match &trees[0] {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                return json_object_expr(g);
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Bracket => {
                let toks: Vec<TokenTree> = g.stream().into_iter().collect();
                let elems: Vec<String> =
                    split_commas(&toks).iter().map(|e| json_value_expr(e)).collect();
                return format!("::serde::Value::Array(vec![{}])", elems.join(", "));
            }
            TokenTree::Ident(id) if id.to_string() == "null" => {
                return "::serde::Value::Null".to_string();
            }
            _ => {}
        }
    }
    format!("::serde::to_value(&({})).expect(\"json!: member text parses\")", tokens_to_expr(trees))
}

fn json_object_expr(group: &proc_macro::Group) -> String {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut entries = Vec::new();
    for entry in split_commas(&toks) {
        if entry.is_empty() {
            continue;
        }
        // `"key" : value...`
        let key = match &entry[0] {
            TokenTree::Literal(l) => l.to_string(),
            other => panic!("json!: object key must be a string literal, got `{other}`"),
        };
        assert!(
            entry.len() >= 3 && is_punct(&entry[1], ':'),
            "json!: expected `\"key\": value`"
        );
        let val = json_value_expr(&entry[2..]);
        entries.push(format!("(::std::string::String::from({key}), {val})"));
    }
    format!("::serde::Value::Object(vec![{}])", entries.join(", "))
}

/// `json!` macro: builds a `serde::Value` from JSON-ish syntax; a
/// non-literal expression becomes the `Value` its serialized text parses
/// to (`serde::to_value`).
#[proc_macro]
pub fn json(input: TokenStream) -> TokenStream {
    let trees: Vec<TokenTree> = input.into_iter().collect();
    json_value_expr(&trees).parse().expect("json!: generated invalid expression")
}

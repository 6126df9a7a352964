//! `#[derive(Serialize, Deserialize)]` for the workspace's offline serde
//! shim.
//!
//! The build environment has no crates.io access, so `syn`/`quote` are
//! unavailable; this macro parses the item's token stream by hand. It
//! supports exactly the shapes this workspace declares:
//!
//! * structs with named fields (honouring `#[serde(default)]`),
//! * tuple structs (arity 1 serialises transparently, like serde's
//!   newtype structs; arity ≥ 2 serialises as a sequence),
//! * enums with unit variants (serialised as the variant-name string) and
//!   tuple/newtype variants (externally tagged: `{"Variant": value}`),
//! * one generic type parameter list without bounds or where-clauses.
//!
//! `Serialize` renders into the `serde` shim's `Value` tree
//! (`to_value`). `Deserialize` always gets `from_value`; named-field and
//! newtype structs also get a single-pass `read_json` over the shim's
//! JSON reader, which pulls each field straight from the bytes. Enums
//! and multi-field tuple structs keep the trait's default `read_json`,
//! which parses a `Value` subtree and calls `from_value`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

struct Item {
    name: String,
    generics: Vec<String>,
    kind: Kind,
}

enum Kind {
    /// Named fields: `(name, has_serde_default)`.
    Struct(Vec<(String, bool)>),
    /// Tuple struct with this arity.
    TupleStruct(usize),
    /// Variants.
    Enum(Vec<(String, VariantKind)>),
}

enum VariantKind {
    Unit,
    /// Parenthesised fields with this arity (1 = newtype).
    Tuple(usize),
    /// Braced fields, by name.
    Struct(Vec<String>),
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let mut toks = input.into_iter().peekable();

    // Skip outer attributes and visibility until `struct` / `enum`.
    let is_enum = loop {
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next(); // pub(crate) etc.
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => break false,
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => break true,
            Some(_) => {}
            None => panic!("derive input has no struct/enum keyword"),
        }
    };

    let name = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected type name, found {other:?}"),
    };

    // Optional `<...>` generic parameter list (plain idents only).
    let mut generics = Vec::new();
    if let Some(TokenTree::Punct(p)) = toks.peek() {
        if p.as_char() == '<' {
            toks.next();
            let mut depth = 1usize;
            for tok in toks.by_ref() {
                match tok {
                    TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                    TokenTree::Punct(p) if p.as_char() == '>' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokenTree::Ident(id) if depth == 1 => generics.push(id.to_string()),
                    _ => {}
                }
            }
        }
    }

    let body = loop {
        match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                break Body::Braced(g.stream())
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                break Body::Paren(g.stream())
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
                panic!("unit structs are not supported by the serde shim derive")
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "where" => {
                panic!("where-clauses are not supported by the serde shim derive")
            }
            Some(_) => {}
            None => panic!("derive input for `{name}` has no body"),
        }
    };

    enum Body {
        Braced(TokenStream),
        Paren(TokenStream),
    }

    let kind = match (is_enum, body) {
        (false, Body::Braced(s)) => Kind::Struct(parse_named_fields(s)),
        (false, Body::Paren(s)) => Kind::TupleStruct(top_level_arity(s)),
        (true, Body::Braced(s)) => Kind::Enum(parse_variants(s)),
        (true, Body::Paren(_)) => panic!("enum body cannot be parenthesised"),
    };

    Item {
        name,
        generics,
        kind,
    }
}

/// Number of top-level comma-separated chunks in a token stream.
fn top_level_arity(stream: TokenStream) -> usize {
    let mut arity = 0usize;
    let mut chunk_nonempty = false;
    let mut depth = 0usize;
    for tok in stream {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                chunk_nonempty = true;
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth = depth.saturating_sub(1);
                chunk_nonempty = true;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                if chunk_nonempty {
                    arity += 1;
                }
                chunk_nonempty = false;
            }
            _ => chunk_nonempty = true,
        }
    }
    if chunk_nonempty {
        arity += 1;
    }
    arity
}

/// `true` when the `#[...]` attribute group is `serde(default)`.
fn is_serde_default(group: &proc_macro::Group) -> bool {
    let mut inner = group.stream().into_iter();
    match (inner.next(), inner.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) if id.to_string() == "serde" => {
            args.stream()
                .into_iter()
                .any(|t| matches!(&t, TokenTree::Ident(i) if i.to_string() == "default"))
        }
        _ => false,
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<(String, bool)> {
    let mut fields = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        // Attributes before the field.
        let mut has_default = false;
        loop {
            match toks.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    toks.next();
                    if let Some(TokenTree::Group(g)) = toks.next() {
                        has_default |= is_serde_default(&g);
                    }
                }
                _ => break,
            }
        }
        // Visibility.
        if let Some(TokenTree::Ident(id)) = toks.peek() {
            if id.to_string() == "pub" {
                toks.next();
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next();
                    }
                }
            }
        }
        // Field name (or end of stream after a trailing comma).
        let field = match toks.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("expected field name, found {other:?}"),
        };
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{field}`, found {other:?}"),
        }
        // Skip the type up to a top-level comma.
        let mut depth = 0usize;
        loop {
            match toks.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => depth += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => depth = depth.saturating_sub(1),
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 0 => break,
                Some(_) => {}
                None => break,
            }
        }
        fields.push((field, has_default));
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<(String, VariantKind)> {
    let mut variants = Vec::new();
    let mut toks = stream.into_iter().peekable();
    loop {
        // Attributes (doc comments, #[default], ...).
        while let Some(TokenTree::Punct(p)) = toks.peek() {
            if p.as_char() != '#' {
                break;
            }
            toks.next();
            toks.next(); // the [...] group
        }
        let variant = match toks.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("expected variant name, found {other:?}"),
        };
        let mut kind = VariantKind::Unit;
        if let Some(TokenTree::Group(g)) = toks.peek() {
            match g.delimiter() {
                Delimiter::Parenthesis => {
                    kind = VariantKind::Tuple(top_level_arity(g.stream()));
                    toks.next();
                }
                Delimiter::Brace => {
                    let fields = parse_named_fields(g.stream())
                        .into_iter()
                        .map(|(name, _)| name)
                        .collect();
                    kind = VariantKind::Struct(fields);
                    toks.next();
                }
                _ => {}
            }
        }
        // Skip an optional `= discriminant`, then the comma.
        let mut depth = 0usize;
        loop {
            match toks.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => depth += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => depth = depth.saturating_sub(1),
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 0 => break,
                Some(_) => {}
                None => break,
            }
        }
        variants.push((variant, kind));
    }
    variants
}

// ------------------------------------------------------------ generation

/// `impl<A: ::serde::Trait, ...>` header pieces for a generic type.
fn generic_headers(generics: &[String], bound: &str) -> (String, String) {
    if generics.is_empty() {
        return (String::new(), String::new());
    }
    let decl = generics
        .iter()
        .map(|g| format!("{g}: ::serde::{bound}"))
        .collect::<Vec<_>>()
        .join(", ");
    let args = generics.join(", ");
    (format!("<{decl}>"), format!("<{args}>"))
}

fn gen_serialize(item: &Item) -> String {
    let (decl, args) = generic_headers(&item.generics, "Serialize");
    let name = &item.name;
    let body = match &item.kind {
        Kind::Struct(fields) => {
            let pushes: String = fields
                .iter()
                .map(|(f, _)| {
                    format!(
                        "m.push((::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f})));\n"
                    )
                })
                .collect();
            format!(
                "let mut m: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                 ::std::vec::Vec::new();\n{pushes}::serde::Value::Map(m)"
            )
        }
        Kind::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::TupleStruct(n) => {
            let items: String = (0..*n)
                .map(|i| format!("s.push(::serde::Serialize::to_value(&self.{i}));\n"))
                .collect();
            format!(
                "let mut s: ::std::vec::Vec<::serde::Value> = ::std::vec::Vec::new();\n\
                 {items}::serde::Value::Seq(s)"
            )
        }
        Kind::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|(v, kind)| match kind {
                    VariantKind::Unit => format!(
                        "{name}::{v} => ::serde::Value::Str(::std::string::String::from(\"{v}\")),\n"
                    ),
                    VariantKind::Tuple(1) => format!(
                        "{name}::{v}(x0) => ::serde::Value::Map(::std::vec![(\
                         ::std::string::String::from(\"{v}\"), \
                         ::serde::Serialize::to_value(x0))]),\n"
                    ),
                    VariantKind::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                        let pushes: String = binders
                            .iter()
                            .map(|b| format!("s.push(::serde::Serialize::to_value({b}));"))
                            .collect();
                        format!(
                            "{name}::{v}({}) => {{ \
                             let mut s: ::std::vec::Vec<::serde::Value> = ::std::vec::Vec::new(); \
                             {pushes} \
                             ::serde::Value::Map(::std::vec![(\
                             ::std::string::String::from(\"{v}\"), ::serde::Value::Seq(s))]) }},\n",
                            binders.join(", ")
                        )
                    }
                    VariantKind::Struct(fields) => {
                        let binders = fields.join(", ");
                        let pushes: String = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "m.push((::std::string::String::from(\"{f}\"), \
                                     ::serde::Serialize::to_value({f})));"
                                )
                            })
                            .collect();
                        format!(
                            "{name}::{v} {{ {binders} }} => {{ \
                             let mut m: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                             ::std::vec::Vec::new(); \
                             {pushes} \
                             ::serde::Value::Map(::std::vec![(\
                             ::std::string::String::from(\"{v}\"), ::serde::Value::Map(m))]) }},\n"
                        )
                    }
                })
                .collect();
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl{decl} ::serde::Serialize for {name}{args} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let (decl, args) = generic_headers(&item.generics, "Deserialize");
    let name = &item.name;
    let body = match &item.kind {
        Kind::Struct(fields) => {
            let inits: String = fields
                .iter()
                .map(|(f, has_default)| {
                    format!(
                        "{f}: match ::serde::map_get(m, \"{f}\") {{ \
                         ::std::option::Option::Some(x) => ::serde::Deserialize::from_value(x)?, \
                         ::std::option::Option::None => {} }},\n",
                        missing_expr(f, *has_default)
                    )
                })
                .collect();
            format!(
                "let m = match v {{ \
                 ::serde::Value::Map(m) => m, \
                 _ => return ::std::result::Result::Err(::serde::Error::msg(\
                 \"expected a JSON object for struct {name}\")) }};\n\
                 ::std::result::Result::Ok({name} {{\n{inits}}})"
            )
        }
        Kind::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Kind::TupleStruct(n) => {
            let inits: String = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&s[{i}])?,"))
                .collect();
            format!(
                "let s = match v {{ \
                 ::serde::Value::Seq(s) if s.len() == {n} => s, \
                 _ => return ::std::result::Result::Err(::serde::Error::msg(\
                 \"expected a {n}-element array for tuple struct {name}\")) }};\n\
                 ::std::result::Result::Ok({name}({inits}))"
            )
        }
        Kind::Enum(variants) => {
            let unit_arms: String = variants
                .iter()
                .filter(|(_, kind)| matches!(kind, VariantKind::Unit))
                .map(|(v, _)| format!("\"{v}\" => ::std::result::Result::Ok({name}::{v}),\n"))
                .collect();
            let data_arms: String = variants
                .iter()
                .filter(|(_, kind)| !matches!(kind, VariantKind::Unit))
                .map(|(v, kind)| match kind {
                    VariantKind::Unit => unreachable!(),
                    VariantKind::Tuple(1) => format!(
                        "\"{v}\" => ::std::result::Result::Ok({name}::{v}(\
                         ::serde::Deserialize::from_value(__val)?)),\n"
                    ),
                    VariantKind::Tuple(arity) => {
                        let inits: String = (0..*arity)
                            .map(|i| format!("::serde::Deserialize::from_value(&s[{i}])?,"))
                            .collect();
                        format!(
                            "\"{v}\" => {{ let s = match __val {{ \
                             ::serde::Value::Seq(s) if s.len() == {arity} => s, \
                             _ => return ::std::result::Result::Err(::serde::Error::msg(\
                             \"expected a {arity}-element array for variant {v}\")) }}; \
                             ::std::result::Result::Ok({name}::{v}({inits})) }},\n"
                        )
                    }
                    VariantKind::Struct(fields) => {
                        let inits: String = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: match ::serde::map_get(m2, \"{f}\") {{ \
                                     ::std::option::Option::Some(x) => \
                                     ::serde::Deserialize::from_value(x)?, \
                                     ::std::option::Option::None => {} }},",
                                    missing_expr(f, false)
                                )
                            })
                            .collect();
                        format!(
                            "\"{v}\" => {{ let m2 = match __val {{ \
                             ::serde::Value::Map(m2) => m2, \
                             _ => return ::std::result::Result::Err(::serde::Error::msg(\
                             \"expected an object for variant {v}\")) }}; \
                             ::std::result::Result::Ok({name}::{v} {{ {inits} }}) }},\n"
                        )
                    }
                })
                .collect();
            format!(
                "match v {{\n\
                 ::serde::Value::Str(s) => match s.as_str() {{\n{unit_arms}\
                 other => ::std::result::Result::Err(::serde::Error::msg(::std::format!(\
                 \"unknown variant `{{other}}` of enum {name}\"))),\n}},\n\
                 ::serde::Value::Map(m) if m.len() == 1 => {{\n\
                 let (__tag, __val) = &m[0];\n\
                 let _ = __val;\n\
                 match __tag.as_str() {{\n{data_arms}\
                 other => ::std::result::Result::Err(::serde::Error::msg(::std::format!(\
                 \"unknown variant `{{other}}` of enum {name}\"))),\n}}\n}},\n\
                 _ => ::std::result::Result::Err(::serde::Error::msg(\
                 \"expected a string or single-key object for enum {name}\")),\n}}"
            )
        }
    };
    // Other shapes keep the trait's default `read_json`.
    let read_json = match &item.kind {
        Kind::Struct(fields) => Some(gen_read_json_struct(name, fields)),
        Kind::TupleStruct(1) => Some(format!(
            "::std::result::Result::Ok({name}(::serde::Deserialize::read_json(__r)?))"
        )),
        _ => None,
    }
    .map_or(String::new(), |body| {
        format!(
            "fn read_json(__r: &mut ::serde::json::Reader<'_>) \
             -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n"
        )
    });
    format!(
        "impl{decl} ::serde::Deserialize for {name}{args} {{\n\
         fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n}}\n{read_json}}}\n"
    )
}

/// The value of field `f` when its key is absent: `Default` under
/// `#[serde(default)]`, else whatever `missing_field` makes of it.
fn missing_expr(f: &str, has_default: bool) -> String {
    if has_default {
        "::std::default::Default::default()".to_string()
    } else {
        format!("::serde::missing_field(\"{f}\")?")
    }
}

/// The single-pass decoder of a named-field struct. Each field collects
/// into an `Option` local whose type the closing struct literal fixes.
/// As with `from_value`'s `map_get`, the first occurrence of a key wins;
/// later duplicates and unknown keys are parsed and dropped, so they are
/// still fully validated.
fn gen_read_json_struct(name: &str, fields: &[(String, bool)]) -> String {
    let locals: String = (0..fields.len())
        .map(|i| format!("let mut __f{i} = ::std::option::Option::None;\n"))
        .collect();
    let arms: String = fields
        .iter()
        .enumerate()
        .map(|(i, (f, _))| {
            format!(
                "\"{f}\" if __f{i}.is_none() => __f{i} = \
                 ::std::option::Option::Some(::serde::Deserialize::read_json(__r)?),\n"
            )
        })
        .collect();
    let inits: String = fields
        .iter()
        .enumerate()
        .map(|(i, (f, has_default))| {
            format!(
                "{f}: match __f{i} {{ ::std::option::Option::Some(x) => x, \
                 ::std::option::Option::None => {} }},\n",
                missing_expr(f, *has_default)
            )
        })
        .collect();
    let entries = if fields.is_empty() {
        "while __r.next_key()?.is_some() { __r.parse_value()?; }".to_string()
    } else {
        format!(
            "while let ::std::option::Option::Some(__key) = __r.next_key()? {{\n\
             match &*__key {{\n{arms}_ => {{ __r.parse_value()?; }}\n}}\n}}"
        )
    };
    format!(
        "{locals}__r.begin_object()?;\n{entries}\n\
         ::std::result::Result::Ok({name} {{\n{inits}}})"
    )
}

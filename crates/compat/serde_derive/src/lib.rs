//! `#[derive(Serialize, Deserialize)]` for the in-tree serde stand-in.
//!
//! Real `serde_derive` leans on `syn`/`quote`; neither is available in this
//! offline workspace, so this macro parses the item's `TokenStream` by hand.
//! It supports exactly the shapes the workspace uses:
//!
//! * structs with named fields;
//! * newtype (single-field tuple) structs, serialized transparently;
//! * enums whose variants are unit, newtype, or struct-like (externally
//!   tagged, like real serde's default representation).
//!
//! The only field attribute implemented is `#[serde(default)]` (an absent
//! field deserializes to `Default::default()`). Generics, other
//! `#[serde(...)]` attributes, and tuple structs with more than one field
//! are rejected with a compile error rather than silently mis-handled.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The parsed shape of the item the derive is attached to.
enum Item {
    NamedStruct {
        name: String,
        fields: Vec<Field>,
    },
    NewtypeStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// A named field and whether it carries `#[serde(default)]` (absent fields
/// fall back to `Default::default()` instead of erroring).
struct Field {
    name: String,
    default: bool,
}

enum Variant {
    Unit(String),
    Newtype(String),
    Struct { name: String, fields: Vec<Field> },
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl must parse")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl must parse")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attrs_and_vis(&tokens, &mut i);

    let keyword = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("derive(Serialize/Deserialize): generic type `{name}` is not supported");
    }

    match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::NamedStruct {
                name,
                fields: parse_named_fields(g.stream()),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = tuple_arity(g.stream());
                if arity != 1 {
                    panic!(
                        "derive(Serialize/Deserialize): tuple struct `{name}` has {arity} fields; \
                         only single-field newtype structs are supported"
                    );
                }
                Item::NewtypeStruct { name }
            }
            other => panic!(
                "derive(Serialize/Deserialize): unexpected token after `struct {name}`: {other:?}"
            ),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!(
                "derive(Serialize/Deserialize): unexpected token after `enum {name}`: {other:?}"
            ),
        },
        other => {
            panic!("derive(Serialize/Deserialize): expected `struct` or `enum`, found `{other}`")
        }
    }
}

/// Skips any number of outer attributes (`#[...]`) and a visibility
/// qualifier (`pub`, `pub(crate)`, ...), advancing `i`.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // '#'
                *i += 1; // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(
                    tokens.get(*i),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    *i += 1; // pub(crate) / pub(super)
                }
            }
            _ => return,
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("derive(Serialize/Deserialize): expected identifier, found {other:?}"),
    }
}

/// Parses `field: Type, ...` field lists, returning the field names and
/// their `#[serde(default)]` markers. Types are skipped wholesale; commas
/// inside angle brackets (`Vec<(A, B)>`) do not split fields because
/// `<`/`>` depth is tracked.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < tokens.len() {
        let default = take_field_attrs(&tokens, &mut i);
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let field = expect_ident(&tokens, &mut i);
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("derive(Serialize/Deserialize): expected `:` after field `{field}`, found {other:?}"),
        }
        skip_type(&tokens, &mut i);
        fields.push(Field {
            name: field,
            default,
        });
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    fields
}

/// Consumes the attributes preceding a field, returning true if one of
/// them is `#[serde(default)]`. Other `#[serde(...)]` contents are
/// rejected (this shim would silently mis-handle them); non-serde
/// attributes (doc comments etc.) are skipped.
fn take_field_attrs(tokens: &[TokenTree], i: &mut usize) -> bool {
    let mut default = false;
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        let Some(TokenTree::Group(attr)) = tokens.get(*i + 1) else {
            return default;
        };
        let inner: Vec<TokenTree> = attr.stream().into_iter().collect();
        if matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
            let Some(TokenTree::Group(args)) = inner.get(1) else {
                panic!("derive(Serialize/Deserialize): malformed #[serde(...)] attribute");
            };
            let args = args.stream().to_string();
            if args.trim() == "default" {
                default = true;
            } else {
                panic!(
                    "derive(Serialize/Deserialize): unsupported serde attribute \
                     `#[serde({args})]`; only `#[serde(default)]` is implemented"
                );
            }
        }
        *i += 2; // '#' and the [...] group
    }
    default
}

/// Advances `i` past one type, stopping at a top-level `,` or end of input.
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(tok) = tokens.get(*i) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

fn tuple_arity(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut i = 0;
    let mut arity = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        skip_type(&tokens, &mut i);
        arity += 1;
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
            // Trailing comma.
            if i >= tokens.len() {
                break;
            }
        }
    }
    arity
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut i);
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = tuple_arity(g.stream());
                if arity != 1 {
                    panic!(
                        "derive(Serialize/Deserialize): variant `{name}` has {arity} tuple fields; \
                         only newtype variants are supported"
                    );
                }
                variants.push(Variant::Newtype(name));
                i += 1;
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                variants.push(Variant::Struct {
                    name,
                    fields: parse_named_fields(g.stream()),
                });
                i += 1;
            }
            _ => variants.push(Variant::Unit(name)),
        }
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let pushes: String = fields
                .iter()
                .map(|f| {
                    let f = &f.name;
                    format!(
                        "__fields.push((::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f})));\n"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                             ::std::vec::Vec::new();\n\
                         {pushes}\
                         ::serde::Value::Map(__fields)\n\
                     }}\n\
                 }}"
            )
        }
        Item::NewtypeStruct { name } => format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn to_value(&self) -> ::serde::Value {{\n\
                     ::serde::Serialize::to_value(&self.0)\n\
                 }}\n\
             }}"
        ),
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| match v {
                    Variant::Unit(v) => format!(
                        "{name}::{v} => ::serde::Value::Str(::std::string::String::from(\"{v}\")),\n"
                    ),
                    Variant::Newtype(v) => format!(
                        "{name}::{v}(__inner) => ::serde::Value::Map(::std::vec![\
                             (::std::string::String::from(\"{v}\"), \
                              ::serde::Serialize::to_value(__inner))]),\n"
                    ),
                    Variant::Struct { name: v, fields } => {
                        let bindings = fields
                            .iter()
                            .map(|f| f.name.as_str())
                            .collect::<Vec<_>>()
                            .join(", ");
                        let pushes: String = fields
                            .iter()
                            .map(|f| {
                                let f = &f.name;
                                format!(
                                    "(::std::string::String::from(\"{f}\"), \
                                     ::serde::Serialize::to_value({f})),"
                                )
                            })
                            .collect();
                        format!(
                            "{name}::{v} {{ {bindings} }} => ::serde::Value::Map(::std::vec![\
                                 (::std::string::String::from(\"{v}\"), \
                                  ::serde::Value::Map(::std::vec![{pushes}]))]),\n"
                        )
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{arms}}}\n\
                     }}\n\
                 }}"
            )
        }
    }
}

/// Renders one struct-field initializer for a derived `Deserialize` impl,
/// routing `#[serde(default)]` fields through `get_field_or_default`.
fn field_init(source: &'static str) -> impl Fn(&Field) -> String {
    move |f: &Field| {
        let getter = if f.default {
            "get_field_or_default"
        } else {
            "get_field"
        };
        let name = &f.name;
        format!("{name}: ::serde::{getter}({source}, \"{name}\")?,\n")
    }
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let inits: String = fields.iter().map(field_init("__value")).collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__value: &::serde::Value) -> \
                         ::core::result::Result<Self, ::serde::Error> {{\n\
                         match __value {{\n\
                             ::serde::Value::Map(_) => ::core::result::Result::Ok({name} {{\n\
                                 {inits}\
                             }}),\n\
                             __other => ::core::result::Result::Err(::serde::Error::new(\
                                 ::std::format!(\"expected a map for struct {name}, got {{}}\", \
                                                __other.kind()))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
        Item::NewtypeStruct { name } => format!(
            "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(__value: &::serde::Value) -> \
                     ::core::result::Result<Self, ::serde::Error> {{\n\
                     ::core::result::Result::Ok({name}(::serde::Deserialize::from_value(__value)?))\n\
                 }}\n\
             }}"
        ),
        Item::Enum { name, variants } => {
            let unit_arms: String = variants
                .iter()
                .filter_map(|v| match v {
                    Variant::Unit(v) => Some(format!(
                        "\"{v}\" => ::core::result::Result::Ok({name}::{v}),\n"
                    )),
                    _ => None,
                })
                .collect();
            let tagged_arms: String = variants
                .iter()
                .filter_map(|v| match v {
                    Variant::Unit(_) => None,
                    Variant::Newtype(v) => Some(format!(
                        "\"{v}\" => ::core::result::Result::Ok({name}::{v}(\
                             ::serde::Deserialize::from_value(__inner)\
                                 .map_err(|e| e.at(\"{v}\"))?)),\n"
                    )),
                    Variant::Struct { name: v, fields } => {
                        let inits: String = fields
                            .iter()
                            .map(|f| {
                                let getter = if f.default {
                                    "get_field_or_default"
                                } else {
                                    "get_field"
                                };
                                let f = &f.name;
                                format!(
                                    "{f}: ::serde::{getter}(__inner, \"{f}\")\
                                         .map_err(|e| e.at(\"{v}\"))?,\n"
                                )
                            })
                            .collect();
                        Some(format!(
                            "\"{v}\" => ::core::result::Result::Ok({name}::{v} {{ {inits} }}),\n"
                        ))
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__value: &::serde::Value) -> \
                         ::core::result::Result<Self, ::serde::Error> {{\n\
                         match __value {{\n\
                             ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                                 {unit_arms}\
                                 __other => ::core::result::Result::Err(::serde::Error::new(\
                                     ::std::format!(\"unknown variant `{{}}` for enum {name}\", __other))),\n\
                             }},\n\
                             ::serde::Value::Map(__pairs) if __pairs.len() == 1 => {{\n\
                                 let (__tag, __inner) = &__pairs[0];\n\
                                 match __tag.as_str() {{\n\
                                     {tagged_arms}\
                                     __other => ::core::result::Result::Err(::serde::Error::new(\
                                         ::std::format!(\"unknown variant `{{}}` for enum {name}\", __other))),\n\
                                 }}\n\
                             }}\n\
                             __other => ::core::result::Result::Err(::serde::Error::new(\
                                 ::std::format!(\"expected a variant of enum {name}, got {{}}\", \
                                                __other.kind()))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}

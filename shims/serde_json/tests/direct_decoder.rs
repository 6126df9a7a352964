//! Differential test of the two decode paths: `from_str::<T>` (derived
//! single-pass decoders straight from the bytes) against
//! `T::from_value(&parse_value(s)?)` (the `Value` tree). On every input
//! both must give the same value, compared bit for bit through `Debug`
//! (finite `f64`s with different bits print differently), or both must
//! fail.

// Decoded fields are read only through `Debug`.
#![allow(dead_code)]

use serde::{Deserialize, Value};
use std::fmt::Debug;

#[derive(Debug, Deserialize)]
struct PointDto {
    lat: f64,
    lon: f64,
    t: i64,
}

/// The shape of a `/predict` body, with a field attribute the derive
/// must pass over (the benchmark's mirror DTO carries this one).
#[derive(Debug, Deserialize)]
struct PredictBody {
    #[allow(dead_code)]
    model: Option<String>,
    points: Vec<PointDto>,
}

/// The shape of an `/ingest` body.
#[derive(Debug, Deserialize)]
struct IngestBody {
    user: u32,
    model: Option<String>,
    points: Vec<PointDto>,
    flush: Option<bool>,
    idem: Option<u64>,
}

#[derive(Debug, Deserialize)]
struct Id(u16);

#[derive(Debug, Deserialize)]
enum Kind {
    Plain,
    Scaled(f32),
}

/// Every direct decoder next to fallback types (an enum, a `Value`).
#[derive(Debug, Deserialize)]
struct Mixed {
    #[serde(default)]
    tag: String,
    next: Option<Box<Mixed>>,
    xs: Vec<Option<f64>>,
    id: Option<Id>,
    kind: Option<Kind>,
    extra: Option<Value>,
}

/// Decodes `s` both ways; panics if they disagree, else whether it
/// decoded.
fn agree<T: Deserialize + Debug>(s: &str) -> bool {
    let direct = serde_json::from_str::<T>(s).map_err(|e| e.to_string());
    let via_value = serde_json::parse_value(s)
        .map_err(|e| e.to_string())
        .and_then(|v| T::from_value(&v).map_err(|e| e.to_string()));
    match (direct, via_value) {
        (Ok(a), Ok(b)) => {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "values differ on {s:?}");
            true
        }
        (Err(_), Err(_)) => false,
        (a, b) => panic!("paths disagree on {s:?}: direct {a:?}, value path {b:?}"),
    }
}

/// splitmix64: a seeded, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Points rendered the way clients and the benchmark write them.
fn points_json(rng: &mut Rng, n: usize) -> String {
    let points: Vec<String> = (0..n)
        .map(|i| {
            let lat = 39.9 + (rng.next() % 100_000) as f64 * 1e-6;
            let lon = 116.3 - (rng.next() % 100_000) as f64 * 1e-6;
            let t = 1_224_000_000_000i64 + i as i64 * 2_000;
            format!("{{\"lat\":{lat},\"lon\":{lon},\"t\":{t}}}")
        })
        .collect();
    format!("[{}]", points.join(","))
}

fn base_bodies(rng: &mut Rng) -> Vec<String> {
    let mut bodies = Vec::new();
    for i in 0..8 {
        let points = points_json(rng, 2 + i);
        bodies.push(format!("{{\"points\":{points}}}"));
        bodies.push(format!("{{\"model\":\"rf@v2\",\"points\":{points}}}"));
        bodies.push(format!(
            "{{\"user\":{},\"points\":{points},\"flush\":true,\"idem\":{}}}",
            i * 7,
            rng.next() >> 1
        ));
        bodies.push(points);
    }
    bodies
}

const TOKENS: &[&str] = &[
    "null",
    "1e400",
    "99999999999999999999",
    "3",
    "1.5",
    "-0",
    "true",
    "\"x\"",
    "\"l\\u0061t\"",
    "[]",
    "{}",
    ",",
    ":",
    "\"lat\":1,",
    "\"user\":-1,",
    "01",
    " ",
];

/// One seeded mutation: a bit flip, a truncation, a spliced chunk of
/// another body, an inserted token, or a token in place of the scalar
/// after a `:`. Bodies are ASCII and flips stay below bit 7, so every
/// mutant is still a `&str`.
fn mutate(rng: &mut Rng, body: &str, other: &str) -> String {
    let mut bytes = body.as_bytes().to_vec();
    let at = rng.below(bytes.len() + 1);
    let token = TOKENS[rng.below(TOKENS.len())].bytes();
    match rng.below(5) {
        0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(7),
        1 => bytes.truncate(at),
        2 => {
            let from = rng.below(other.len());
            let to = (from + 1 + rng.below(24)).min(other.len());
            bytes.splice(at..at, other.as_bytes()[from..to].iter().copied());
        }
        3 => {
            let colons: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b':').collect();
            if let Some(&colon) = colons.get(rng.below(colons.len().max(1))) {
                let end = (colon + 1..bytes.len())
                    .find(|&i| matches!(bytes[i], b',' | b'}' | b']'))
                    .unwrap_or(bytes.len());
                bytes.splice(colon + 1..end, token);
            }
        }
        _ => {
            bytes.splice(at..at, token);
        }
    }
    String::from_utf8(bytes).expect("ASCII stays UTF-8")
}

#[test]
fn mutated_request_bodies_decode_alike_on_both_paths() {
    let mut rng = Rng(0x5EED_0026);
    let bodies = base_bodies(&mut rng);
    for body in &bodies {
        assert!(
            agree::<PredictBody>(body) || agree::<Vec<PointDto>>(body),
            "{body}"
        );
    }
    let (mut ok, mut err) = (0, 0);
    for _ in 0..3000 {
        let body = &bodies[rng.below(bodies.len())];
        let other = &bodies[rng.below(bodies.len())];
        let mut mutant = mutate(&mut rng, body, other);
        if rng.below(3) == 0 {
            mutant = mutate(&mut rng, &mutant, other);
        }
        for decoded in [
            agree::<PredictBody>(&mutant),
            agree::<IngestBody>(&mutant),
            agree::<Vec<PointDto>>(&mutant),
        ] {
            if decoded {
                ok += 1;
            } else {
                err += 1;
            }
        }
    }
    // Both outcomes must be well represented for the check to mean much
    // (each mutant fits at most two of the three shapes).
    assert!(ok >= 300 && err >= 3000, "ok {ok}, err {err}");
}

#[test]
fn defaults_options_boxes_and_fallback_types_decode_alike() {
    let cases: &[(&str, bool)] = &[
        (r#"{"xs":[]}"#, true),
        (
            r#"{"xs":[1,null,1.5,-0,99999999999999999999,2.5e-3]}"#,
            true,
        ),
        (
            r#"{"xs":[],"tag":"a","id":7,"kind":"Plain","extra":[1,{"a":null}]}"#,
            true,
        ),
        (
            r#"{"xs":[],"kind":{"Scaled":0.1},"next":{"xs":[2],"next":null}}"#,
            true,
        ),
        (r#"{"xs":[],"tag":null}"#, false),
        (r#"{"xs":null}"#, false),
        (r#"{"tag":"missing xs"}"#, false),
        (r#"{"xs":[],"id":70000}"#, false),
        (r#"{"xs":[],"id":-1}"#, false),
        (r#"{"xs":[],"kind":"Other"}"#, false),
        (r#"{"xs":[1e400]}"#, false),
        (r#"{"xs":[true]}"#, false),
        (r#"{"xs":[]} "#, true),
        (r#"{"xs":[]} x"#, false),
        (r#"[{"xs":[]}]"#, false),
    ];
    for &(input, decodes) in cases {
        assert_eq!(agree::<Mixed>(input), decodes, "{input}");
    }
}

#[test]
fn duplicate_and_escaped_keys_decode_alike() {
    let cases: &[(&str, bool)] = &[
        // The first occurrence wins; later ones are only validated.
        (r#"{"lat":1,"lon":2,"t":3,"lat":"later"}"#, true),
        (r#"{"lat":"first","lon":2,"t":3,"lat":1}"#, false),
        (r#"{"lat":1,"lon":2,"t":3,"lat":[1,}"#, false),
        (r#"{"lat":1,"lon":2,"t":3}"#, true),
        (r#"{"lat":1,"lon":2,"t":3,"lat":4}"#, true),
        (
            r#"{"lat":1,"lon":2,"t":3,"unknown":{"deep":[null,{"x":1.5}]}}"#,
            true,
        ),
        (r#"{"lat":1,"lon":2,"t":3,"unknown":01}"#, false),
        (r#"{"lat":1,"lon":2,"t":3,"unknown":"\u+041"}"#, false),
        (r#"{"lat":1,"lon":2}"#, false),
        (r#"{"lat":1,"lon":2,"t":1.5}"#, false),
        (r#"{"lat":1,"lon":2,"t":9223372036854775808}"#, false),
    ];
    for &(input, decodes) in cases {
        assert_eq!(agree::<PointDto>(input), decodes, "{input}");
    }
}

#[test]
fn depth_limit_counts_across_direct_and_fallback_parts() {
    // Today's limit: 129 nested arrays parse, 130 do not.
    let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
    assert!(serde_json::parse_value(&arrays(129)).is_ok());
    assert!(serde_json::parse_value(&arrays(130)).is_err());

    for n in 125..=132 {
        // A `Value` (fallback) under a direct struct: one level more.
        let wrapped = format!("{{\"xs\":[],\"extra\":{}}}", arrays(n));
        assert_eq!(agree::<Mixed>(&wrapped), n < 129, "extra at {n}");
        // Direct `Vec`s all the way down.
        assert_eq!(agree::<Vec<Value>>(&arrays(n)), n < 130, "arrays {n}");
        // A chain of direct structs, innermost holding a scalar.
        let chain = "{\"xs\":[],\"next\":".repeat(n) + "{\"xs\":[1]}" + &"}".repeat(n);
        assert_eq!(agree::<Mixed>(&chain), n < 127, "chain {n}");
    }
    let nested = |n: usize| "[".repeat(n) + "1" + &"]".repeat(n);
    for n in 126..=130 {
        assert_eq!(agree::<Value>(&nested(n)), n < 129, "scalar under {n}");
    }
}

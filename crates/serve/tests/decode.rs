//! Differential test of the daemon's typed request reader against the
//! derived `Deserialize` it replaces: random requests go through `encode`,
//! are re-rendered with the freedoms JSON allows (whitespace, key order,
//! unknown and repeated keys, escapes, number spellings), and both readers
//! must agree with each other and with the original request.

use bootes_serve::protocol::{decode, encode, MatrixPayload, Request};
use proptest::prelude::*;
use serde::Value;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

fn random_string(rng: &mut Rng) -> String {
    const PIECES: &[&str] = &[
        "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\t", "\u{1}", "\u{1f}", "é", "ß", "☃", "中",
        "😀", "𝄞", "\u{7f}", "\u{ffff}",
    ];
    (0..rng.below(10)).map(|_| *rng.pick(PIECES)).collect()
}

fn random_value(rng: &mut Rng) -> f64 {
    match rng.below(5) {
        0 => (rng.below(2_000_001) as f64) - 1e6,
        1 => -(rng.below(1000) as f64) / 8.0,
        2 => (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 1e-300,
        3 => ((rng.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e6,
        _ => 1.0 / (1 + rng.below(1000)) as f64,
    }
}

fn random_u64(rng: &mut Rng) -> u64 {
    match rng.below(4) {
        0 => u64::MAX,
        1 => rng.below(100),
        _ => rng.next(),
    }
}

fn random_request(rng: &mut Rng) -> Request {
    let matrix = rng.chance(70).then(|| {
        let nrows = 1 + rng.below(12) as usize;
        let ncols = 1 + rng.below(12) as usize;
        let nnz = rng.below(16) as usize;
        // Unsorted, with duplicates whenever two draws collide.
        let rows: Vec<usize> = (0..nnz).map(|_| rng.below(nrows as u64) as usize).collect();
        let cols: Vec<usize> = (0..nnz).map(|_| rng.below(ncols as u64) as usize).collect();
        let vals = if rng.chance(30) {
            Vec::new()
        } else {
            (0..nnz).map(|_| random_value(rng)).collect()
        };
        MatrixPayload {
            nrows,
            ncols,
            rows,
            cols,
            vals,
        }
    });
    Request {
        id: random_u64(rng),
        op: rng
            .pick(&[
                "preprocess",
                "decide",
                "ping",
                "stats",
                "shutdown",
                "",
                "pré\"process",
            ])
            .to_string(),
        tenant: rng.chance(60).then(|| random_string(rng)),
        matrix,
        deadline_ms: rng.chance(50).then(|| random_u64(rng)),
    }
}

fn whitespace(rng: &mut Rng, out: &mut String) {
    for _ in 0..rng.below(3) {
        out.push(*rng.pick(&[' ', '\t', '\r']));
    }
}

fn render_string(rng: &mut Rng, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 || rng.chance(25) => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
            '/' if rng.chance(50) => out.push_str("\\/"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Some JSON value of any kind, nested at most `depth` levels.
fn junk(rng: &mut Rng, depth: u64) -> Value {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(50)),
        2 => Value::Int(-(rng.below(1000) as i64)),
        3 => Value::Float(random_value(rng)),
        4 => Value::Str(random_string(rng)),
        5 => Value::Array((0..rng.below(4)).map(|_| junk(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..rng.below(4))
                .map(|_| (random_string(rng), junk(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Writes `v` with random whitespace, number spellings and escapes; objects
/// get their keys shuffled plus unknown keys, and repeats of known keys
/// placed after the original (whose value must win).
fn render(rng: &mut Rng, v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => match rng.below(4) {
            // Integral floats read as integers, as the derived impls allow.
            0 if *u < 1 << 53 => out.push_str(&format!("{u}.0")),
            1 if *u < 1 << 53 => out.push_str(&format!("{}e{}", u * 10, -1)),
            _ => out.push_str(&u.to_string()),
        },
        Value::Float(f) => match rng.below(3) {
            0 => out.push_str(&format!("{f:e}")),
            1 => out.push_str(&format!("{f:E}").replace("E", "E+").replace("E+-", "E-")),
            _ => out.push_str(&serde_json::to_string(f).expect("finite")),
        },
        Value::Str(s) => render_string(rng, s, out),
        Value::Array(items) => {
            out.push('[');
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                whitespace(rng, out);
                render(rng, item, out);
                whitespace(rng, out);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            let mut entries = entries.clone();
            for k in (1..entries.len()).rev() {
                entries.swap(k, rng.below(k as u64 + 1) as usize);
            }
            for _ in 0..rng.below(3) {
                let at = rng.below(entries.len() as u64 + 1) as usize;
                let name = rng
                    .pick(&["x", "extra", "ïd", "Matrix", "id ", ""])
                    .to_string();
                entries.insert(at, (name, junk(rng, 3)));
            }
            if !entries.is_empty() && rng.chance(40) {
                let first = rng.below(entries.len() as u64) as usize;
                let at = first + 1 + rng.below((entries.len() - first) as u64) as usize;
                let repeat = (entries[first].0.clone(), junk(rng, 2));
                entries.insert(at, repeat);
            }
            out.push('{');
            for (k, (key, item)) in entries.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                whitespace(rng, out);
                render_string(rng, key, out);
                whitespace(rng, out);
                out.push(':');
                whitespace(rng, out);
                render(rng, item, out);
                whitespace(rng, out);
            }
            out.push('}');
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The typed reader returns what the derived `Deserialize` returns,
    /// which is the request that was encoded, and no strict prefix of a
    /// line decodes.
    #[test]
    fn typed_reader_matches_the_derived_deserialize(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let req = random_request(&mut rng);
        let canonical = encode(&req);
        let tree: Value = serde_json::from_str(&canonical).expect("encode output parses");
        let mut line = String::new();
        whitespace(&mut rng, &mut line);
        render(&mut rng, &tree, &mut line);

        let reference: Request = serde_json::from_str(&line).expect("reference reads the line");
        let typed: Request = decode(&line).expect("typed reader reads the line");
        prop_assert_eq!(&typed, &reference, "line: {}", line);
        prop_assert_eq!(&typed, &req, "line: {}", line);
        prop_assert_eq!(&decode::<Request>(&canonical).expect("canonical line"), &req);
        for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
            prop_assert!(
                decode::<Request>(&line[..end]).is_err(),
                "prefix {:?} decoded",
                &line[..end]
            );
        }
    }
}

#[test]
fn readers_agree_on_wrong_types_and_number_spellings() {
    let accepted = [
        r#"{"id":7.0,"deadline_ms":1e2}"#,
        r#"{"id":-0,"matrix":{"nrows":2.0,"ncols":2,"rows":[1e0],"cols":[0],"vals":[-3]}}"#,
        r#"{"id":18446744073709551615,"tenant":null,"matrix":null,"deadline_ms":null}"#,
        r#"{"op":"ping","id":1,"id":"shadowed","op":7}"#,
        r#"{}"#,
    ];
    for line in accepted {
        let reference: Request = serde_json::from_str(line).expect(line);
        assert_eq!(decode::<Request>(line).expect(line), reference, "{line}");
    }
    let rejected = [
        r#"[]"#,
        r#"{"id":-1}"#,
        r#"{"id":1.5}"#,
        r#"{"id":null}"#,
        r#"{"id":"7"}"#,
        r#"{"op":null}"#,
        r#"{"tenant":5}"#,
        r#"{"matrix":[]}"#,
        r#"{"matrix":{"rows":null}}"#,
        r#"{"matrix":{"rows":[0.5]}}"#,
        r#"{"matrix":{"vals":["1"]}}"#,
        r#"{"id":1,}"#,
        r#"{"id":1} {}"#,
        r#"{"x":18446744073709551616}"#,
    ];
    for line in rejected {
        assert!(serde_json::from_str::<Request>(line).is_err(), "{line}");
        assert!(decode::<Request>(line).is_err(), "{line}");
    }
}

#[test]
fn non_finite_values_are_rejected_where_the_reference_reads_nan() {
    for vals in ["null", "1e400", "-1e400"] {
        let line = format!(
            r#"{{"id":3,"op":"preprocess","matrix":{{"nrows":1,"ncols":2,"rows":[0,0],"cols":[0,1],"vals":[1.0,{vals}]}}}}"#
        );
        let err = decode::<Request>(&line).expect_err(&line);
        assert!(err.contains("vals[1] is not a finite number"), "{err}");
        // The reference reads the value as NaN or infinity; the conversion
        // to CSR then refuses it with the same error.
        let reference: Request = serde_json::from_str(&line).expect(&line);
        let payload = reference.matrix.expect("payload");
        assert!(!payload.vals[1].is_finite());
        let err = payload.to_csr().expect_err("non-finite value");
        assert!(err.contains("vals[1] is not a finite number"), "{err}");
    }
}

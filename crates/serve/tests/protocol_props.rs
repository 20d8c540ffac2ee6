//! Property tests for the wire codec: every request the parser can
//! produce survives an encode/parse round trip, and no truncation of an
//! encoded line parses or panics.

use multiclust_serve::protocol::{parse_request, DataSource, Request};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// Characters that exercise the string escaper: quotes, backslashes,
/// control characters, multi-byte and astral-plane scalars.
const CHARS: [char; 12] = ['a', 'Z', '0', '-', ' ', '"', '\\', '\n', '\u{1}', 'é', '✓', '😀'];

fn text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..8)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
}

/// Any finite double, drawn over the whole bit space (subnormals, huge
/// exponents, negative zero).
fn finite(rng: &mut StdRng) -> f64 {
    loop {
        let x = f64::from_bits(rng.gen::<u64>());
        if x.is_finite() {
            return x;
        }
    }
}

/// Integers the protocol carries: non-negative and within `i64`.
fn count(rng: &mut StdRng) -> usize {
    if rng.gen_bool(0.5) {
        rng.gen_range(0..10)
    } else {
        rng.gen_range(0..=i64::MAX as usize)
    }
}

fn source(rng: &mut StdRng) -> DataSource {
    if rng.gen_bool(0.2) {
        return DataSource::Path { path: text(rng), header: rng.gen_bool(0.5) };
    }
    let width = rng.gen_range(1..4);
    let rows = (0..rng.gen_range(1..6)).map(|_| (0..width).map(|_| finite(rng)).collect());
    DataSource::Inline(rows.collect())
}

fn request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0..8) {
        0 => Request::Fit {
            model: rng.gen_bool(0.5).then(|| text(rng)),
            family: text(rng),
            source: source(rng),
            k: count(rng),
            seed: count(rng) as u64,
            given: rng.gen_bool(0.5).then(|| {
                let labels = (0..rng.gen_range(0..8)).map(|_| rng.gen_bool(0.7).then(|| count(rng)));
                labels.collect()
            }),
            views: rng.gen_bool(0.5).then(|| {
                let group = |rng: &mut StdRng| (0..rng.gen_range(1..4)).map(|_| count(rng)).collect();
                (0..rng.gen_range(0..4)).map(|_| group(rng)).collect()
            }),
        },
        1 => Request::Assign { model: text(rng), source: source(rng) },
        2 => Request::Compare { a: text(rng), b: text(rng), sa: count(rng), sb: count(rng) },
        3 => Request::List,
        4 => Request::Evict { model: text(rng) },
        5 => Request::Stats,
        6 => Request::Dump,
        _ => Request::Shutdown,
    }
}

fn id(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..4) {
        0 => Value::Null,
        1 => Value::Int(rng.gen()),
        2 => Value::String(text(rng)),
        _ => Value::Array(vec![Value::Int(rng.gen_range(-5..5)), Value::String(text(rng))]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encoded_requests_parse_back_to_themselves(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (id, request) = (id(&mut rng), request(&mut rng));
        let line = request.encode(&id);
        let (parsed_id, parsed) = parse_request(&line);
        prop_assert_eq!(parsed_id, id);
        prop_assert_eq!(parsed, Ok(request));
    }

    #[test]
    fn every_proper_prefix_is_bad_json(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = request(&mut rng).encode(&id(&mut rng));
        for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            let (_, parsed) = parse_request(&line[..cut]);
            let code = parsed.err().map(|e| e.code);
            prop_assert!(code == Some("bad-json"), "prefix {:?} gave {code:?}", &line[..cut]);
        }
    }
}

//! The hand-written JSON parser never panics, whatever text it is
//! given, and every document it accepts serializes to text it accepts
//! again — text that then serializes to itself.
//!
//! Three input families: arbitrary bytes (decoded as lossy UTF-8,
//! drawn half from the bytes JSON syntax turns on), a valid document
//! with random byte edits, and every truncation of that document.
//! `PROPTEST_CASES` raises the case count of the first two.

use monitorless_std::json::Json;
use proptest::collection::vec;
use proptest::prelude::*;

/// A valid document with every value kind, escape and number form the
/// parser distinguishes.
const DOC: &str = r#"{"null":null,"t":true,"f":false,"int":-42,"big":18446744073709551616,
"num":-1.5e-3,"whole":2.0,"huge":1e400,"nan":"NaN",
"s":"q\"b\\s\/n\nr\rt\tb\bf\fu\u00e9 pair\ud83d\ude00 raw é","arr":[1,[2,[3,{}]],[]],
"obj":{"k":{"x":[0.1,-0,1E+2]}}}"#;

/// Bytes JSON syntax turns on: structure, escapes, number and keyword
/// characters, whitespace, and the lead and continuation bytes of a
/// multi-byte UTF-8 character.
const SYNTAX: &[u8] = b"{}[]\",:\\/-+.0123456789eEnulltruefalse ubfrt\t\n\r\xc3\xa9\xd8\xdc";

/// Case count: `PROPTEST_CASES` when set (a nightly run raises it),
/// otherwise `default`.
fn cases(default: u32) -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

/// Parses `bytes` as lossy UTF-8. `Err` carries the serialization of
/// an accepted document that does not parse again, or that serializes
/// to other text the second time.
fn parse_roundtrip(bytes: &[u8]) -> Result<(), String> {
    let Ok(value) = Json::parse(&String::from_utf8_lossy(bytes)) else {
        return Ok(());
    };
    let text = value.to_string();
    match Json::parse(&text) {
        Ok(again) if again.to_string() == text => Ok(()),
        Ok(again) => Err(format!("{text:?} serializes to {:?} after a reparse", again.to_string())),
        Err(e) => Err(format!("{text:?} does not parse again: {e}")),
    }
}

#[test]
fn the_seed_document_round_trips() {
    let value = Json::parse(DOC).expect("the seed document is valid JSON");
    assert_eq!(value.get("int"), Some(&Json::Int(-42)));
    assert_eq!(parse_roundtrip(DOC.as_bytes()), Ok(()));
}

#[test]
fn every_truncation_parses_without_panicking() {
    for cut in 0..=DOC.len() {
        let prefix = &DOC.as_bytes()[..cut];
        assert_eq!(parse_roundtrip(prefix), Ok(()), "cut at byte {cut}");
    }
}

proptest! {
    #![proptest_config(cases(256))]

    #[test]
    fn arbitrary_bytes_parse_without_panicking(
        picks in vec((0u8..2, 0u8..=255, 0usize..SYNTAX.len()), 0..64),
    ) {
        let bytes: Vec<u8> = picks
            .iter()
            .map(|&(syntax, any, i)| if syntax == 1 { SYNTAX[i] } else { any })
            .collect();
        let outcome = parse_roundtrip(&bytes);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    #[test]
    fn edited_documents_parse_without_panicking(
        edits in vec((0u8..3, 0usize..DOC.len(), 0u8..2, 0u8..=255, 0usize..SYNTAX.len()), 1..6),
        cut in 0usize..2 * DOC.len(),
    ) {
        let mut bytes = DOC.as_bytes().to_vec();
        for &(op, at, syntax, any, i) in &edits {
            let at = at % (bytes.len() + 1);
            let byte = if syntax == 1 { SYNTAX[i] } else { any };
            match op {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        // Half the cases keep the whole edited document.
        bytes.truncate(cut);
        let outcome = parse_roundtrip(&bytes);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

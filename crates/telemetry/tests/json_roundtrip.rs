//! Property: the JSON-lines sink grammar round-trips every field
//! type — strings (including quotes, backslashes, control characters,
//! and non-ASCII), unsigned/signed integers, finite floats, and
//! booleans — plus the record envelope itself.

use dpr_telemetry::log::{FieldValue, Level, Record};
use proptest::prelude::*;

/// A character palette that stresses JSON string escaping.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', 'é', '√',
    '🚗', '{', '}', ':', ',',
];

fn string_strategy() -> BoxedStrategy<String> {
    proptest::collection::vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
        .boxed()
}

fn field_strategy() -> BoxedStrategy<FieldValue> {
    prop_oneof![
        string_strategy().prop_map(FieldValue::Str),
        any::<u64>().prop_map(FieldValue::U64),
        any::<i64>().prop_map(FieldValue::I64),
        any::<u64>()
            .prop_map(f64::from_bits)
            .prop_filter("finite floats only (JSON has no NaN/Inf)", |f| f.is_finite())
            .prop_map(FieldValue::F64),
        any::<bool>().prop_map(FieldValue::Bool),
    ]
    .boxed()
}

/// JSON numbers erase the signed/unsigned distinction for
/// non-negative values: `I64(3)` comes back as `U64(3)`. Everything
/// else must be exact (floats bit-exact thanks to shortest-round-trip
/// formatting; `-0.0 == 0.0` is accepted as equal).
fn semantically_equal(sent: &FieldValue, got: &FieldValue) -> bool {
    match (sent, got) {
        (FieldValue::I64(a), FieldValue::U64(b)) => *a >= 0 && *a as u64 == *b,
        (FieldValue::U64(a), FieldValue::I64(b)) => *b >= 0 && *b as u64 == *a,
        (FieldValue::F64(a), FieldValue::F64(b)) => a == b,
        (a, b) => a == b,
    }
}

proptest! {
    #[test]
    fn every_field_type_round_trips(
        t_us in any::<u64>(),
        level in 0u8..5,
        target in string_strategy(),
        message in string_strategy(),
        fields in proptest::collection::vec((string_strategy(), field_strategy()), 0..8),
    ) {
        let record = Record {
            t_us,
            level: Level::from_u8(level).unwrap(),
            target,
            message,
            fields,
        };
        let line = record.to_json();
        prop_assert!(!line.contains('\n'), "a JSON line must be one line: {line:?}");
        let back = Record::from_json(&line).expect("line parses");
        prop_assert_eq!(back.t_us, record.t_us);
        prop_assert_eq!(back.level, record.level);
        prop_assert_eq!(&back.target, &record.target);
        prop_assert_eq!(&back.message, &record.message);
        prop_assert_eq!(back.fields.len(), record.fields.len());
        for ((sk, sv), (gk, gv)) in record.fields.iter().zip(back.fields.iter()) {
            prop_assert_eq!(sk, gk);
            prop_assert!(
                semantically_equal(sv, gv),
                "field {:?}: sent {:?}, got {:?} via {}", sk, sv, gv, line
            );
        }
    }
}

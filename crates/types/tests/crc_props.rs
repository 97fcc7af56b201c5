//! Property tests for the slice-by-8 CRC-32, checked against a bytewise
//! bit-at-a-time reference on random inputs of 0–64 KiB. The unit tests
//! pin known vectors only; these cover every remainder length and split
//! point of the eight-byte fold.

use proptest::prelude::*;

use dlog_types::crc::{crc32, update};

/// Bytewise reference: one shift-and-xor per bit, no tables.
fn reference(data: &[u8]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    for &b in data {
        state ^= u32::from(b);
        for _ in 0..8 {
            state = if state & 1 != 0 {
                (state >> 1) ^ 0xEDB8_8320
            } else {
                state >> 1
            };
        }
    }
    state ^ 0xFFFF_FFFF
}

/// Short inputs exercise the remainder loop; long ones the folded loop.
fn arb_data() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..=64usize),
        proptest::collection::vec(any::<u8>(), 0..=64 * 1024usize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn slice_by_8_matches_bytewise_reference(data in arb_data(), cut in any::<u16>()) {
        let expected = reference(&data);
        prop_assert_eq!(crc32(&data), expected, "len {}", data.len());
        // The incremental form carries its state across any split point.
        let (a, b) = data.split_at(usize::from(cut) % (data.len() + 1));
        prop_assert_eq!(update(update(0xFFFF_FFFF, a), b) ^ 0xFFFF_FFFF, expected);
    }
}

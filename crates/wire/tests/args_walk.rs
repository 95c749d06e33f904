//! A received argument list is checked by a walk that builds nothing
//! (`Args::decode`); `Vec<Value>::decode`, which builds every value, is
//! its reference. The two must accept and refuse the same bytes, with the
//! same error, and end at the same byte: run here over truncated,
//! extended and byte-flipped copies of the `mark` and commit argument
//! lists the golden test pins (`golden.rs`).
#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use syd_types::{SydResult, Value};
use syd_wire::{decode_from_slice, encode_to_vec, Args, Decode, Reader};

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// `golden.rs`'s `MARK_RECORD`, `COMMIT_RECORD` and `COMMIT_LINK`.
const MARK_RECORD: &str = concat!(
    "018180800803612d3001640064106d656574696e673a31363737373231370008",
    "01020304050607080000",
);
const COMMIT_RECORD: &str = concat!(
    "018180800803612d3001640164106d656574696e673a31363737373231370801",
    "020304050607080801020304050607080000",
);
const COMMIT_LINK: &str = concat!(
    "010001000008736c6f743a313030010108736c6f743a3130301c706172746963",
    "6970616e745f6368616e6765643a31363737373231376487ad4b00106d656574",
    "696e673a3136373737323137",
);

/// The argument lists of golden.rs's `mark` request and reconcile
/// commit, encoded.
fn golden_lists() -> [Vec<u8>; 2] {
    let change = |record: &str, link: Option<&str>| {
        let mut fields = vec![
            ("action", Value::str("reserve")),
            ("meeting", Value::from((1u64 << 24) | 1)),
            ("priority", Value::from(100u32)),
            ("record", Value::Bytes(unhex(record).into())),
        ];
        fields.extend(link.map(|link| ("link", Value::Bytes(unhex(link).into()))));
        Value::map(fields)
    };
    let list = |change: Value| {
        encode_to_vec(&vec![
            Value::from((1u64 << 24) | 9),
            Value::str("slot:100"),
            change,
        ])
    };
    [
        list(change(MARK_RECORD, None)),
        list(change(COMMIT_RECORD, Some(COMMIT_LINK))),
    ]
}

/// What reading a list at the front of `bytes` comes to: its values and
/// the number of bytes it took, or the error's text.
fn read(
    bytes: &[u8],
    list: impl Fn(&mut Reader<'_>) -> SydResult<Vec<Value>>,
) -> Result<(Vec<Value>, usize), String> {
    let mut r = Reader::new(bytes);
    let values = list(&mut r).map_err(|err| err.to_string())?;
    Ok((values, bytes.len() - r.remaining()))
}

/// The walk and the decoder agree on `bytes`, read at the front of a
/// request's tail and as a whole message.
fn agree(bytes: &[u8], what: &str) {
    let walked = read(bytes, |r| {
        let args = Args::decode(r)?;
        assert_eq!(args.as_bytes(), &bytes[..args.as_bytes().len()], "{what}");
        args.to_vec()
    });
    assert_eq!(walked, read(bytes, Vec::<Value>::decode), "{what}");
    let whole = decode_from_slice::<Args>(bytes).map(|args| args.to_vec().unwrap());
    let reference = decode_from_slice::<Vec<Value>>(bytes);
    let text = |read: SydResult<Vec<Value>>| read.map_err(|err| err.to_string());
    assert_eq!(text(whole), text(reference), "{what}, whole");
}

#[test]
fn the_walk_refuses_exactly_what_the_decoder_refuses() {
    for list in golden_lists() {
        agree(&list, "as sent");
        for len in 0..list.len() {
            agree(&list[..len], &format!("cut to {len}"));
        }
        for tail in [&[0u8][..], &[1, 0x80], &[0xff; 9], &list] {
            let extended = [&list[..], tail].concat();
            agree(&extended, &format!("extended by {tail:?}"));
        }
        for at in 0..list.len() {
            let flips = (0..=8).chain([0x7f, 0x80, 0xff]);
            for byte in flips.chain([1, 2, 4, 0x10, 0x40, 0x80].map(|bit| list[at] ^ bit)) {
                let mut flipped = list.clone();
                flipped[at] = byte;
                agree(&flipped, &format!("byte {at} set to {byte:#x}"));
            }
        }
    }
}

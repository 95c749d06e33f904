//! Golden bytes: two encodings the system sends on every negotiation,
//! pinned byte for byte. A change to how strings, maps or requests are
//! represented in memory must leave every one of these bytes where it is.
#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use syd_types::{NodeAddr, RequestId, ServiceName, UserId, Value};
use syd_wire::{decode_from_slice, encode_to_vec, Args, Envelope, Payload, Request, TraceContext};

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// The encoded record of an 8-member tentative meeting (`a-0`, ordinal
/// 100, id 2²⁴ + 1, corr `meeting:16777217`): what `Meeting::to_value`
/// carries, opaque to this crate.
const MARK_RECORD: &str = concat!(
    "018180800803612d3001640064106d656574696e673a31363737373231370008",
    "01020304050607080000",
);

/// The `mark` request of a negotiation round as the benchmark's wire probe
/// builds it: a `reserve` change with the full record, traced, with a
/// 24-byte credential blob.
const MARK_REQUEST: &str = concat!(
    "010203ad01004d010218a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5",
    "a5a5087379642e6c696e6b046d61726b0302928080100408736c6f743a313030",
    "070406616374696f6e040772657365727665076d656574696e67028280801008",
    "7072696f7269747902c801067265636f7264052a018180800803612d30016400",
    "64106d656574696e673a313637373732313700080102030405060708000001f0",
    "bdf3d589cf959a12a18695bb98f5f2f60f01",
);

#[test]
fn the_mark_request_encodes_to_its_golden_bytes() {
    let change = Value::map([
        ("action", Value::str("reserve")),
        ("meeting", Value::from((1u64 << 24) | 1)),
        ("priority", Value::from(100u32)),
        ("record", Value::Bytes(unhex(MARK_RECORD).into())),
    ]);
    let envelope = Envelope::new(
        NodeAddr::new(2),
        NodeAddr::new(3),
        Payload::Request(Request {
            id: RequestId::new(77),
            caller: UserId::new(1),
            target: UserId::new(2),
            credentials: vec![0xA5; 24],
            service: ServiceName::new("syd.link"),
            method: "mark".into(),
            args: Args::from(vec![
                Value::from((1u64 << 24) | 9),
                Value::str("slot:100"),
                change,
            ]),
            trace: Some(TraceContext {
                trace_id: 0x1234_5678_9ABC_DEF0,
                span_id: 0x0FED_CBA9_8765_4321,
                hop: 1,
            }),
        }),
    );
    let bytes = encode_to_vec(&envelope);
    assert_eq!(bytes.len(), 178);
    assert_eq!(bytes, unhex(MARK_REQUEST));
    assert_eq!(envelope.wire_len(), 178);
    // Built by hand with a `Vec` of credentials; decoded, they are inline
    // and the request re-encodes to the same bytes.
    let decoded: Envelope = decode_from_slice(&bytes).unwrap();
    assert_eq!(encode_to_vec(&decoded), bytes);
}

/// The commit `change` of a reconcile round: the mark's fields, the record
/// as it stands after the round (confirmed, all eight reserved) and the
/// participant's back link (`participant_changed:16777217`, 28 bytes: a
/// string past the inline limit).
const COMMIT_RECORD: &str = concat!(
    "018180800803612d3001640164106d656574696e673a31363737373231370801",
    "020304050607080801020304050607080000",
);
const COMMIT_LINK: &str = concat!(
    "010001000008736c6f743a313030010108736c6f743a3130301c706172746963",
    "6970616e745f6368616e6765643a31363737373231376487ad4b00106d656574",
    "696e673a3136373737323137",
);
const COMMIT_CHANGE: &str = concat!(
    "070506616374696f6e040772657365727665046c696e6b054c01000100000873",
    "6c6f743a313030010108736c6f743a3130301c7061727469636970616e745f63",
    "68616e6765643a31363737373231376487ad4b00106d656574696e673a313637",
    "3737323137076d656574696e670282808010087072696f7269747902c8010672",
    "65636f72640532018180800803612d3001640164106d656574696e673a313637",
    "37373231370801020304050607080801020304050607080000",
);

#[test]
fn the_reconcile_commit_change_encodes_to_its_golden_bytes() {
    let change = Value::map([
        ("action", Value::str("reserve")),
        ("meeting", Value::from((1u64 << 24) | 1)),
        ("priority", Value::from(100u32)),
        ("record", Value::Bytes(unhex(COMMIT_RECORD).into())),
        ("link", Value::Bytes(unhex(COMMIT_LINK).into())),
    ]);
    let bytes = encode_to_vec(&change);
    assert_eq!(bytes.len(), 185);
    assert_eq!(bytes, unhex(COMMIT_CHANGE));
}

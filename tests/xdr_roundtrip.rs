//! Property-based integration tests of the serialization stack: arbitrary
//! Nsp value trees survive serialize/unserialize, save/load/sload, the
//! compressor, and MPI pack/unpack — the invariants every transmission
//! strategy rests on.

use nspval::{BoolMatrix, Hash, List, Matrix, StrMatrix, Value};
use proptest::prelude::*;

mod common;

/// Strategy generating arbitrary Nsp values (depth-bounded).
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<f64>()
            .prop_filter("finite", |x| x.is_finite())
            .prop_map(Value::scalar),
        any::<bool>().prop_map(Value::boolean),
        "[a-zA-Z0-9 _.:/-]{0,24}".prop_map(Value::string),
        (
            1usize..5,
            1usize..5,
            proptest::collection::vec(-1e6f64..1e6, 1..25)
        )
            .prop_map(|(r, c, mut data)| {
                data.resize(r * c, 0.0);
                Value::Real(Matrix::from_col_major(r, c, data))
            }),
        (1usize..4, proptest::collection::vec(any::<bool>(), 1..4)).prop_map(|(r, mut data)| {
            let c = data.len();
            let mut full = Vec::with_capacity(r * c);
            for _ in 0..r {
                full.extend(data.iter().copied());
            }
            data.clear();
            Value::Bool(BoolMatrix::from_col_major(r, c, {
                full.truncate(r * c);
                full
            }))
        }),
        proptest::collection::vec("[a-z]{0,8}", 1..4).prop_map(|v| Value::Str(StrMatrix::row(v))),
        Just(Value::None),
        Just(Value::empty_matrix()),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4)
                .prop_map(|items| Value::List(List::from_vec(items))),
            proptest::collection::vec(("[a-zA-Z][a-zA-Z0-9_]{0,6}", inner), 0..4).prop_map(
                |pairs| {
                    let mut h = Hash::new();
                    for (k, v) in pairs {
                        h.set(&k, v);
                    }
                    Value::Hash(h)
                }
            ),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn serialize_unserialize_round_trips(v in arb_value()) {
        let s = xdrser::serialize(&v);
        let back = xdrser::unserialize(&s).unwrap();
        prop_assert!(v.equal(&back));
    }

    #[test]
    fn compressed_serial_round_trips(v in arb_value()) {
        let s = xdrser::serialize(&v);
        let c = xdrser::compress_serial(&s).unwrap();
        // Transparent decompression inside unserialize (§3.2).
        let back = xdrser::unserialize(&c).unwrap();
        prop_assert!(v.equal(&back));
    }

    #[test]
    fn compress_bytes_round_trips(bytes in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let c = xdrser::compress::compress_bytes(&bytes);
        let d = xdrser::compress::decompress_bytes(&c).unwrap();
        prop_assert_eq!(d, bytes);
    }

    #[test]
    fn incompressible_noise_round_trips(seed in any::<u64>(), len in 0usize..4000) {
        // xorshift noise: essentially incompressible, so the stream is
        // dominated by literals + flag bytes. Must still round trip and
        // never blow up more than the 9/8 worst case plus the header.
        let mut x = seed | 1;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xFF) as u8
            })
            .collect();
        let c = xdrser::compress::compress_bytes(&bytes);
        prop_assert!(c.len() <= 8 + bytes.len() + bytes.len() / 8 + 1);
        let d = xdrser::compress::decompress_bytes(&c).unwrap();
        prop_assert_eq!(d, bytes);
    }

    #[test]
    fn corrupted_compressed_stream_never_panics(
        v in arb_value(),
        pos_frac in 0.0f64..1.0,
        byte in any::<u8>(),
    ) {
        // Flip one byte anywhere in a genuine compressed stream (header
        // included): decompression must return Ok or Err, never panic,
        // and never allocate past what the guarded header admits.
        let mut c = xdrser::compress::compress_bytes(&xdrser::serialize_to_bytes(&v));
        let pos = ((c.len() - 1) as f64 * pos_frac) as usize;
        c[pos] ^= byte;
        let _ = xdrser::compress::decompress_bytes(&c);
    }

    #[test]
    fn hostile_length_header_rejected(
        claim in any::<u64>(),
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Hand-built stream: valid magic, arbitrary claimed length,
        // arbitrary token bytes. Claims beyond the 9x expansion bound
        // must be rejected before any allocation happens.
        let claim = (claim & 0xFFFF_FFFF) as u32;
        let mut s = Vec::with_capacity(8 + tail.len());
        s.extend_from_slice(b"NSPZ");
        s.extend_from_slice(&claim.to_be_bytes());
        s.extend_from_slice(&tail);
        let r = xdrser::compress::decompress_bytes(&s);
        if claim as usize > tail.len() * 9 + 8 {
            prop_assert!(r.is_err());
        }
        // Otherwise Ok or Err are both legitimate — just no panic.
    }

    #[test]
    fn save_load_sload_agree(v in arb_value(), salt in 0u64..u64::MAX) {
        let dir = std::env::temp_dir().join("it_xdr_prop");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("v-{salt:x}.bin"));
        xdrser::save(&path, &v).unwrap();
        let loaded = xdrser::load(&path).unwrap();
        prop_assert!(v.equal(&loaded));
        let s = xdrser::sload(&path).unwrap();
        let expected = xdrser::serialize_to_bytes(&v);
        prop_assert_eq!(s.bytes(), expected.as_slice());
        let unsealed = xdrser::unserialize(&s).unwrap();
        prop_assert!(v.equal(&unsealed));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_never_panics(v in arb_value(), cut_frac in 0.0f64..1.0) {
        let bytes = xdrser::serialize_to_bytes(&v);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        // Must return an error or a value — never panic.
        let _ = xdrser::unserialize_bytes(&bytes[..cut]);
    }

    #[test]
    fn corruption_never_panics(v in arb_value(), pos_frac in 0.0f64..1.0, byte in any::<u8>()) {
        let mut bytes = xdrser::serialize_to_bytes(&v);
        if !bytes.is_empty() {
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] = byte;
        }
        let _ = xdrser::unserialize_bytes(&bytes);
    }
}

#[test]
fn mpi_object_transmission_preserves_arbitrary_values() {
    // A fixed set of tricky values through actual minimpi transmission.
    use minimpi::World;
    let values = vec![
        Value::scalar(f64::MAX),
        Value::scalar(-0.0),
        Value::string(""),
        Value::list(vec![Value::None, Value::empty_matrix()]),
        {
            let mut h = nspval::Hash::new();
            h.set(
                "nested",
                Value::list(vec![Value::Serial(xdrser::serialize(&Value::scalar(1.0)))]),
            );
            Value::Hash(h)
        },
    ];
    let out = World::run(2, |comm| {
        if comm.rank() == 0 {
            for v in &values {
                comm.send_obj(v, 1, 0).unwrap();
            }
            true
        } else {
            for v in &values {
                let (bytes, _) = comm.recv(0, 0).unwrap();
                let got = xdrser::unserialize_bytes(&bytes).unwrap();
                assert!(got.equal(v), "mismatch: {got:?} vs {v:?}");
            }
            true
        }
    });
    assert!(out.iter().all(|&b| b));
}

#[test]
fn a_big_hash_reads_within_the_watchdog_and_a_later_duplicate_wins_in_place() {
    const N: usize = 200_000;
    let key = |i: usize| format!("k{i}");
    // 200 000 distinct keys, then every 1 000th again, then the first a
    // third time: three encoded hashes spliced behind one count.
    let value = common::with_watchdog(30, move || {
        let part = |keys: Vec<(usize, f64)>| {
            xdrser::Encoder::hash(0, |e| {
                for (i, x) in keys {
                    xdrser::FieldSink::scalar(e, &key(i), x);
                }
            })
        };
        let parts = [
            part((0..N).map(|i| (i, i as f64)).collect()),
            part((0..N).step_by(1000).map(|i| (i, -(i as f64))).collect()),
            part(vec![(0, 0.5)]),
        ];
        let count = N + N / 1000 + 1;
        let mut bytes = parts[0][..12].to_vec();
        bytes.extend((count as u32).to_be_bytes());
        for p in &parts {
            bytes.extend_from_slice(&p[xdrser::Encoder::HASH_LEN..]);
        }
        xdrser::unserialize_bytes(&bytes).unwrap()
    });
    let h = value.as_hash().unwrap();
    assert_eq!(h.len(), N);
    for (i, (k, v)) in h.iter().enumerate() {
        let want = match i {
            0 => 0.5,
            i if i % 1000 == 0 => -(i as f64),
            i => i as f64,
        };
        assert_eq!((k.as_str(), v.as_scalar()), (key(i).as_str(), Some(want)));
    }
}

//! The direct `PremiaProblem` ⇄ serialized-bytes codec against the
//! `Value` path it replaces on the hot paths: same bytes out, same
//! problem — or the same refusal — in, on what the canonical encoder
//! emits, on what it never emits, and on a hostile mutation corpus.
//! The `Value` path (`to_value` + `serialize_to_bytes`,
//! `unserialize_bytes` + `from_value`) is the oracle throughout.

use nspval::{BoolMatrix, Hash, Matrix, Serial, StrMatrix, Value};
use pricing::{MethodSpec, ModelSpec, OptionSpec, PremiaProblem};
use proptest::prelude::*;
use std::collections::HashMap;
use store::ContentFingerprint;
use xdrser::{XdrError, XdrWriter};

#[path = "common/registry.rs"]
mod registry;
use registry::registry;

/// The old decode, with its errors the way `farm::strategy` reported
/// them: a malformed problem as `Corrupt` carrying the pricing error.
fn via_value(bytes: &[u8]) -> Result<PremiaProblem, XdrError> {
    let v = xdrser::unserialize_bytes(bytes)?;
    PremiaProblem::from_value(&v).map_err(|e| XdrError::Corrupt(e.to_string()))
}

/// Both decoders on the same bytes: the same problem (compared through
/// `Debug`, so NaN parameters compare) or the same error text.
fn assert_decoders_agree(bytes: &[u8]) -> Result<PremiaProblem, String> {
    let show = |r: &Result<PremiaProblem, XdrError>| match r {
        Ok(p) => Ok(format!("{p:?}")),
        Err(e) => Err(e.to_string()),
    };
    let direct = PremiaProblem::from_xdr_bytes(bytes);
    assert_eq!(show(&via_value(bytes)), show(&direct), "{bytes:?}");
    direct.map_err(|e| e.to_string())
}

/// Spread the drawn numbers over every parameter of the problem.
fn perturb(p: &mut PremiaProblem, x: f64, y: f64, k: usize, flag: bool, seed: u64) {
    match &mut p.model {
        ModelSpec::BlackScholes(m) => (m.spot, m.sigma, m.rate, m.dividend) = (x, y, -x, y * x),
        ModelSpec::MultiBlackScholes(m) => {
            (m.dim, m.spot, m.sigma, m.rho, m.rate, m.dividend) = (k, x, y, -y, x * y, -0.0)
        }
        ModelSpec::LocalVol(m) => {
            (m.spot, m.sigma0, m.term_amp, m.term_tau) = (x, y, x + y, x - y);
            (m.skew_amp, m.skew_width, m.rate, m.dividend) = (-x, y * y, 1.0 / x, 1.0 / y);
        }
        ModelSpec::Heston(m) => {
            (m.spot, m.v0, m.kappa, m.theta) = (x, y, x + y, x - y);
            (m.xi, m.rho, m.rate, m.dividend) = (-x, y * y, 1.0 / x, 1.0 / y);
        }
        ModelSpec::Vasicek(m) => (m.r0, m.kappa, m.theta, m.sigma) = (x, y, -x, x * y),
    }
    match &mut p.option {
        OptionSpec::Call { strike, maturity }
        | OptionSpec::Put { strike, maturity }
        | OptionSpec::AmericanPut { strike, maturity }
        | OptionSpec::BasketPut { strike, maturity }
        | OptionSpec::AmericanBasketPut { strike, maturity }
        | OptionSpec::BermudanMaxCall { strike, maturity } => (*strike, *maturity) = (x, y),
        OptionSpec::DownOutCall {
            strike,
            barrier,
            maturity,
        } => (*strike, *barrier, *maturity) = (x, x - y, y),
        OptionSpec::ZeroCouponBond { maturity } => *maturity = y,
        OptionSpec::BondCall {
            strike,
            maturity,
            bond_maturity,
        } => (*strike, *maturity, *bond_maturity) = (x, y, x + y),
        OptionSpec::NettingSet { trades, maturity } => (*trades, *maturity) = (k, y),
    }
    match &mut p.method {
        MethodSpec::ClosedForm => {}
        MethodSpec::Pde {
            time_steps,
            space_steps,
        } => (*time_steps, *space_steps) = (k, k / 2),
        MethodSpec::Tree { steps } => *steps = k,
        MethodSpec::MonteCarlo {
            paths,
            time_steps,
            antithetic,
            seed: s,
        } => (*paths, *time_steps, *antithetic, *s) = (k, k % 97, flag, seed),
        MethodSpec::QuasiMonteCarlo { paths } => *paths = k,
        MethodSpec::Lsm {
            paths,
            exercise_dates,
            basis_degree,
            seed: s,
        } => (*paths, *exercise_dates, *basis_degree, *s) = (k, k % 53, k % 7, seed),
        MethodSpec::Bsde {
            paths,
            time_steps,
            rate_spread,
            picard_rounds,
            y_prev,
            seed: s,
        } => {
            (*paths, *time_steps, *rate_spread) = (k, k % 31, x);
            (*picard_rounds, *y_prev, *s) = (k % 5, y, seed);
        }
        MethodSpec::Xva {
            paths,
            time_steps,
            hazard,
            lgd,
            seed: s,
        } => (*paths, *time_steps, *hazard, *lgd, *s) = (k, k % 61, x, y, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_registry_triple_encodes_and_decodes_like_the_value_path(
        // Any bit pattern: NaNs, infinities, subnormals, signed zeros.
        x in any::<f64>(),
        y in -1e6f64..1e6,
        k in 0usize..5_000_000,
        flag in any::<bool>(),
        seed in any::<u64>(),
    ) {
        for mut p in registry() {
            perturb(&mut p, x, y, k, flag, seed);
            let bytes = p.to_xdr_bytes();
            prop_assert_eq!(&bytes, &xdrser::serialize_to_bytes(&p.to_value()), "{}", p.label());
            let back = assert_decoders_agree(&bytes);
            prop_assert!(back.is_ok(), "{}: {:?}", p.label(), back);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_registry_triple_is_keyed_by_its_bytes_and_sized_exactly(
        x in any::<f64>(),
        y in -1e6f64..1e6,
        k in 0usize..5_000_000,
        flag in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // The key `serve` takes from a problem's fields, against its
        // bytes: equal exactly when the bytes are, in both directions.
        let mut by_key: HashMap<ContentFingerprint, Vec<u8>> = HashMap::new();
        let mut by_bytes: HashMap<Vec<u8>, ContentFingerprint> = HashMap::new();
        for base in registry() {
            // The drawn numbers, and signed zeros in their place; names
            // one byte apart.
            for x in [x, 0.0, -0.0] {
                for last in ['a', 'b'] {
                    let mut p = base.clone();
                    perturb(&mut p, x, y, k, flag, seed);
                    p.asset.push(last);
                    let bytes = p.to_xdr_bytes();
                    // The same bytes, reached through a decode.
                    let q = PremiaProblem::from_xdr_bytes(&bytes).unwrap();
                    for p in [p, q] {
                        let fp = ContentFingerprint::of_fields(|f| p.write_fields(f));
                        prop_assert_eq!(fp.len, bytes.len() as u64, "{}", p.label());
                        let same_bytes = by_key.entry(fp).or_insert_with(|| bytes.clone());
                        prop_assert_eq!(&*same_bytes, &bytes, "{}: a collision", p.label());
                        let same_key = *by_bytes.entry(bytes.clone()).or_insert(fp);
                        prop_assert_eq!(same_key, fp, "{}", p.label());
                    }
                }
            }
        }
        // Names one byte apart alone make two problems of each triple.
        prop_assert!(by_key.len() >= 450 * 2);
    }
}

#[test]
fn default_registry_round_trips_and_its_bytes_are_the_parents() {
    // FNV-1a over the 450 serialized defaults, captured at the parent of
    // the commit that introduced the direct codec, from
    // `serialize_to_bytes(&p.to_value())`: saved files, memo
    // fingerprints and job frames did not move by a byte.
    let (mut fnv, mut total) = (0xcbf2_9ce4_8422_2325u64, 0);
    for p in registry() {
        let bytes = p.to_xdr_bytes();
        assert_eq!(bytes, xdrser::serialize_to_bytes(&p.to_value()));
        assert_eq!(PremiaProblem::from_xdr_bytes(&bytes).unwrap(), p);
        total += bytes.len();
        for b in bytes {
            fnv = (fnv ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!((fnv, total), (0x6793_eaf2_09d6_407e, 279_340));
}

// ---------------------------------------------------------------------------
// What the canonical encoder never emits
// ---------------------------------------------------------------------------

/// The entries of a hash value, in order.
fn entries(v: &Value) -> Vec<(String, Value)> {
    v.as_hash().unwrap().iter().cloned().collect()
}

/// Serialize a hash from its entries as given — duplicates and all,
/// which `Hash::set` cannot build.
fn hash_bytes(entries: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut w = XdrWriter::new();
    w.put_u32(5);
    w.put_u32(entries.len() as u32);
    let mut out = w.into_bytes();
    for (k, v) in entries {
        let mut w = XdrWriter::new();
        w.put_string(k);
        out.extend(w.into_bytes());
        out.extend_from_slice(v);
    }
    out
}

/// The encoding of a value without the magic/version header.
fn body(v: &Value) -> Vec<u8> {
    xdrser::serialize_to_bytes(v)[8..].to_vec()
}

/// A serialized problem whose top-level and nested entries went through
/// `edit_top` / `edit_nested` (applied to `model`, `option`, `method`).
fn rebuilt(
    p: &PremiaProblem,
    edit_top: impl Fn(&mut Vec<(String, Vec<u8>)>),
    edit_nested: impl Fn(&str, &mut Vec<(String, Vec<u8>)>),
) -> Vec<u8> {
    let mut top: Vec<(String, Vec<u8>)> = entries(&p.to_value())
        .into_iter()
        .map(|(k, v)| {
            if v.as_hash().is_none() {
                return (k, body(&v));
            }
            let mut nested = entries(&v)
                .into_iter()
                .map(|(k, v)| (k, body(&v)))
                .collect();
            edit_nested(&k, &mut nested);
            let bytes = hash_bytes(&nested);
            (k, bytes)
        })
        .collect();
    edit_top(&mut top);
    let mut out = xdrser::serialize_to_bytes(&Value::None)[..8].to_vec();
    out.extend(hash_bytes(&top));
    out
}

fn samples() -> Vec<PremiaProblem> {
    vec![
        PremiaProblem::create("BlackScholes1dim", "CallEuro", "CF").unwrap(),
        PremiaProblem::create("Heston1dim", "PutAmer", "MC_AM_LongstaffSchwartz").unwrap(),
        PremiaProblem::create("LocalVol1dim", "CallDownOut", "MC_Standard").unwrap(),
        PremiaProblem::create("Vasicek1dim", "CallBond", "MC_BSDE_LabartLelong").unwrap(),
    ]
}

fn junk_values() -> Vec<(String, Vec<u8>)> {
    let mut deep = Hash::new();
    deep.set("spot", Value::scalar(-1.0));
    deep.set(
        "inner",
        Value::list(vec![Value::Hash(Hash::new()), Value::None]),
    );
    vec![
        ("zz_scalar".into(), body(&Value::scalar(9.0))),
        (
            "zz_list".into(),
            body(&Value::list(vec![
                Value::string("x"),
                Value::list(vec![Value::scalar(1.0)]),
            ])),
        ),
        ("zz_hash".into(), body(&Value::Hash(deep))),
        (
            "zz_serial".into(),
            body(&Value::Serial(Serial::new(vec![1, 2, 3]))),
        ),
        (
            "zz_matrix".into(),
            body(&Value::Real(Matrix::range(1.0, 7.0))),
        ),
    ]
}

#[test]
fn any_key_order_decodes_the_same_problem() {
    for p in samples() {
        let reversed = rebuilt(&p, |top| top.reverse(), |_, nested| nested.reverse());
        assert_eq!(assert_decoders_agree(&reversed), Ok(p.clone()));
        let rotated = rebuilt(
            &p,
            |top| top.rotate_left(2),
            |_, nested| nested.rotate_left(1),
        );
        assert_eq!(assert_decoders_agree(&rotated), Ok(p));
    }
}

#[test]
fn unknown_keys_at_both_levels_are_passed_over() {
    for p in samples() {
        let bytes = rebuilt(
            &p,
            |top| {
                // Unknown entries before, between and after the known.
                for (i, junk) in junk_values().into_iter().enumerate() {
                    top.insert((2 * i).min(top.len()), junk);
                }
            },
            |_, nested| {
                for (i, junk) in junk_values().into_iter().enumerate() {
                    nested.insert((2 * i).min(nested.len()), junk);
                }
            },
        );
        assert_eq!(assert_decoders_agree(&bytes), Ok(p));
    }
}

#[test]
fn a_later_duplicate_key_wins_at_both_levels() {
    for p in samples() {
        let mut other = p.clone();
        perturb(&mut other, 3.5, 0.25, 1234, false, 99);
        other.asset = "somewhere".into();
        // `other`'s entries first, then `p`'s under the same keys: `p`
        // must come back; and the other way round.
        for (first, last) in [(&other, &p), (&p, &other)] {
            let firsts = rebuilt(first, |_| {}, |_, _| {});
            let first_top = entries(&first.to_value());
            let bytes = rebuilt(
                last,
                |top| {
                    let mut all: Vec<(String, Vec<u8>)> = first_top
                        .iter()
                        .map(|(k, v)| (k.clone(), body(v)))
                        .collect();
                    all.append(top);
                    *top = all;
                },
                |key, nested| {
                    let dup = first_top.iter().find(|(k, _)| k == key).unwrap();
                    let mut all: Vec<(String, Vec<u8>)> = entries(&dup.1)
                        .into_iter()
                        .map(|(k, v)| (k, body(&v)))
                        .collect();
                    all.append(nested);
                    *nested = all;
                },
            );
            assert!(bytes.len() > firsts.len());
            assert_eq!(assert_decoders_agree(&bytes), Ok(last.clone()));
        }
        // A later duplicate of another type shadows a good earlier one.
        let shadowed = rebuilt(
            &p,
            |top| top.push(("model".into(), body(&Value::scalar(1.0)))),
            |_, _| {},
        );
        assert_eq!(
            assert_decoders_agree(&shadowed),
            Err("corrupt serialized data: malformed problem: model is not a hash".into())
        );
    }
}

#[test]
fn a_forty_key_hash_is_held_not_refused() {
    for p in samples() {
        let many = |v: &mut Vec<(String, Vec<u8>)>| {
            // The known keys end up in the middle and at the very end.
            let known = std::mem::take(v);
            let (head, tail) = known.split_at(known.len() / 2);
            v.extend((0..20).map(|i| (format!("pad_a{i}"), body(&Value::scalar(i as f64)))));
            v.extend_from_slice(head);
            v.extend((0..20).map(|i| (format!("pad_b{i}"), body(&Value::string("pad")))));
            v.extend_from_slice(tail);
        };
        let bytes = rebuilt(&p, many, |_, nested| many(nested));
        assert_eq!(assert_decoders_agree(&bytes), Ok(p));
    }
}

#[test]
fn more_nested_hashes_than_a_problem_has_are_held_too() {
    let p = &samples()[1];
    let mut deep = Hash::new();
    deep.set("name", Value::string("decoy"));
    let bytes = rebuilt(
        p,
        |top| {
            for i in 0..6 {
                top.insert(i, (format!("decoy{i}"), body(&Value::Hash(deep.clone()))));
            }
        },
        |_, _| {},
    );
    assert_eq!(assert_decoders_agree(&bytes), Ok(p.clone()));
}

#[test]
fn a_matrix_where_a_scalar_is_expected_is_the_same_error() {
    let p = &samples()[2];
    let wrong_shapes: [(&str, &str, Value); 5] = [
        (
            "model",
            "spot",
            Value::Real(Matrix::col(vec![100.0, 101.0])),
        ),
        ("model", "rate", Value::empty_matrix()),
        (
            "model",
            "name",
            Value::Str(StrMatrix::row(vec!["a".into(), "b".into()])),
        ),
        (
            "method",
            "antithetic",
            Value::Bool(BoolMatrix::row(vec![true, false])),
        ),
        ("option", "strike", Value::string("100")),
    ];
    for (table, field, wrong) in wrong_shapes {
        let bytes = rebuilt(
            p,
            |_| {},
            |key, nested| {
                if key == table {
                    nested.iter_mut().find(|(k, _)| k == field).unwrap().1 = body(&wrong);
                }
            },
        );
        let err = assert_decoders_agree(&bytes).unwrap_err();
        assert!(err.contains(field), "{err}");
    }
    // At the top level, and the top level itself.
    for (field, wrong) in [
        (
            "class",
            Value::Str(StrMatrix::row(vec!["PremiaModel".into(), "x".into()])),
        ),
        ("class", Value::string("SomethingElse")),
        ("asset", Value::scalar(1.0)),
        ("option", Value::list(vec![])),
    ] {
        let bytes = rebuilt(
            p,
            |top| top.iter_mut().find(|(k, _)| k == field).unwrap().1 = body(&wrong),
            |_, _| {},
        );
        assert_decoders_agree(&bytes).unwrap_err();
    }
    let missing = rebuilt(p, |top| top.retain(|(k, _)| k != "method"), |_, _| {});
    assert_eq!(
        assert_decoders_agree(&missing),
        Err("corrupt serialized data: malformed problem: missing method".into())
    );
    for not_a_hash in [
        Value::scalar(1.0),
        Value::None,
        Value::list(vec![p.to_value()]),
    ] {
        assert_eq!(
            assert_decoders_agree(&xdrser::serialize_to_bytes(&not_a_hash)),
            Err("corrupt serialized data: malformed problem: problem is not a hash".into())
        );
    }
}

#[test]
fn a_compressed_serial_decodes_through_the_strategy_entry_point() {
    let store = store::DirStore::new();
    for p in samples() {
        let plain = Serial::new(p.to_xdr_bytes());
        let packed = xdrser::compress_serial(&plain).unwrap();
        for serial in [&plain, &packed] {
            let oracle = PremiaProblem::from_value(&xdrser::unserialize(serial).unwrap()).unwrap();
            let direct =
                farm::strategy::decode_problem(None, serial.bytes(), serial.is_compressed());
            assert_eq!(direct.unwrap(), oracle);
            let payload = Value::Serial(serial.clone());
            let recovered = farm::strategy::recover_problem(
                &store,
                farm::Transmission::SerializedLoad,
                "unused",
                Some(&payload),
            );
            assert_eq!(recovered.unwrap(), p);
        }
        // Compressed bytes read as plain, plain bytes inflated, and a
        // compressed stream cut short: typed errors from both paths.
        for (bytes, compressed) in [
            (packed.bytes(), false),
            (plain.bytes(), true),
            (&packed.bytes()[..packed.len() / 2], true),
        ] {
            let serial = if compressed {
                Serial::new_compressed(bytes.to_vec())
            } else {
                Serial::new(bytes.to_vec())
            };
            assert!(xdrser::unserialize(&serial).is_err());
            assert!(farm::strategy::decode_problem(None, bytes, compressed).is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// One step away from canonical: where the in-order read hands over
// ---------------------------------------------------------------------------

/// Where occurrence `nth` of `needle` starts in `bytes`.
fn find(bytes: &[u8], needle: &[u8], nth: usize) -> usize {
    (0..=bytes.len() - needle.len())
        .filter(|&at| bytes[at..].starts_with(needle))
        .nth(nth)
        .expect("needle present")
}

/// `bytes` with occurrence `nth` of `needle` overwritten by `with`.
fn patched(bytes: &[u8], needle: &[u8], nth: usize, with: &[u8]) -> Vec<u8> {
    assert_eq!(needle.len(), with.len());
    let at = find(bytes, needle, nth);
    let mut out = bytes.to_vec();
    out[at..at + with.len()].copy_from_slice(with);
    out
}

/// The key of a nested table as it sits in the bytes, up to the count of
/// the hash it holds: length word, padded key, hash tag.
fn table_head(key: &str) -> Vec<u8> {
    let mut w = XdrWriter::new();
    w.put_string(key);
    w.put_u32(5);
    w.into_bytes()
}

#[test]
fn every_registry_triple_one_edit_from_canonical_decodes_like_the_value_path() {
    let scalar = |x: f64| body(&Value::scalar(x));
    for p in registry() {
        // (i) Canonical: what the in-order read takes in one pass.
        let canonical = p.to_xdr_bytes();
        assert_eq!(assert_decoders_agree(&canonical), Ok(p.clone()));
        assert_eq!(canonical, rebuilt(&p, |_| {}, |_, _| {}));

        // (ii) Two entries swapped, at either level.
        let swapped = rebuilt(&p, |top| top.swap(0, 1), |_, _| {});
        assert_eq!(assert_decoders_agree(&swapped), Ok(p.clone()));
        let swapped = rebuilt(
            &p,
            |_| {},
            |_, nested| {
                let last = nested.len() - 1;
                nested.swap(0, last)
            },
        );
        assert_eq!(assert_decoders_agree(&swapped), Ok(p.clone()));

        // One entry duplicated: an earlier copy is shadowed, a later
        // copy wins.
        let shadowed = rebuilt(
            &p,
            |top| top.insert(0, ("asset".into(), body(&Value::string("shadowed")))),
            |key, nested| {
                if key == "option" {
                    nested.insert(0, ("maturity".into(), scalar(77.0)));
                }
            },
        );
        assert_eq!(assert_decoders_agree(&shadowed), Ok(p.clone()));
        let overridden = rebuilt(
            &p,
            |top| top.push(("asset".into(), body(&Value::string("later")))),
            |key, nested| {
                if key == "option" {
                    nested.push(("maturity".into(), scalar(77.0)));
                }
            },
        );
        let later = assert_decoders_agree(&overridden).unwrap();
        assert_eq!(
            (later.asset.as_str(), later.option.maturity()),
            ("later", 77.0)
        );

        // One unknown key, first, in the middle and last.
        for at in [0usize, 1, usize::MAX] {
            let extra = rebuilt(
                &p,
                |top| top.insert(at.min(top.len()), ("zz".into(), scalar(1.0))),
                |_, nested| nested.insert(at.min(nested.len()), ("zz".into(), scalar(1.0))),
            );
            assert_eq!(assert_decoders_agree(&extra), Ok(p.clone()));
        }

        // One count off by one, either way: the root's, a table's.
        for delta in [-1i32, 1] {
            let root = 5u32.to_be_bytes();
            let mut miscounted = canonical.clone();
            assert_eq!(miscounted[12..16], root);
            miscounted[12..16].copy_from_slice(&(5 + delta).to_be_bytes());
            assert!(assert_decoders_agree(&miscounted).is_err());
            for table in ["model", "option", "method"] {
                let head = table_head(table);
                let at = find(&canonical, &head, 0) + head.len();
                let count = i32::from_be_bytes(canonical[at..at + 4].try_into().unwrap());
                let mut miscounted = canonical.clone();
                miscounted[at..at + 4].copy_from_slice(&(count + delta).to_be_bytes());
                assert!(
                    assert_decoders_agree(&miscounted).is_err(),
                    "{table} {delta}"
                );
            }
        }
    }
}

#[test]
fn utf8_in_keys_and_names_short_and_long_is_judged_like_the_value_path() {
    // Shorter than a machine word, and longer than any vector register.
    let short = "clé";
    let long = "une_clé_bien_plus_longue_que_soixante_quatre_octets_pour_dépasser_tout_seuil";
    assert!(short.len() < 8 && long.len() > 64);
    for mut p in samples() {
        for text in [short, long] {
            // Non-ASCII, valid: a name the in-order read must hand to
            // the general validator, and take back.
            p.asset = text.into();
            let canonical = p.to_xdr_bytes();
            assert_eq!(assert_decoders_agree(&canonical), Ok(p.clone()));
            // An unknown non-ASCII key is passed over; a known key
            // spelt with one is a missing field.
            let extra = rebuilt(
                &p,
                |top| top.insert(2, (text.into(), body(&Value::scalar(1.0)))),
                |_, nested| nested.insert(1, (text.into(), body(&Value::string(text)))),
            );
            assert_eq!(assert_decoders_agree(&extra), Ok(p.clone()));
            let renamed = rebuilt(&p, |_| {}, |_, nested| nested[0].0 = text.into());
            let err = assert_decoders_agree(&renamed).unwrap_err();
            assert!(err.contains("missing string field name"), "{err}");

            // Invalid UTF-8 — a lone continuation byte, a truncated
            // sequence, an overlong form — in that name, in a canonical
            // key, in an unknown key and in a nested string: the same
            // refusal from both decoders.
            let ascii = "x".repeat(text.len());
            p.asset = ascii.clone();
            let canonical = p.to_xdr_bytes();
            let extra = rebuilt(
                &p,
                |top| top.push((ascii.clone(), body(&Value::scalar(1.0)))),
                |_, nested| nested.push((ascii.clone(), body(&Value::string(&ascii)))),
            );
            for bad in [&[0x80u8][..], &[0xC3], &[0xC0, 0xAF], &[0xFF]] {
                for at in [0, ascii.len() - bad.len()] {
                    let mut mangled = ascii.clone().into_bytes();
                    mangled[at..at + bad.len()].copy_from_slice(bad);
                    // The asset; then a nested unknown key, the nested
                    // string under it, and the unknown key at the top.
                    for (bytes, nth) in [(&canonical, 0), (&extra, 1), (&extra, 2), (&extra, 7)] {
                        let bytes = patched(bytes, ascii.as_bytes(), nth, &mangled);
                        let err = assert_decoders_agree(&bytes).unwrap_err();
                        assert!(err.contains("invalid UTF-8"), "{err}");
                    }
                }
                let key = patched(&canonical, b"model", 0, &[b'm', b'o', bad[0], b'e', b'l']);
                let err = assert_decoders_agree(&key).unwrap_err();
                assert!(err.contains("invalid UTF-8"), "{err}");
            }
            // The boundary itself: 0x7F is ASCII, and a name like any.
            p.asset = ascii.replace('x', "\u{7f}");
            assert_eq!(assert_decoders_agree(&p.to_xdr_bytes()), Ok(p.clone()));
        }
    }
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

#[test]
fn direct_decoder_agrees_with_the_value_path_on_a_mutation_corpus() {
    let mut bases: Vec<Vec<u8>> = samples().iter().map(|p| p.to_xdr_bytes()).collect();
    // One base the canonical encoder never emits: unknown containers to
    // skip, at both levels.
    bases.push(rebuilt(
        &samples()[0],
        |top| top.splice(1..1, junk_values()).for_each(drop),
        |_, nested| nested.splice(1..1, junk_values()).for_each(drop),
    ));
    let mut rng = 0x0DDB_1A5E_5BAD_5EEDu64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for bytes in &bases {
        assert!(assert_decoders_agree(bytes).is_ok());
        // Every truncation prefix.
        for cut in 0..bytes.len() {
            assert!(
                assert_decoders_agree(&bytes[..cut]).is_err(),
                "prefix {cut}"
            );
        }
        for _ in 0..3_000 {
            // One byte.
            let mut m = bytes.clone();
            let at = next() as usize % m.len();
            m[at] = next() as u8;
            let _ = assert_decoders_agree(&m);
            // One word — the way a wrong tag, shape, count or string
            // length reads — from small to absurd.
            let mut m = bytes.clone();
            let at = (next() as usize % (m.len() / 4)) * 4;
            let word = match next() % 5 {
                0 => 0,
                1 => u32::MAX,
                2 => next() as u32 % 8,
                3 => m.len() as u32 - at as u32,
                _ => next() as u32,
            };
            m[at..at + 4].copy_from_slice(&word.to_be_bytes());
            let _ = assert_decoders_agree(&m);
        }
    }
}

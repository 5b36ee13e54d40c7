//! The serve memo's identity: a fingerprint collision is a silently
//! wrong memoised price. These tests hold the field fingerprint to a
//! million distinct problems, to avalanche on every input bit, and to
//! probe an open-addressed map no worse than SipHash does.

use pricing::{MethodSpec, ModelSpec, OptionSpec, PremiaProblem};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use store::{ContentFingerprint, MemoHasher, MemoKey};

/// The fingerprint `serve` keys a problem by: taken from its fields, with
/// nothing serialized.
fn fingerprint(p: &PremiaProblem) -> ContentFingerprint {
    ContentFingerprint::of_fields(|f| p.write_fields(f))
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut rng = seed;
    move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    }
}

/// A draw from `[lo, hi)` the way the harness's generator makes one.
fn uniform(bits: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((bits >> 11) as f64 / (1u64 << 53) as f64)
}

/// The serve harness's never-seen problem: a closed-form vanilla call.
fn vanilla(strike: f64, maturity: f64) -> PremiaProblem {
    let mut p = PremiaProblem::create("BlackScholes1dim", "CallEuro", "CF").unwrap();
    p.option = OptionSpec::Call { strike, maturity };
    p
}

/// Fingerprint hashes of `base` edited in place by each row of `rows`,
/// the exact length checked against the serialized bytes on a sample.
fn family_hashes<R>(
    base: &PremiaProblem,
    rows: impl Iterator<Item = R>,
    edit: impl Fn(&mut PremiaProblem, R),
) -> Vec<u64> {
    let mut p = base.clone();
    rows.enumerate()
        .map(|(i, row)| {
            edit(&mut p, row);
            let fp = fingerprint(&p);
            if i % 50_000 == 0 {
                assert_eq!(fp.len, p.to_xdr_bytes().len() as u64);
            }
            fp.hash
        })
        .collect()
}

/// Strike and maturity of a vanilla call.
fn set_call(p: &mut PremiaProblem, [strike, maturity]: [f64; 2]) {
    p.option = OptionSpec::Call { strike, maturity };
}

#[test]
fn a_million_problems_apart_in_strike_maturity_or_seed_never_share_a_fingerprint() {
    let base = vanilla(100.0, 1.0);

    // Continuous draws, as `ServeTraffic` makes its cold requests.
    let mut next = xorshift(0x5EED_0F7A_FF1C);
    let draws: Vec<[f64; 2]> = (0..450_000)
        .map(|_| [uniform(next(), 70.0, 130.0), uniform(next(), 0.25, 8.0)])
        .collect();
    let mut distinct: Vec<[u64; 2]> = draws.iter().map(|d| d.map(f64::to_bits)).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), draws.len(), "the draws themselves repeat");
    let mut hashes = family_hashes(&base, draws.into_iter(), set_call);

    // A quoting grid: quarter-point strikes × daily maturities, whose
    // doubles differ in a few high mantissa bits only.
    let grid = (0..800)
        .flat_map(|i| (0..500).map(move |j| [50.0 + 0.25 * i as f64, (1 + j) as f64 / 250.0]));
    hashes.extend(family_hashes(&base, grid, set_call));

    // The registry's Monte-Carlo problem re-seeded, as the portfolio
    // generators do: consecutive integers in one double.
    let mc = PremiaProblem::create("BlackScholes1dim", "CallEuro", "MC_Standard").unwrap();
    let seed_hashes = family_hashes(&mc, 0..200_000u64, |p, s| {
        let MethodSpec::MonteCarlo { seed, .. } = &mut p.method else {
            unreachable!()
        };
        *seed = s;
    });
    assert_ne!(fingerprint(&mc).len, fingerprint(&base).len);

    // Equal hashes are a collision whatever the lengths; within one
    // length they would be equal fingerprints.
    hashes.extend(seed_hashes);
    let total = hashes.len();
    assert!(total >= 1_000_000, "{total}");
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), total, "{} collisions", total - hashes.len());
}

/// Every `f64` field of a Black–Scholes vanilla call.
fn vanilla_f64s(p: &mut PremiaProblem) -> [&mut f64; 6] {
    let (ModelSpec::BlackScholes(m), OptionSpec::Call { strike, maturity }) =
        (&mut p.model, &mut p.option)
    else {
        unreachable!("a Black–Scholes call")
    };
    [
        &mut m.spot,
        &mut m.sigma,
        &mut m.rate,
        &mut m.dividend,
        strike,
        maturity,
    ]
}

#[test]
fn one_flipped_input_bit_flips_about_half_the_fingerprint() {
    let mut next = xorshift(0x000A_7A1A_9C4E);
    let problems: Vec<PremiaProblem> = (0..16)
        .map(|_| vanilla(uniform(next(), 70.0, 130.0), uniform(next(), 0.25, 8.0)))
        .collect();
    let (mut total, mut worst) = (0u64, (32.0f64, 0usize));
    // Each bit of each f64 field.
    for bit in 0..6 * 64 {
        // Output bits moved by this input bit, over the sixteen problems.
        let mut flipped = 0;
        for p in &problems {
            let mut other = p.clone();
            let x = vanilla_f64s(&mut other).into_iter().nth(bit / 64).unwrap();
            *x = f64::from_bits(x.to_bits() ^ 1 << (bit % 64));
            flipped += (fingerprint(p).hash ^ fingerprint(&other).hash).count_ones() as u64;
        }
        total += flipped;
        let mean = flipped as f64 / problems.len() as f64;
        if (mean - 32.0).abs() > (worst.0 - 32.0).abs() {
            worst = (mean, bit);
        }
        assert!(
            (20.0..=44.0).contains(&mean),
            "input bit {bit}: {mean} of 64"
        );
    }
    let mean = total as f64 / (6 * 64 * problems.len()) as f64;
    assert!(
        (31.5..=32.5).contains(&mean),
        "{mean} of 64 on average (worst {worst:?})"
    );
}

#[test]
fn pass_through_hashing_of_traffic_keys_probes_no_longer_than_siphash() {
    const ENTRIES: usize = 4096;
    // The buckets a 4 096-entry map has at 7/8 load.
    const BUCKETS: usize = 8192;
    let mut next = xorshift(0xC0A1_E5CE);
    let keys: Vec<MemoKey> = (0..ENTRIES)
        .map(|_| {
            let p = vanilla(uniform(next(), 70.0, 130.0), uniform(next(), 0.25, 8.0));
            MemoKey {
                fp: fingerprint(&p),
                chunk: 1024,
                lanes: 4,
            }
        })
        .collect();
    // Open addressing from the low bits, as the map does: how far from
    // its home bucket each key comes to rest.
    fn displacement(hashes: &[u64]) -> (f64, usize) {
        let mut taken = vec![false; BUCKETS];
        let (mut sum, mut max) = (0, 0);
        for h in hashes {
            let home = *h as usize % BUCKETS;
            let d = (0..BUCKETS).find(|d| !taken[(home + d) % BUCKETS]).unwrap();
            taken[(home + d) % BUCKETS] = true;
            sum += d;
            max = max.max(d);
        }
        (sum as f64 / hashes.len() as f64, max)
    }
    /// χ² of seven bits of each hash against the uniform 128 cells.
    fn chi_squared(hashes: &[u64], shift: u32) -> f64 {
        let mut cells = [0f64; 128];
        for h in hashes {
            cells[(h >> shift) as usize & 127] += 1.0;
        }
        let expected = hashes.len() as f64 / 128.0;
        cells
            .iter()
            .map(|c| (c - expected).powi(2) / expected)
            .sum()
    }
    let through: Vec<u64> = keys
        .iter()
        .map(|k| BuildHasherDefault::<MemoHasher>::default().hash_one(k))
        .collect();
    let sip: Vec<u64> = keys
        .iter()
        .map(|k| BuildHasherDefault::<DefaultHasher>::default().hash_one(k.fp))
        .collect();
    let (mean, max) = displacement(&through);
    let (sip_mean, sip_max) = displacement(&sip);
    assert!(
        mean <= 1.25 * sip_mean && max <= 2 * sip_max,
        "{mean} / {max} against SipHash's {sip_mean} / {sip_max}"
    );
    // The bucket bits and the control-byte bits: 127 degrees of
    // freedom, so χ² is 127 ± 16; five deviations is not noise.
    for (what, shift) in [("low", 0), ("high", 57)] {
        let chi = chi_squared(&through, shift);
        assert!(chi < 127.0 + 5.0 * 16.0, "{what} seven bits: χ² {chi}");
    }
}

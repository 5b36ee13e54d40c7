//! Integration: the tiered problem store under the live farm.
//!
//! Every byte of problem data reaches the farm through a
//! [`ProblemStore`]; these tests prove the store layer is *correct*, not
//! just fast: cold and warm cached runs price bit-identically to direct
//! disk reads under all three transmission strategies, rewritten files
//! are revalidated (never served stale), explicit invalidation forces a
//! reload, eviction respects the byte budget, and the whole stack
//! survives fault injection under the supervised master.

use riskbench::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn setup(count: usize, tag: &str) -> (Vec<PortfolioJob>, Vec<PathBuf>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("it_problem_store_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = toy_portfolio(count);
    let files = save_portfolio(&jobs, &dir).unwrap();
    (jobs, files, dir)
}

/// Sorted `(job, price bits)` view of a report.
fn by_job(r: &FarmReport) -> Vec<(usize, u64)> {
    let mut v: Vec<(usize, u64)> = r
        .outcomes
        .iter()
        .map(|o| (o.job, o.price.to_bits()))
        .collect();
    v.sort();
    v
}

#[test]
fn cold_and_warm_cache_match_direct_disk_under_every_strategy() {
    let (_jobs, files, dir) = setup(24, "strategies");
    for strategy in Transmission::ALL {
        // Reference: direct disk reads (the default DirStore path).
        let direct = run(&files, &FarmConfig::new(2, strategy)).unwrap();
        assert_eq!(direct.completed(), 24, "{strategy}");

        // One cache shared by a cold then a warm run.
        let cache = Arc::new(CachingStore::over_dir(16 << 20));
        let cfg = FarmConfig::new(2, strategy).store(cache.clone());
        let cold = run(&files, &cfg).unwrap();
        let warm = run(&files, &cfg).unwrap();

        assert_eq!(by_job(&direct), by_job(&cold), "{strategy}: cold differs");
        assert_eq!(by_job(&direct), by_job(&warm), "{strategy}: warm differs");

        let stats = cache.stats();
        assert_eq!(stats.misses, 24, "{strategy}: every file misses once");
        assert!(stats.hits >= 24, "{strategy}: warm run must hit: {stats:?}");
        assert!(stats.hit_rate() > 0.0, "{strategy}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rewritten_problem_file_is_never_served_stale() {
    let (_jobs, files, dir) = setup(10, "rewrite");
    let cache = Arc::new(CachingStore::over_dir(16 << 20));
    let cfg = FarmConfig::new(2, Transmission::SerializedLoad).store(cache.clone());
    let before = run(&files, &cfg).unwrap();

    // Rewrite job 3's file with a *different* problem (different
    // problem → different length → the fingerprint moves).
    let replacement = PremiaProblem::create("BlackScholes1dim", "PutEuro", "CF").unwrap();
    riskbench::xdrser::save(&files[3], &replacement.to_value()).unwrap();
    let expected = replacement.compute().unwrap().price;

    let after = run(&files, &cfg).unwrap();
    let price_of = |r: &FarmReport, job: usize| {
        r.outcomes
            .iter()
            .find(|o| o.job == job)
            .map(|o| o.price)
            .unwrap()
    };
    assert_eq!(
        price_of(&after, 3).to_bits(),
        expected.to_bits(),
        "cache served the pre-rewrite problem"
    );
    // Untouched jobs still priced identically (and from cache).
    for job in (0..10).filter(|&j| j != 3) {
        assert_eq!(
            price_of(&before, job).to_bits(),
            price_of(&after, job).to_bits(),
            "job {job}"
        );
    }
    assert!(cache.stats().invalidations >= 1, "{:?}", cache.stats());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explicit_invalidation_forces_a_backend_reload() {
    let (_jobs, files, dir) = setup(6, "invalidate");
    let cache = Arc::new(CachingStore::over_dir(16 << 20));
    let cfg = FarmConfig::new(2, Transmission::SerializedLoad).store(cache.clone());
    run(&files, &cfg).unwrap();
    let misses_cold = cache.stats().misses;
    assert_eq!(misses_cold, 6);

    for f in &files {
        cache.invalidate(f);
    }
    let report = run(&files, &cfg).unwrap();
    assert_eq!(report.completed(), 6);
    let stats = cache.stats();
    assert_eq!(stats.invalidations, 6, "{stats:?}");
    assert_eq!(stats.misses, 12, "invalidated entries must re-read disk");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tight_budget_evicts_but_never_corrupts() {
    let (_jobs, files, dir) = setup(20, "evict");
    // Budget holds roughly three problem files: constant churn.
    let one = std::fs::metadata(&files[0]).unwrap().len();
    let cache = Arc::new(CachingStore::over_dir(3 * one + one / 2));
    let cfg = FarmConfig::new(2, Transmission::SerializedLoad).store(cache.clone());

    let direct = run(&files, &FarmConfig::new(2, Transmission::SerializedLoad)).unwrap();
    let squeezed = run(&files, &cfg).unwrap();
    let again = run(&files, &cfg).unwrap();

    assert_eq!(by_job(&direct), by_job(&squeezed));
    assert_eq!(by_job(&direct), by_job(&again));
    let stats = cache.stats();
    assert!(
        stats.evictions > 0,
        "budget never forced an eviction: {stats:?}"
    );
    assert!(
        stats.resident_bytes <= cache.budget(),
        "budget exceeded: {stats:?}"
    );
    assert!(stats.resident_entries <= 3, "{stats:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prefetched_run_warms_the_cache_it_shares_with_the_master() {
    let (_jobs, files, dir) = setup(12, "prefetch");
    let cache = Arc::new(CachingStore::over_dir(16 << 20));
    let cfg = FarmConfig::new(2, Transmission::SerializedLoad)
        .store(cache.clone())
        .prefetch(4);
    let direct = run(&files, &FarmConfig::new(2, Transmission::SerializedLoad)).unwrap();
    let prefetched = run(&files, &cfg).unwrap();
    assert_eq!(by_job(&direct), by_job(&prefetched));
    let stats = cache.stats();
    // Prefetcher and master may both fetch a file, but misses are
    // single-flight: one backend read per file, whatever the schedule.
    // Whether the prefetch thread ran ahead at all is the scheduler's
    // business; `store`'s prefetch tests, which wait for it, pin that.
    assert_eq!(stats.misses, 12, "{stats:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cached_store_survives_truncation_chaos_under_supervision() {
    // The store layer must not break exactly-once accounting when the
    // wire is unreliable: a seed-driven truncation plan under the
    // supervised master, with every fetch routed through a shared cache.
    let (jobs, files, dir) = setup(16, "chaos");
    let expected: Vec<f64> = jobs
        .iter()
        .map(|j| j.problem.compute().unwrap().price)
        .collect();
    let sup = SupervisorConfig {
        job_deadline: Duration::from_millis(150),
        max_attempts: 5,
        backoff_base: Duration::from_millis(2),
        poll: Duration::from_millis(10),
        slave_idle_timeout: Duration::from_millis(900),
    };
    let cache = Arc::new(CachingStore::over_dir(16 << 20));
    let plan = Arc::new(FaultPlan::new(0x5EED).with_truncate_rate(0.04));
    let report = run(
        &files,
        &FarmConfig::new(3, Transmission::SerializedLoad)
            .store(cache.clone())
            .supervisor(sup)
            .fault_plan(plan),
    )
    .unwrap();

    // Exactly-once over outcomes ∪ failed_jobs, bit-exact prices.
    let mut seen = vec![false; expected.len()];
    for o in &report.outcomes {
        assert!(!seen[o.job], "job {} twice", o.job);
        seen[o.job] = true;
        assert_eq!(
            o.price.to_bits(),
            expected[o.job].to_bits(),
            "job {} priced wrong under chaos",
            o.job
        );
    }
    for &j in &report.failed_jobs {
        assert!(!seen[j], "job {j} both done and failed");
        seen[j] = true;
    }
    assert!(seen.iter().all(|&s| s), "jobs lost under chaos");
    assert!(cache.stats().fetches > 0);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// The memo's identity: a collision is a silently wrong memoised price
// ---------------------------------------------------------------------------

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

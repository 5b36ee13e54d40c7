//! Numerical pricing methods: closed form, PDE (finite differences),
//! binomial trees, Monte-Carlo, Longstaff–Schwartz American
//! Monte-Carlo — the method families Premia ships (§2) — plus the
//! heterogeneous workload classes of the staged benchmark: BSDE Picard
//! sweeps, multi-dimensional Bermudan max-calls, and portfolio-level
//! XVA aggregation.

pub mod bermudan;
pub mod bond;
pub mod bsde;
pub mod closed_form;
pub(crate) mod heston_cf;
pub mod implied;
pub mod lsm;
pub mod montecarlo;
pub mod pde;
pub(crate) mod tree;
pub mod xva;

use exec::{stream_seed, Chunk, ExecPolicy, PathWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What a sampled kernel hands [`sample`]: its scalar path loop, its
/// `L`-wide lane body and its reduction. Neither body seeds a stream;
/// [`sample`] hands each one the stream it draws from.
pub(crate) trait Sampled: Sync {
    /// One part of the sample: a chunk's statistics or block of paths.
    type Part: Send;
    /// What the parts reduce to.
    type Out;

    /// `n` paths off `rng` in the kernel's one scalar path loop.
    fn scalar(&self, rng: &mut StdRng, n: usize, ws: &mut PathWorkspace) -> Self::Part;

    /// `n` paths, `L` per loop iteration, off `rng`; the `n % L` tail
    /// continues `rng` in the scalar path loop.
    fn lanes<const L: usize>(
        &self,
        rng: &mut StdRng,
        n: usize,
        ws: &mut PathWorkspace,
    ) -> Self::Part;

    /// The parts, in chunk order, reduced to the result.
    fn reduce(&self, parts: &[Self::Part]) -> Self::Out;
}

/// The one seeding rule of the sampled kernels: which streams `paths`
/// paths draw from, and at which lane width.
///
/// * `None`: one part, every path drawn in the scalar loop from the one
///   stream seeded with `seed`;
/// * `Some(pol)`: `pol`'s chunks, chunk `i` drawn from the stream seeded
///   with [`stream_seed`]`(seed, i)` by the scalar loop at lane width 1
///   and by the lane body at 4 or 8 — so the result is bit-identical for
///   any worker count in `pol` (`docs/PARALLEL.md`).
pub(crate) fn sample<K: Sampled>(
    k: &K,
    pol: Option<&ExecPolicy>,
    paths: usize,
    seed: u64,
) -> K::Out {
    let Some(pol) = pol else {
        let mut rng = StdRng::seed_from_u64(seed);
        let whole = k.scalar(&mut rng, paths, &mut PathWorkspace::new());
        return k.reduce(std::slice::from_ref(&whole));
    };
    let stream = |c: &Chunk| StdRng::seed_from_u64(stream_seed(seed, c.index));
    let parts = match pol.lane_width() {
        4 => pol.run_ws(paths, |c, ws| k.lanes::<4>(&mut stream(c), c.len(), ws)),
        8 => pol.run_ws(paths, |c, ws| k.lanes::<8>(&mut stream(c), c.len(), ws)),
        _ => pol.run_ws(paths, |c, ws| k.scalar(&mut stream(c), c.len(), ws)),
    };
    k.reduce(&parts)
}

//! Batch arrival processes — the `GI^X` part of the paper's `GI^X/M/1`.

use memlat_dist::{Continuous, Discrete, GapLaw, GeometricBatch, ParamError};
use rand::RngCore;

/// A stream of key *batches*: general i.i.d. inter-batch gaps and
/// geometric batch sizes.
///
/// Matches §3 of the paper: keys arriving within a tiny window (< 1 µs in
/// the Facebook measurements) are modeled as one batch whose size follows
/// `P{X = n} = q^{n-1}(1−q)`.
///
/// The process is stateful (it tracks the current clock) and consumes an
/// external RNG so multiple servers can run independent streams from
/// per-stream RNGs.
///
/// The gap law is a type parameter so the simulator's hot path can use the
/// closed [`GapLaw`] enum (static dispatch, see
/// [`BatchArrivals::next_batch_with`]) while existing callers keep the
/// `Box<dyn Continuous>` default.
///
/// # Examples
///
/// ```
/// use memlat_dist::GeneralizedPareto;
/// use memlat_workload::BatchArrivals;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), memlat_dist::ParamError> {
/// let gaps = GeneralizedPareto::facebook(0.15, 56_250.0)?;
/// let mut s = BatchArrivals::new(Box::new(gaps), 0.1)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let (t1, _) = s.next_batch(&mut rng);
/// let (t2, _) = s.next_batch(&mut rng);
/// assert!(t2 > t1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchArrivals<G: Continuous = Box<dyn Continuous>> {
    gaps: G,
    batch: GeometricBatch,
    clock: f64,
}

impl<G: Continuous> BatchArrivals<G> {
    /// Creates a batch process from an inter-batch gap law and the
    /// concurrency probability `q`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `q ∉ [0, 1)`.
    pub fn new(gaps: G, q: f64) -> Result<Self, ParamError> {
        Ok(Self {
            gaps,
            batch: GeometricBatch::new(q)?,
            clock: 0.0,
        })
    }

    /// Implied per-key arrival rate `λ = E[X]/E[T_X]`.
    #[must_use]
    pub fn key_rate(&self) -> f64 {
        self.batch.mean() / self.gaps.mean()
    }

    /// The concurrency probability `q`.
    #[must_use]
    pub fn concurrency(&self) -> f64 {
        self.batch.q()
    }

    /// Current clock (time of the last emitted batch).
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Advances the stream: returns the next batch's arrival time and its
    /// size (≥ 1).
    pub fn next_batch(&mut self, rng: &mut dyn RngCore) -> (f64, u64) {
        self.clock += self.gaps.sample(rng);
        (self.clock, self.batch.sample(rng))
    }

    /// Resets the clock to zero (the RNG is external, so this alone does
    /// not reproduce a stream).
    pub fn reset(&mut self) {
        self.clock = 0.0;
    }
}

/// Reusable lanes for the speculative block arrival pipeline
/// ([`BatchArrivals::fill_block_speculative`]): raw gap bits banked in
/// scalar draw order, their transformed gaps, and the kept batches'
/// absolute times and sizes. Holding one per worker lane (e.g. inside the
/// cluster simulator's block scratch) amortizes the allocations across a
/// whole sweep.
#[derive(Debug, Default)]
pub struct ArrivalScratch {
    /// Raw gap-draw bits, one `next_u64` per staged batch.
    gap_bits: Vec<u64>,
    /// Gaps transformed from `gap_bits` via the lane kernels.
    gaps: Vec<f64>,
    /// Absolute arrival times of the kept (pre-horizon) batches.
    times: Vec<f64>,
    /// Batch sizes, parallel to `times` after the horizon trim.
    sizes: Vec<u64>,
}

impl ArrivalScratch {
    /// Creates empty lanes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn clear(&mut self) {
        self.gap_bits.clear();
        self.gaps.clear();
        self.times.clear();
        self.sizes.clear();
    }

    /// Arrival times of the kept batches, in arrival order.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Batch sizes of the kept batches, parallel to [`Self::times`].
    #[must_use]
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Total keys across the kept batches.
    #[must_use]
    pub fn keys(&self) -> usize {
        self.sizes.iter().map(|&b| b as usize).sum()
    }
}

impl BatchArrivals<GapLaw> {
    /// [`next_batch`](Self::next_batch) through a concrete RNG type: the
    /// gap draw is a static match over [`GapLaw`] and the batch draw is
    /// the inlined geometric sampler. Bit-identical to `next_batch` with
    /// the same RNG state.
    #[inline]
    pub fn next_batch_with<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> (f64, u64) {
        self.clock += self.gaps.sample_with(rng);
        (self.clock, self.batch.sample_with(rng))
    }

    /// Streams successive batches into `visit` until it returns `false`,
    /// dispatching the gap-law variant **once for the whole run** instead
    /// of once per batch.
    ///
    /// Per-batch [`next_batch_with`](Self::next_batch_with) calls pay the
    /// enum match on every draw, which keeps the gap law's parameters out
    /// of registers — on the simulator's hot path that roughly doubles the
    /// cost of the draw itself. Hoisting the match lets the concrete
    /// sampler inline into the loop. Draw-for-draw the RNG consumption and
    /// arithmetic are identical, so a run is bit-identical to calling
    /// `next_batch_with` until `visit` declines.
    ///
    /// `visit` receives `(time, batch_size, rng)` — the RNG is handed back
    /// between draws so callers can interleave their own per-key draws in
    /// scalar stream order.
    #[inline]
    pub fn drive_batches_with<R, F>(&mut self, rng: &mut R, mut visit: F)
    where
        R: RngCore + ?Sized,
        F: FnMut(f64, u64, &mut R) -> bool,
    {
        let mut clock = self.clock;
        let batch = self.batch;
        macro_rules! drive {
            ($gaps:expr) => {{
                let gaps = $gaps;
                loop {
                    clock += gaps.sample_with(rng);
                    if !visit(clock, batch.sample_with(rng), rng) {
                        break;
                    }
                }
            }};
        }
        match &self.gaps {
            GapLaw::Exponential(d) => drive!(d),
            GapLaw::GeneralizedPareto(d) => drive!(d),
            GapLaw::Deterministic(d) => drive!(d),
            GapLaw::Erlang(d) => drive!(d),
            GapLaw::Uniform(d) => drive!(d),
            GapLaw::Hyperexponential(d) => drive!(d),
        }
        self.clock = clock;
    }

    /// Whether [`fill_block_speculative`](Self::fill_block_speculative)
    /// supports this stream's gap law (one raw `u64` per gap draw and a
    /// block bits-kernel — see [`GapLaw::has_bits_kernel`]).
    #[must_use]
    pub fn speculative_supported(&self) -> bool {
        self.gaps.has_bits_kernel()
    }

    /// Speculatively generates whole batches until at least `min_keys`
    /// keys are staged (batches are never split) or the horizon is
    /// crossed — the block reformulation of the serial `clock += gap`
    /// recurrence.
    ///
    /// Raw gap bits are banked in scalar draw order and transformed to
    /// gaps as one slice scan through the SIMD-dispatched
    /// [`GapLaw::gaps_from_bits`] kernel; absolute arrival times come
    /// from a deterministic in-block prefix sum seeded with the carried
    /// clock, so every add happens in the same order on the same values
    /// as the scalar recurrence — bit-identical by construction.
    /// `draw_keys(size, rng)` runs once per staged batch, in stream
    /// order, so callers can bank their own per-key draws; it must
    /// consume exactly `key_draws` raw `u64`s per key.
    ///
    /// The horizon boundary is handled by over-generation and a
    /// deterministic trim: when batch `k`'s time lands at or past
    /// `horizon`, batches `k..` are discarded and the RNG is rewound to
    /// the snapshot taken on entry, then fast-forwarded by exactly the
    /// draws a scalar [`next_batch_with`](Self::next_batch_with) loop
    /// would have consumed — gap and batch-size draws for the kept
    /// batches *and* the terminal crossing batch, plus `key_draws` per
    /// kept key. RNG stream position and batch counts therefore match
    /// the scalar reference exactly, which is what keeps block size
    /// invisible in the output.
    ///
    /// Returns `true` when the horizon was crossed (the stream is
    /// exhausted); the kept batches are in
    /// [`ArrivalScratch::times`]/[`ArrivalScratch::sizes`], and the clock
    /// is left exactly where the scalar loop would leave it (the crossing
    /// batch's time).
    ///
    /// # Panics
    ///
    /// Panics when the gap law has no bits kernel — gate on
    /// [`Self::speculative_supported`].
    pub fn fill_block_speculative<R, F>(
        &mut self,
        rng: &mut R,
        horizon: f64,
        min_keys: usize,
        key_draws: usize,
        scratch: &mut ArrivalScratch,
        mut draw_keys: F,
    ) -> bool
    where
        R: RngCore + Clone,
        F: FnMut(u64, &mut R),
    {
        scratch.clear();
        let snapshot = rng.clone();
        let batch = self.batch;
        // Near the horizon, staging past the crossing is pure waste (the
        // tail is discarded and its draws replayed), so cap the staged
        // batches by the expected count left before the horizon, with
        // slack for gap-law variance. The cap only shrinks the effective
        // block size — proven invisible in the output — and a short fill
        // that neither crosses nor reaches `min_keys` just means the
        // caller fills again from a closer clock.
        let mean_gap = Continuous::mean(&self.gaps);
        let remaining = (horizon - self.clock).max(0.0);
        let cap = if mean_gap > 0.0 && mean_gap.is_finite() {
            (remaining / mean_gap * 1.25) as usize + 8
        } else {
            usize::MAX
        };
        let mut staged = 0usize;
        while staged < min_keys.max(1) && scratch.sizes.len() < cap {
            scratch.gap_bits.push(rng.next_u64());
            let b = batch.sample_with(rng);
            scratch.sizes.push(b);
            draw_keys(b, rng);
            staged += b as usize;
        }
        self.gaps
            .gaps_from_bits(&scratch.gap_bits, &mut scratch.gaps);
        let mut clock = self.clock;
        let mut cut = None;
        for (i, &g) in scratch.gaps.iter().enumerate() {
            clock += g;
            if clock >= horizon {
                cut = Some(i);
                break;
            }
            scratch.times.push(clock);
        }
        self.clock = clock;
        let Some(cut) = cut else {
            return false;
        };
        scratch.sizes.truncate(cut);
        let kept_keys: usize = scratch.sizes.iter().map(|&b| b as usize).sum();
        let batch_draws = usize::from(batch.q() > 0.0);
        let replay = (cut + 1) * (1 + batch_draws) + kept_keys * key_draws;
        *rng = snapshot;
        for _ in 0..replay {
            rng.next_u64();
        }
        true
    }

    /// Generates up to `batches` batches (at least one) with gaps drawn
    /// from `gap_rng` and batch sizes from `size_rng` — one substream per
    /// purpose, each consumed strictly in batch order, so how a run is cut
    /// into calls never changes which draw a batch gets.
    ///
    /// Gaps come from the SIMD bits kernel where the law has one
    /// ([`GapLaw::gaps_from_bits`]) and from [`GapLaw::fill`] otherwise;
    /// sizes from [`GeometricBatch::fill_u64`]. Times are the in-order
    /// prefix sum off the carried clock. Batches at or past `horizon` are
    /// dropped (with their draws: nothing after the horizon is ever used)
    /// and the call returns `true` — the stream is exhausted. The kept
    /// batches are in [`ArrivalScratch::times`]/[`ArrivalScratch::sizes`].
    pub fn fill_block_lanes<R: RngCore>(
        &mut self,
        gap_rng: &mut R,
        size_rng: &mut R,
        horizon: f64,
        batches: usize,
        scratch: &mut ArrivalScratch,
    ) -> bool {
        scratch.clear();
        let n = batches.max(1);
        if self.gaps.has_bits_kernel() {
            scratch.gap_bits.extend((0..n).map(|_| gap_rng.next_u64()));
            self.gaps
                .gaps_from_bits(&scratch.gap_bits, &mut scratch.gaps);
        } else {
            scratch.gaps.resize(n, 0.0);
            self.gaps.fill(gap_rng, &mut scratch.gaps);
        }
        scratch.sizes.resize(n, 0);
        self.batch.fill_u64(size_rng, &mut scratch.sizes);
        let mut clock = self.clock;
        for &g in &scratch.gaps {
            clock += g;
            if clock >= horizon {
                break;
            }
            scratch.times.push(clock);
        }
        self.clock = clock;
        let kept = scratch.times.len();
        scratch.sizes.truncate(kept);
        kept < n
    }
}

/// Generates batches until `horizon` (exclusive), invoking `f` for each
/// `(time, batch_size)`.
///
/// Returns the number of *keys* (not batches) generated.
pub fn for_each_batch_until<G: Continuous>(
    stream: &mut BatchArrivals<G>,
    horizon: f64,
    rng: &mut dyn RngCore,
    mut f: impl FnMut(f64, u64),
) -> u64 {
    let mut keys = 0;
    loop {
        let (t, b) = stream.next_batch(rng);
        if t >= horizon {
            return keys;
        }
        keys += b;
        f(t, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlat_dist::{Deterministic, Exponential, GeneralizedPareto};
    use rand::SeedableRng;

    #[test]
    fn key_rate_accounts_for_batching() {
        let gaps = Exponential::new(900.0).unwrap();
        let s = BatchArrivals::new(Box::new(gaps), 0.1).unwrap();
        // batch rate 900, mean batch 1/0.9 ⇒ key rate 1000.
        assert!((s.key_rate() - 1000.0).abs() < 1e-9);
        assert_eq!(s.concurrency(), 0.1);
    }

    #[test]
    fn clock_is_monotone() {
        let gaps = GeneralizedPareto::facebook(0.5, 100.0).unwrap();
        let mut s = BatchArrivals::new(Box::new(gaps), 0.2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut prev = 0.0;
        for _ in 0..1000 {
            let (t, b) = s.next_batch(&mut rng);
            assert!(t > prev);
            assert!(b >= 1);
            prev = t;
        }
    }

    #[test]
    fn empirical_key_rate_matches() {
        let gaps = GeneralizedPareto::facebook(0.15, 56_250.0).unwrap();
        let mut s = BatchArrivals::new(Box::new(gaps), 0.1).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let horizon = 20.0;
        let keys = for_each_batch_until(&mut s, horizon, &mut rng, |_, _| {});
        let rate = keys as f64 / horizon;
        assert!((rate / 62_500.0 - 1.0).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn deterministic_gaps_are_even() {
        let gaps = Deterministic::new(0.5).unwrap();
        let mut s = BatchArrivals::new(Box::new(gaps), 0.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (t1, b1) = s.next_batch(&mut rng);
        let (t2, b2) = s.next_batch(&mut rng);
        assert_eq!((t1, t2), (0.5, 1.0));
        assert_eq!((b1, b2), (1, 1));
    }

    #[test]
    fn reset_clears_clock() {
        let gaps = Exponential::new(10.0).unwrap();
        let mut s = BatchArrivals::new(Box::new(gaps), 0.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        s.next_batch(&mut rng);
        assert!(s.clock() > 0.0);
        s.reset();
        assert_eq!(s.clock(), 0.0);
    }

    #[test]
    fn rejects_bad_q() {
        let gaps = Exponential::new(10.0).unwrap();
        assert!(BatchArrivals::new(Box::new(gaps), 1.0).is_err());
    }

    /// Scalar reference for the speculative driver: the exact
    /// `next_batch_with` + per-key-draw loop the block path must match.
    fn scalar_reference(
        law: &GapLaw,
        q: f64,
        horizon: f64,
        key_draws: usize,
        seed: u64,
    ) -> (Vec<(f64, u64)>, Vec<u64>, f64, u64) {
        let mut s = BatchArrivals::new(law.clone(), q).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut batches = Vec::new();
        let mut key_bits = Vec::new();
        loop {
            let (t, b) = s.next_batch_with(&mut rng);
            if t >= horizon {
                break;
            }
            batches.push((t, b));
            for _ in 0..b * key_draws as u64 {
                key_bits.push(rng.next_u64());
            }
        }
        let next = rng.next_u64();
        (batches, key_bits, s.clock(), next)
    }

    #[test]
    fn speculative_blocks_match_scalar_reference() {
        use rand::RngCore;
        let laws = [
            GapLaw::from(GeneralizedPareto::facebook(0.15, 56_250.0).unwrap()),
            GapLaw::from(GeneralizedPareto::facebook(0.0, 56_250.0).unwrap()),
            GapLaw::from(Exponential::new(56_250.0).unwrap()),
        ];
        let horizon = 0.02;
        for law in &laws {
            for &(q, key_draws) in &[(0.1, 2usize), (0.0, 1usize), (0.45, 1usize)] {
                let (want_batches, want_bits, want_clock, want_next) =
                    scalar_reference(law, q, horizon, key_draws, 99);
                for min_keys in [1usize, 37, 256, 1024] {
                    let mut s = BatchArrivals::new(law.clone(), q).unwrap();
                    assert!(s.speculative_supported());
                    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
                    let mut scratch = ArrivalScratch::new();
                    let mut batches = Vec::new();
                    let mut key_bits = Vec::new();
                    loop {
                        let crossed = s.fill_block_speculative(
                            &mut rng,
                            horizon,
                            min_keys,
                            key_draws,
                            &mut scratch,
                            |b, rng| {
                                for _ in 0..b * key_draws as u64 {
                                    key_bits.push(rng.next_u64());
                                }
                            },
                        );
                        batches.extend(
                            scratch
                                .times()
                                .iter()
                                .copied()
                                .zip(scratch.sizes().iter().copied()),
                        );
                        if crossed {
                            // Trim the speculative tail of the key draws.
                            let kept: usize = batches.iter().map(|&(_, b)| b as usize).sum();
                            key_bits.truncate(kept * key_draws);
                            break;
                        }
                    }
                    assert_eq!(batches.len(), want_batches.len(), "min_keys={min_keys}");
                    for (a, w) in batches.iter().zip(&want_batches) {
                        assert_eq!(a.0.to_bits(), w.0.to_bits(), "min_keys={min_keys}");
                        assert_eq!(a.1, w.1, "min_keys={min_keys}");
                    }
                    assert_eq!(key_bits, want_bits, "min_keys={min_keys}");
                    assert_eq!(
                        s.clock().to_bits(),
                        want_clock.to_bits(),
                        "min_keys={min_keys}"
                    );
                    assert_eq!(rng.next_u64(), want_next, "min_keys={min_keys}");
                }
            }
        }
    }

    #[test]
    fn lane_blocks_are_invisible_in_the_batch_stream() {
        use memlat_dist::Deterministic;
        let laws = [
            GapLaw::from(GeneralizedPareto::facebook(0.15, 56_250.0).unwrap()),
            GapLaw::from(Deterministic::new(2e-5).unwrap()),
        ];
        for law in &laws {
            let run = |batches: usize| {
                let mut s = BatchArrivals::new(law.clone(), 0.1).unwrap();
                let mut gaps = rand::rngs::StdRng::seed_from_u64(7);
                let mut sizes = rand::rngs::StdRng::seed_from_u64(8);
                let mut scratch = ArrivalScratch::new();
                let mut out = Vec::new();
                loop {
                    let crossed =
                        s.fill_block_lanes(&mut gaps, &mut sizes, 0.02, batches, &mut scratch);
                    out.extend(
                        scratch
                            .times()
                            .iter()
                            .zip(scratch.sizes())
                            .map(|(t, b)| (t.to_bits(), *b)),
                    );
                    if crossed {
                        return out;
                    }
                }
            };
            let want = run(1);
            assert!(want.len() > 500);
            for batches in [7, 1024, 1 << 16] {
                assert_eq!(run(batches), want, "batches={batches}");
            }
        }
    }

    #[test]
    fn gap_law_stream_matches_boxed_stream() {
        let law = GapLaw::from(GeneralizedPareto::facebook(0.15, 56_250.0).unwrap());
        let boxed: Box<dyn Continuous> = Box::new(law.clone());
        let mut fast = BatchArrivals::new(law, 0.1).unwrap();
        let mut slow = BatchArrivals::new(boxed, 0.1).unwrap();
        let mut a = rand::rngs::StdRng::seed_from_u64(5);
        let mut b = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..5_000 {
            let (t1, n1) = fast.next_batch_with(&mut a);
            let (t2, n2) = slow.next_batch(&mut b);
            assert_eq!(t1.to_bits(), t2.to_bits());
            assert_eq!(n1, n2);
        }
    }
}

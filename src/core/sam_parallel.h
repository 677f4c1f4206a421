#ifndef SKYPREF_CORE_SAM_PARALLEL_H_
#define SKYPREF_CORE_SAM_PARALLEL_H_

/// \file
/// The block-deterministic parallel Monte-Carlo engine ("Sam" over a
/// thread pool) and the world-shared batch estimator.
///
/// Three layers on top of the serial estimator of monte_carlo.h:
///
///  1. Flat sampler — the instance is the exact engine's FlatInstance,
///     flattened once per solve by internal::BuildFlatInstance: the
///     distinct (dim, value) preference variables become a dense pair
///     table and each candidate carries a CSR slice of pair ids. Each
///     pair's Bernoulli parameter is precomputed (internal::CutOracle)
///     as a 64-bit integer threshold t = p * 2^64, so the
///     inner loop decides one preference with a single
///     `NextUint64() < t` compare — no double conversion per draw.
///     (t = UINT64_MAX is reserved as the "p >= 1" sentinel: for any
///     double p < 1, p * 2^64 <= 2^64 - 2^11, so the sentinel is never
///     produced by rounding and p = 1 stays exact, matching
///     Rng::NextBernoulli at both endpoints.)
///
///  2. Block-deterministic parallelism — the m worlds split into fixed
///     blocks of MonteCarloOptions::block_size; block b draws from its
///     own Rng seeded with SplitSeed(seed, b) (a SplitMix64 round over
///     seed ^ block_index) and blocks fan out over the ThreadPool.
///     Counts reduce in block-index order, so the estimate is
///     bit-identical at 0/1/2/8 threads — the repo's established
///     reduction contract, with block_size part of the numeric
///     contract.
///
///     Truncation contract: a deadline (or the "sampler.block"
///     failpoint) truncates to a deterministic BLOCK PREFIX. Let T be
///     the first block that did not complete; blocks after T are
///     dropped even when they finished first — a completed later block
///     never leaks into the estimate, so any two runs truncating at the
///     same T agree bit for bit, and a pre-expired deadline truncates
///     at the same T at every thread count. Block 0 is special: it
///     polls the deadline at the serial engine's cadence (every 64
///     worlds / every few thousand pair draws) and keeps its partial
///     prefix, so a truncated run always carries at least
///     min(64, samples) worlds, like the serial engine. Cancellation
///     aborts the whole estimate with Status::Cancelled, as everywhere.
///
///  3. Batch Sam — BatchMonteCarloSkylineProbabilities estimates EVERY
///     object's skyline probability from ONE stream of shared worlds:
///     per world, each distinct (dim, value-pair) orientation is
///     sampled once (ternary, as in all_worlds.h, so dominance checks
///     between arbitrary objects stay mutually consistent) and all
///     targets are evaluated against it. Preprocessing reuses the batch
///     exact solver's machinery — ValuePostings-driven absorption,
///     PartitionWorkspace-recycled partitioning — and each target
///     checks its possible dominators in descending dominance-
///     probability order (Algorithm 2 line 1). The world loop is
///     bit-sliced (sam_bitslice.h): 64 worlds per chunk, each variable
///     drawn as two mutually exclusive mask words shared by every target
///     (internal::BatchChunkSurvivors, the mask walk the shared-world
///     sampler of all_worlds.h also runs). This turns the
///     O(targets x worlds x pairs) draw count of a per-target loop into
///     O(worlds x distinct pairs) plus cheap per-target mask checks;
///     the saving shows in pair_draws. Blocks parallelize exactly as in
///     layer 2, each with a private mask memo, so batch estimates are
///     also bit-identical per thread count.
///
/// Guarantee: each per-target estimate individually obeys Theorem 2
/// (it is an average of i.i.d. world indicators), so
/// HoeffdingSampleSize(epsilon, delta) worlds give each target an
/// (epsilon, delta) marginal guarantee; simultaneous coverage of all n
/// targets needs the union-bound count of AllWorldsSampleSize.

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/core/monte_carlo.h"
#include "src/core/solver.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/cancel.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace skypref {

/// Sam over \p pool with the block-deterministic engine described above.
/// Bit-identical for every thread count of \p pool (including an inline
/// 0-thread pool), per (options.seed, options.block_size). Requires
/// options.block_size >= 1; options.engine is ignored (this IS the
/// kBlock engine). \p budget is resolved at entry, as in
/// MonteCarloSkylineProbability.
Result<MonteCarloResult> BlockMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, ThreadPool& pool,
    const MonteCarloOptions& options = {}, const QueryBudget& budget = {});

/// Convenience wrapper: all objects but the target.
Result<MonteCarloResult> BlockMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const MonteCarloOptions& options = {},
    const QueryBudget& budget = {});

/// Diagnostics of one batch all-objects estimation.
struct BatchSamStats : BatchPreprocessStats {
  /// Distinct ternary (dim, value-pair) orientation variables interned —
  /// the upper bound on preference draws per world, shared by ALL
  /// targets.
  std::size_t distinct_pairs = 0;
  /// Possible dominators dropped because some required orientation has
  /// probability exactly zero (they can never dominate in any world).
  std::size_t pruned_candidates = 0;
  std::uint64_t requested_samples = 0;
  /// Worlds actually counted (the deterministic block prefix). Each
  /// estimate certifies HoeffdingEpsilon(samples, delta) marginally.
  std::uint64_t samples = 0;
  /// Ternary preference draws across all counted worlds — compare with
  /// the summed MonteCarloResult::pair_draws of a per-target loop to see
  /// the world-sharing win.
  std::uint64_t pair_draws = 0;
  bool truncated = false;
};

/// The Sam analog of BatchExactSkylineProbabilities: estimates
/// sky(target) for EVERY object by shared-world block sampling (layer 3
/// above). Element i estimates sky(i) within options.monte_carlo's
/// (epsilon, delta) marginally. Deterministic per (seed, block_size) and
/// bit-identical for every thread count of \p pool; options.budget is
/// resolved once for the whole batch, and deadline truncation keeps the
/// block-prefix estimates with stats->truncated set. The world loop is
/// always the bit-sliced one, so options.monte_carlo.block_size must be a
/// positive multiple of 64 and options.monte_carlo.engine is ignored.
/// options.exact is unused; options.preprocess toggles absorption +
/// partition exactly as in the exact batch solver.
Result<std::vector<double>> BatchMonteCarloSkylineProbabilities(
    const Dataset& data, const PreferenceModel& model, ThreadPool& pool,
    const SolverOptions& options = {}, BatchSamStats* stats = nullptr);

// -------------------------------------------------------------------------
// Implementation helpers (exposed for tests)
// -------------------------------------------------------------------------

namespace internal {

/// The integer Bernoulli cut of probability \p p: a uniform uint64 draw
/// is a success iff ThresholdHit(draw, BernoulliThreshold(p)).
/// UINT64_MAX is the "always" sentinel (p >= 1); it cannot be produced
/// by rounding a double p < 1, because p * 2^64 <= 2^64 - 2^11 then.
inline std::uint64_t BernoulliThreshold(double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(std::ldexp(p, 64));
}

inline bool ThresholdHit(std::uint64_t draw, std::uint64_t threshold) {
  return draw < threshold ||
         threshold == std::numeric_limits<std::uint64_t>::max();
}

}  // namespace internal

}  // namespace skypref

#endif  // SKYPREF_CORE_SAM_PARALLEL_H_

#ifndef SKYPREF_CORE_MONTE_CARLO_H_
#define SKYPREF_CORE_MONTE_CARLO_H_

/// \file
/// Monte-Carlo estimation of the skyline probability (Algorithm 2, "Sam").
///
/// Each iteration samples one possible world of the uncertain preferences
/// and checks whether the target is a skyline point in it; the fraction of
/// successful worlds estimates sky(O). Per Theorem 2 (Hoeffding),
/// m = ln(2/delta) / (2 epsilon^2) samples give an epsilon-approximation
/// with confidence 1 - delta, for O(d n / eps^2 * ln(1/delta)) total time.
///
/// Two details make the estimator both correct and fast:
///  * preference outcomes are sampled per VALUE PAIR, not per object, and
///    memoized within a world — candidates sharing an attribute value see
///    the same sampled orientation, which is precisely the dependence that
///    the independent-dominance shortcut of Sacharidis et al. ignores;
///  * lazy sampling with a sorted checking sequence: candidates are tested
///    in descending order of Pr(Qi < O) so that non-skyline worlds are
///    refuted after sampling as few preferences as possible.
///
/// The sampling loop is interruptible through the QueryBudget each engine
/// takes (src/util/cancel.h): unlike the exact solver's limit, deadline
/// expiry is NOT an error — the loop returns the PARTIAL result with its
/// achieved sample count and truncated = true, an estimate with a wider
/// Hoeffding bar (HoeffdingEpsilon), never a lost query — while a
/// tripped token aborts with Status::Cancelled. Both are polled every 64
/// worlds AND every few thousand pair draws (so one group with enormous
/// per-world cost cannot overshoot the limit by 64 expensive worlds); at
/// least min(64, samples) worlds are always drawn.
///
/// Three engines implement the estimator (MonteCarloOptions::Engine):
///
///  * kSerial — this file's single-stream loop, the paper's literal
///    Algorithm 2;
///  * kBlock  — the block-deterministic parallel engine of
///    src/core/sam_parallel.h: the m worlds split into fixed-size
///    blocks, each block draws from its own SplitSeed-derived stream
///    through a flattened integer-threshold sampler, and blocks reduce
///    in index order, so the estimate is bit-identical for every thread
///    count (including under deadline truncation, which drops a
///    deterministic block suffix);
///  * kBitSliced — the word-parallel engine of src/core/sam_bitslice.h:
///    64 worlds evaluated at once per 64-bit mask word, same block
///    contract as kBlock (its own stream, so estimates differ from
///    kBlock's but are equally deterministic).
///
/// Only SkylineSolver::MonteCarlo reads MonteCarloOptions::engine; every
/// other caller names its engine. Adaptive sampling and the resilient
/// ladder's sampled rung always run kBitSliced, and the all-objects
/// estimator BatchMonteCarloSkylineProbabilities (sam_parallel.h) always
/// runs the bit-sliced walk, sharing each sampled world across ALL
/// targets.

#include <cstdint>
#include <span>
#include <vector>

#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/cancel.h"
#include "src/util/status.h"

namespace skypref {

struct MonteCarloOptions {
  /// Target absolute error (Theorem 2).
  double epsilon = 0.01;
  /// Target failure probability (Theorem 2).
  double delta = 0.01;
  /// Explicit sample count; 0 derives the count from epsilon/delta via
  /// Hoeffding, which needs both finite. The paper's empirical studies
  /// use 3000 where the bound would demand 26,492. A count saturated at
  /// UINT64_MAX (epsilon around 1e-10 and below) runs only on kSerial
  /// under a budget with a deadline or time limit; otherwise it is
  /// InvalidArgument.
  std::uint64_t samples = 0;
  /// PRNG seed; a fixed seed makes runs exactly reproducible.
  std::uint64_t seed = 0x5eed5eedULL;
  /// Check candidates in descending order of dominance probability
  /// (Algorithm 2 line 1). Disabled only by the ablation bench.
  bool sort_by_dominance = true;
  /// Sample preferences on demand and abandon the world at the first
  /// dominating candidate. Disabled (= sample every relevant pair up
  /// front) only by the ablation bench.
  bool lazy = true;

  /// Which engine SkylineSolver::MonteCarlo runs; no other function
  /// reads it. Estimates are NOT bit-identical between engines (each
  /// defines its own stream); each engine is individually deterministic
  /// per seed, and the pooled ones are additionally bit-identical for
  /// every thread count of their pool.
  enum class Engine : std::uint8_t {
    kSerial,    ///< single-stream loop in this file (Algorithm 2 verbatim)
    kBlock,     ///< block-deterministic parallel engine (sam_parallel.h)
    kBitSliced, ///< 64 worlds per machine word (sam_bitslice.h); same
                ///< block-seeding contract as kBlock, different stream
  };
  Engine engine = Engine::kSerial;

  /// Worlds per block of the kBlock and kBitSliced engines. Part of the
  /// NUMERIC contract: the estimate depends on (seed, block_size) but
  /// never on the thread count. Must be >= 1 for the kBlock engine; the
  /// bit-sliced engine additionally requires a multiple of 64.
  std::uint64_t block_size = 1024;
};

struct MonteCarloResult {
  /// Y / m.
  double estimate = 0.0;
  /// Worlds actually sampled (m). Equals requested_samples unless the
  /// deadline truncated the loop.
  std::uint64_t samples = 0;
  /// Worlds the caller asked for (explicit or Hoeffding-derived).
  std::uint64_t requested_samples = 0;
  /// Worlds in which the target was a skyline point (Y).
  std::uint64_t skyline_worlds = 0;
  /// Total preference-pair draws across all worlds; the lazy strategy's
  /// win shows up here.
  std::uint64_t pair_draws = 0;
  /// True when the deadline stopped the loop before requested_samples;
  /// the estimate is still valid, at the wider HoeffdingEpsilon(samples,
  /// delta) error.
  bool truncated = false;
};

/// Sample count demanded by Hoeffding for (epsilon, delta):
/// ceil(ln(2/delta) / (2 epsilon^2)). Saturates at UINT64_MAX when the
/// bound exceeds the representable range (epsilon around 1e-10 and
/// below) — casting such a value to uint64 directly would be undefined
/// behavior, not a big number.
std::uint64_t HoeffdingSampleSize(double epsilon, double delta);

/// The inverse: the epsilon that \p samples worlds certify at confidence
/// 1 - delta, sqrt(ln(2/delta) / (2 m)) — how a truncated result's error
/// bar widens. Returns 1.0 (the vacuous bound) when samples == 0 or
/// delta is not in (0, 1).
double HoeffdingEpsilon(std::uint64_t samples, double delta);

namespace internal {

/// ceil(\p bound) as a sample count, saturating at UINT64_MAX when the
/// bound is at or beyond 2^64 or NaN. Shared by HoeffdingSampleSize and
/// AllWorldsSampleSize.
std::uint64_t SaturatingSampleCount(double bound);

}  // namespace internal

/// Estimates sky(target) against the given candidate set; \p budget is
/// resolved at entry and truncates (deadline) or cancels (token) the
/// world loop.
Result<MonteCarloResult> MonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, const MonteCarloOptions& options = {},
    const QueryBudget& budget = {});

/// Convenience wrapper: all objects but the target.
Result<MonteCarloResult> MonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    const MonteCarloOptions& options = {}, const QueryBudget& budget = {});

}  // namespace skypref

#endif  // SKYPREF_CORE_MONTE_CARLO_H_

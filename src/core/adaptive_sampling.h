#ifndef SKYPREF_CORE_ADAPTIVE_SAMPLING_H_
#define SKYPREF_CORE_ADAPTIVE_SAMPLING_H_

/// \file
/// Monte-Carlo estimation with adaptive (data-dependent) stopping.
///
/// Theorem 2's Hoeffding bound fixes the sample count in advance:
/// m = ln(2/delta) / (2 eps^2) regardless of the answer. But a Bernoulli
/// with mean near 0 or 1 has tiny variance, and the empirical Bernstein
/// inequality (Maurer & Pontil 2009; EBStop of Mnih et al. 2008) then
/// certifies the same (eps, delta) guarantee after far fewer samples:
///
///   |p_hat - p| <= sqrt(2 V_hat ln(3/delta_t) / t) + 3 ln(3/delta_t) / t
///
/// with V_hat the empirical variance. Skyline probabilities in practice
/// cluster near 0 (most objects are dominated almost surely), so the
/// adaptive stop typically saves an order of magnitude of worlds — the
/// natural upgrade of Algorithm 2, evaluated in bench_adaptive.
///
/// Each checkpoint batch draws exactly its worlds through the bit-sliced
/// engine (src/core/sam_bitslice.h; a batch that is not a multiple of 64
/// masks its last chunk's spare lanes), so batches fan out over a
/// caller-supplied ThreadPool; the poolless overloads run the same engine
/// inline and are bit-identical to the pool overloads at any thread
/// count.
///
/// Guarantee accounting: the checkpoint tests spend delta/2 via a union
/// bound over geometric checkpoints (delta_k = (delta/2) / (k (k+1))),
/// and a final fixed-size fallback at HoeffdingSampleSize(eps, delta/2)
/// spends the other delta/2, so the overall failure probability is at
/// most delta and the estimator is never asymptotically worse than the
/// fixed-size one.

#include <cstdint>
#include <span>

#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace skypref {

struct AdaptiveOptions {
  double epsilon = 0.01;
  double delta = 0.01;
  std::uint64_t seed = 0xadadadadULL;
  /// First checkpoint; later checkpoints grow geometrically (x1.5).
  std::uint64_t initial_batch = 128;
};

struct AdaptiveResult {
  double estimate = 0.0;
  /// Worlds actually sampled.
  std::uint64_t samples = 0;
  /// Certified radius at the stopping time (<= epsilon).
  double radius = 0.0;
  /// True when the Hoeffding fallback cap was hit (the bound still
  /// holds; the adaptive rule just never fired earlier).
  bool hit_cap = false;
};

/// Estimates sky(target) with |estimate - sky| <= epsilon with
/// probability at least 1 - delta, stopping as early as the empirical
/// Bernstein bound allows. Checkpoint batches run over \p pool.
Result<AdaptiveResult> AdaptiveMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, ThreadPool& pool,
    const AdaptiveOptions& options = {});

/// Convenience wrapper over \p pool: all objects but the target.
Result<AdaptiveResult> AdaptiveMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const AdaptiveOptions& options = {});

/// Poolless overload (inline execution); bit-identical to the pool
/// overload at any thread count.
Result<AdaptiveResult> AdaptiveMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, const AdaptiveOptions& options = {});

/// Poolless convenience wrapper: all objects but the target.
Result<AdaptiveResult> AdaptiveMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    const AdaptiveOptions& options = {});

}  // namespace skypref

#endif  // SKYPREF_CORE_ADAPTIVE_SAMPLING_H_

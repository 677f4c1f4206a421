#include "src/core/adaptive_sampling.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/dominance.h"
#include "src/core/monte_carlo.h"
#include "src/core/sam_bitslice.h"
#include "src/util/random.h"

namespace skypref {

namespace {

/// Empirical Bernstein confidence radius for a [0,1]-valued sample of
/// size t with empirical mean p_hat, at confidence delta_t.
double BernsteinRadius(double p_hat, std::uint64_t t, double delta_t) {
  if (t < 2) return 1.0;
  double log_term = std::log(3.0 / delta_t);
  double td = static_cast<double>(t);
  double variance = p_hat * (1.0 - p_hat) * td / (td - 1.0);
  return std::sqrt(2.0 * variance * log_term / td) + 3.0 * log_term / td;
}

}  // namespace

Result<AdaptiveResult> AdaptiveMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, ThreadPool& pool,
    const AdaptiveOptions& options) {
  // Written so NaN fails every comparison and lands here; a NaN epsilon
  // would otherwise never satisfy the stopping rule.
  if (!(options.epsilon > 0.0 && std::isfinite(options.epsilon)) ||
      !(options.delta > 0.0 && options.delta < 1.0)) {
    return Status::InvalidArgument(
        "adaptive sampling needs epsilon > 0 and delta in (0,1)");
  }
  if (options.initial_batch == 0) {
    return Status::InvalidArgument("initial batch must be positive");
  }

  // Hoeffding fallback cap at half the failure budget; the other half is
  // spent by the checkpoint union bound.
  const std::uint64_t cap =
      HoeffdingSampleSize(options.epsilon, options.delta / 2.0);

  Rng seeder(options.seed);
  MonteCarloOptions batch_options;
  std::uint64_t successes = 0;
  AdaptiveResult result;
  std::uint64_t batch = options.initial_batch;
  std::uint64_t checkpoint = 0;

  while (true) {
    ++checkpoint;
    batch_options.samples = std::min(batch, cap - result.samples);
    batch_options.seed = seeder.Fork();
    // Each checkpoint batch runs through the block-deterministic
    // bit-sliced engine: worlds fan out over the pool, and the batch's
    // estimate is bit-identical at every thread count, so the adaptive
    // stopping time is too.
    SKYPREF_ASSIGN_OR_RETURN(
        MonteCarloResult mc,
        BitSlicedMonteCarloSkylineProbability(data, target, candidates, model,
                                              pool, batch_options));
    successes += mc.skyline_worlds;
    result.samples += mc.samples;
    result.estimate =
        static_cast<double>(successes) / static_cast<double>(result.samples);

    if (result.samples >= cap) {
      result.radius = options.epsilon;  // certified by plain Hoeffding
      result.hit_cap = true;
      return result;
    }
    double delta_k = (options.delta / 2.0) /
                     (static_cast<double>(checkpoint) *
                      static_cast<double>(checkpoint + 1));
    result.radius = BernsteinRadius(result.estimate, result.samples, delta_k);
    if (result.radius <= options.epsilon) return result;
    batch += batch / 2;  // geometric checkpoints keep the union bound small
  }
}

Result<AdaptiveResult> AdaptiveMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const AdaptiveOptions& options) {
  return AdaptiveMonteCarloSkylineProbability(
      data, target, AllObjectsExcept(data.size(), target), model, pool,
      options);
}

Result<AdaptiveResult> AdaptiveMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, const AdaptiveOptions& options) {
  ThreadPool pool(0);  // inline execution, no worker threads
  return AdaptiveMonteCarloSkylineProbability(data, target, candidates, model,
                                              pool, options);
}

Result<AdaptiveResult> AdaptiveMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    const AdaptiveOptions& options) {
  ThreadPool pool(0);  // inline execution, no worker threads
  return AdaptiveMonteCarloSkylineProbability(data, target, model, pool,
                                              options);
}

}  // namespace skypref

#include "src/core/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/core/dominance.h"
#include "src/core/sam_internal.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/random.h"

namespace skypref {

namespace internal {

std::uint64_t SaturatingSampleCount(double bound) {
  const double m = std::ceil(bound);
  // A tiny epsilon (1e-12 gives m ~ 1e24) overflows uint64, and casting
  // a double at or beyond 2^64 (or NaN) is undefined behavior — saturate
  // instead. static_cast<double>(UINT64_MAX) rounds up to exactly 2^64,
  // so m below the limit is guaranteed castable.
  constexpr double kLimit =
      static_cast<double>(std::numeric_limits<std::uint64_t>::max());
  if (!(m < kLimit)) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(m);
}

}  // namespace internal

std::uint64_t HoeffdingSampleSize(double epsilon, double delta) {
  if (epsilon <= 0.0 || delta <= 0.0 || delta >= 1.0) return 0;
  return internal::SaturatingSampleCount(std::log(2.0 / delta) /
                                         (2.0 * epsilon * epsilon));
}

double HoeffdingEpsilon(std::uint64_t samples, double delta) {
  if (samples == 0 || delta <= 0.0 || delta >= 1.0) return 1.0;
  double eps = std::sqrt(std::log(2.0 / delta) /
                         (2.0 * static_cast<double>(samples)));
  return eps < 1.0 ? eps : 1.0;
}

Result<MonteCarloResult> MonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, const MonteCarloOptions& options,
    const QueryBudget& budget) {
  // The deadline bounds the loop (one adversarial group could otherwise
  // pin a worker for the full Hoeffding count); cancellation is polled at
  // the same cadence.
  SKYPREF_ASSIGN_OR_RETURN(
      internal::SamRequest request,
      internal::PrepareSamRequest(data, target, candidates, model, options,
                                  MonteCarloOptions::Engine::kSerial, budget));
  const std::uint64_t samples = request.samples;

  const internal::FlatInstance<DoubleOracle> instance =
      internal::BuildFlatInstance(data, target,
                                  std::span<const ObjectId>(request.ordered),
                                  DoubleOracle(model));
  // Every Bernoulli parameter the sampler will ever draw from is a model
  // probability; catch a broken model before it skews thousands of worlds.
  SKYPREF_DCHECK(std::all_of(instance.pair_prob.begin(),
                             instance.pair_prob.end(), IsProbability));
  internal::WorldMemo memo(instance.pair_count());
  Rng rng(options.seed);
  MonteCarloResult result;
  result.requested_samples = samples;
  std::uint64_t drawn = 0;
  // Poll cadence: every 64 worlds OR every kPairDrawPollStride pair
  // draws, whichever comes first. The world cadence alone let one group
  // with enormous per-world cost (many candidates x dimensions) overshoot
  // the deadline by 64 expensive worlds; the pair-draw stride bounds the
  // work between polls by the finer unit. Cheap worlds never reach the
  // stride between polls, preserving the historical min(64, samples)
  // floor of truncated runs.
  std::uint64_t draws_at_last_poll = 0;
  for (std::uint64_t h = 0; h < samples; ++h) {
    if (internal::SampleWorld(instance, memo, rng, options.lazy,
                              &result.pair_draws)) {
      ++result.skyline_worlds;
    }
    drawn = h + 1;
    // Poll after sampling, so a truncated run always carries at least
    // one world and the estimate is well-defined.
    if (((drawn & 63) == 0 ||
         result.pair_draws - draws_at_last_poll >=
             internal::kPairDrawPollStride) &&
        drawn < samples) {
      draws_at_last_poll = result.pair_draws;
      if (request.budget.cancelled()) return CancelledStatus();
      if (request.budget.deadline.Expired() ||
          SKYPREF_FAILPOINT("sampler.world")) {
        result.truncated = true;
        break;
      }
    }
  }
  result.samples = drawn;
  result.estimate = static_cast<double>(result.skyline_worlds) /
                    static_cast<double>(drawn);
  SKYPREF_DCHECK(result.skyline_worlds <= result.samples);
  SKYPREF_DCHECK_PROB(result.estimate);
  return result;
}

Result<MonteCarloResult> MonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    const MonteCarloOptions& options, const QueryBudget& budget) {
  return MonteCarloSkylineProbability(
      data, target, AllObjectsExcept(data.size(), target), model, options,
      budget);
}

}  // namespace skypref

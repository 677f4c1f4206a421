#include "src/core/all_worlds.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "src/core/monte_carlo.h"
#include "src/util/check.h"

namespace skypref {

std::uint64_t AllWorldsSampleSize(double epsilon, double delta,
                                  std::size_t n) {
  if (epsilon <= 0.0 || delta <= 0.0 || delta >= 1.0 || n == 0) return 0;
  return internal::SaturatingSampleCount(
      std::log(2.0 * static_cast<double>(n) / delta) /
      (2.0 * epsilon * epsilon));
}

SharedWorldSampler::SharedWorldSampler(const Dataset& data,
                                       const PreferenceModel& model)
    : plan_(internal::BuildBatchPlan(data, model, {})),
      slice_(plan_.pair_count()),
      word_(data.size(), 0),
      word_epoch_(data.size(), 0) {}

std::uint64_t SharedWorldSampler::ChunkSurvivors(ObjectId target, Rng& rng,
                                                 std::uint64_t* pair_draws) {
  // Before the first advance every stamp equals the epoch (0), so
  // without this check the call would return a zero-initialized word
  // without drawing.
  SKYPREF_CHECK(world_ != kNoWorld);
  if (word_epoch_[target] != slice_.epoch) {
    word_epoch_[target] = slice_.epoch;
    // All 64 lanes, even past the caller's last world: the words, and so
    // the draws, must not depend on how many worlds the caller wants.
    word_[target] = internal::BatchChunkSurvivors(plan_, slice_, target, rng,
                                                  ~0ULL, pair_draws);
  }
  return word_[target];
}

Result<AllWorldsResult> EstimateAllSkylineProbabilities(
    const Dataset& data, const PreferenceModel& model,
    const AllWorldsOptions& options) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
  const std::size_t n = data.size();
  std::uint64_t samples =
      options.samples != 0
          ? options.samples
          : AllWorldsSampleSize(options.epsilon, options.delta, n);
  if (samples == 0) {
    return Status::InvalidArgument(
        "all-worlds estimation needs samples > 0 (or valid epsilon/delta)");
  }
  // No partial result is ever returned, so a count no deadline lets
  // finish could only end in ResourceExhausted — or never.
  if (samples == std::numeric_limits<std::uint64_t>::max()) {
    return Status::InvalidArgument(
        "all-worlds sample count saturated (epsilon too small, or epsilon "
        "or delta NaN)");
  }

  SKYPREF_ASSIGN_OR_RETURN(const QueryBudget budget, options.budget.Resolve());

  SharedWorldSampler sampler(data, model);
  Rng rng(options.seed);
  AllWorldsResult result;
  result.samples = samples;
  std::vector<std::uint64_t> survived(n, 0);

  const std::uint64_t chunks = internal::BlockCount(samples, 64);
  for (std::uint64_t c = 0; c < chunks; ++c) {
    // One poll per chunk — a chunk touches every object 64 times over.
    SKYPREF_RETURN_IF_ERROR(CheckStop(budget.cancel, budget.deadline));
    sampler.NextChunk();
    const std::uint64_t valid = internal::ValidLanes(samples - 64 * c);
    for (ObjectId i = 0; i < n; ++i) {
      survived[i] += static_cast<std::uint64_t>(std::popcount(
          sampler.ChunkSurvivors(i, rng, &result.pair_draws) & valid));
    }
  }

  result.estimates.resize(n);
  for (ObjectId i = 0; i < n; ++i) {
    result.estimates[i] =
        static_cast<double>(survived[i]) / static_cast<double>(samples);
  }
  return result;
}

Result<std::vector<ObjectId>> ProbabilisticSkyline(
    const Dataset& data, const PreferenceModel& model, double tau,
    const AllWorldsOptions& options) {
  // Written so NaN fails the comparison and lands here.
  if (!(tau > 0.0 && tau < 1.0)) {
    return Status::InvalidArgument(
        "probabilistic skyline threshold must lie in (0,1)");
  }
  SKYPREF_ASSIGN_OR_RETURN(
      AllWorldsResult all,
      EstimateAllSkylineProbabilities(data, model, options));
  std::vector<ObjectId> skyline;
  for (ObjectId i = 0; i < all.estimates.size(); ++i) {
    if (all.estimates[i] >= tau) skyline.push_back(i);
  }
  return skyline;
}

Result<std::vector<std::pair<ObjectId, double>>> TopKSkyline(
    const Dataset& data, const PreferenceModel& model, std::size_t k,
    const AllWorldsOptions& options) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  SKYPREF_ASSIGN_OR_RETURN(
      AllWorldsResult all,
      EstimateAllSkylineProbabilities(data, model, options));
  std::vector<std::pair<ObjectId, double>> ranked;
  ranked.reserve(all.estimates.size());
  for (ObjectId i = 0; i < all.estimates.size(); ++i) {
    ranked.emplace_back(i, all.estimates[i]);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

}  // namespace skypref

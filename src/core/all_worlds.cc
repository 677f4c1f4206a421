#include "src/core/all_worlds.h"

#include <algorithm>
#include <cmath>

#include "src/core/monte_carlo.h"

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
      memo_(plan_.pair_count()) {}

bool SharedWorldSampler::Survives(ObjectId target, Rng& rng,
                                  std::uint64_t* pair_draws) {
  return internal::BatchSurvives<internal::DrawPref>(plan_, memo_, target, rng,
                                                     pair_draws);
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

  const Deadline deadline = options.deadline.has_value()
                                ? *options.deadline
                                : Deadline::After(options.time_limit_seconds);

  SharedWorldSampler sampler(data, model);
  Rng rng(options.seed);
  AllWorldsResult result;
  result.samples = samples;
  std::vector<std::uint64_t> survived(n, 0);

  for (std::uint64_t h = 0; h < samples; ++h) {
    // Poll every 64 worlds — one world touches every object, so this is
    // already a coarse-grained checkpoint; h == 0 is included so a
    // pre-cancelled token stops before any sampling work.
    if ((h & 63) == 0) {
      SKYPREF_RETURN_IF_ERROR(CheckStop(options.cancel, deadline));
    }
    sampler.NextWorld();
    for (ObjectId i = 0; i < n; ++i) {
      if (sampler.Survives(i, rng, &result.pair_draws)) ++survived[i];
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
  if (tau <= 0.0 || tau >= 1.0) {
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

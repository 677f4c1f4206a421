#include "src/core/all_worlds.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/core/monte_carlo.h"
#include "src/util/hash.h"

namespace skypref {

std::uint64_t AllWorldsSampleSize(double epsilon, double delta,
                                  std::size_t n) {
  if (epsilon <= 0.0 || delta <= 0.0 || delta >= 1.0 || n == 0) return 0;
  return internal::SaturatingSampleCount(
      std::log(2.0 * static_cast<double>(n) / delta) /
      (2.0 * epsilon * epsilon));
}

namespace {

struct PairKey {
  DimensionId dim;
  ValueId lo;
  ValueId hi;
  bool operator==(const PairKey& o) const {
    return dim == o.dim && lo == o.lo && hi == o.hi;
  }
};

struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const {
    std::size_t h = HashCombine(std::size_t{0xfeed1234}, k.dim);
    h = HashCombine(h, k.lo);
    return HashCombine(h, k.hi);
  }
};

}  // namespace

SharedWorldSampler::SharedWorldSampler(const Dataset& data,
                                       const PreferenceModel& model) {
  const DimensionId d = static_cast<DimensionId>(data.dimensions());
  const std::size_t n = data.size();
  std::unordered_map<PairKey, std::uint32_t, PairKeyHash> pair_index;
  per_target_.resize(n);
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId c = 0; c < n; ++c) {
      if (c == i) continue;
      Candidate candidate;
      candidate.dominance_probability = 1.0;
      bool possible = true;
      for (DimensionId j = 0; j < d && possible; ++j) {
        ValueId vc = data.value(c, j);
        ValueId vi = data.value(i, j);
        if (vc == vi) continue;
        ValueId lo = std::min(vc, vi);
        ValueId hi = std::max(vc, vi);
        PrefPair pair = model.GetPair(j, lo, hi);
        double toward_candidate = vc == lo ? pair.less : pair.greater;
        // Exact-zero test: Pr = 0 means the orientation can never be
        // drawn, so the candidate is pruned from the sampling plan.
        if (toward_candidate == 0.0) {  // skypref-lint: allow(float-eq)
          possible = false;
          break;
        }
        candidate.dominance_probability *= toward_candidate;
        auto [it, inserted] = pair_index.try_emplace(
            PairKey{j, lo, hi}, static_cast<std::uint32_t>(pair_less_.size()));
        if (inserted) {
          pair_less_.push_back(pair.less);
          pair_greater_.push_back(pair.greater);
        }
        candidate.requirements.push_back(
            Requirement{it->second, vc == lo ? Orientation::kLoPreferred
                                             : Orientation::kHiPreferred});
      }
      // A candidate with no differing dimension would duplicate the
      // target; Dataset::Validate guarantees that cannot happen.
      if (possible && !candidate.requirements.empty()) {
        per_target_[i].push_back(std::move(candidate));
      }
    }
    std::stable_sort(per_target_[i].begin(), per_target_[i].end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.dominance_probability >
                              b.dominance_probability;
                     });
  }
  outcome_.assign(pair_less_.size(), Orientation::kIncomparable);
  epoch_mark_.assign(pair_less_.size(), 0);
}

bool SharedWorldSampler::Survives(ObjectId target, Rng& rng,
                                  std::uint64_t* pair_draws) {
  for (const Candidate& candidate : per_target_[target]) {
    bool dominates = true;
    for (const Requirement& req : candidate.requirements) {
      if (epoch_mark_[req.pair_index] != epoch_) {
        epoch_mark_[req.pair_index] = epoch_;
        double u = rng.NextDouble();
        if (u < pair_less_[req.pair_index]) {
          outcome_[req.pair_index] = Orientation::kLoPreferred;
        } else if (u < pair_less_[req.pair_index] +
                           pair_greater_[req.pair_index]) {
          outcome_[req.pair_index] = Orientation::kHiPreferred;
        } else {
          outcome_[req.pair_index] = Orientation::kIncomparable;
        }
        ++*pair_draws;
      }
      if (outcome_[req.pair_index] != req.want) {
        dominates = false;
        break;
      }
    }
    if (dominates) return false;
  }
  return true;
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

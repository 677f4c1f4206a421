#include "src/core/bounds.h"

#include <algorithm>
#include <vector>

#include "src/core/dominance.h"
#include "src/core/lineage_dp.h"
#include "src/core/exact.h"
#include "src/core/solver.h"
#include "src/util/kahan.h"

namespace skypref {

namespace {

/// Number of terms in level k of n candidates: C(n, k), saturating.
std::uint64_t LevelTermCount(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  std::uint64_t count = 1;
  for (std::size_t i = 0; i < k; ++i) {
    if (count > (std::uint64_t{1} << 62) / (n - i)) {
      return std::uint64_t{1} << 63;  // saturate; caller compares budgets
    }
    count = count * (n - i) / (i + 1);
  }
  return count;
}

}  // namespace

Result<SkylineBounds> BoundedSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, const BoundsOptions& options) {
  SKYPREF_RETURN_IF_ERROR(ValidateCandidates(data.size(), target, candidates));

  SkylineBounds bounds;
  const std::size_t n = candidates.size();
  if (n == 0) {
    bounds.lower = bounds.upper = 1.0;
    bounds.exact = true;
    return bounds;
  }

  const internal::FlatInstance<DoubleOracle> instance =
      internal::BuildFlatInstance(data, target, candidates,
                                  DoubleOracle(model));
  internal::LevelTerms terms(instance);
  const std::size_t max_level = std::min(options.max_level, n);
  KahanSum truncated(1.0);  // 1 - S1 + S2 - ...
  for (std::size_t k = 1; k <= max_level; ++k) {
    if (options.term_budget != 0 &&
        bounds.terms_computed + LevelTermCount(n, k) > options.term_budget) {
      break;  // level would not complete; a partial level certifies nothing
    }
    KahanSum level;  // S_k
    terms.ForEach(k, [&](double joint) {
      level.Add(joint);
      ++bounds.terms_computed;
      return true;
    });
    const double level_sum = level.Value();
    truncated.Add(k % 2 == 1 ? -level_sum : level_sum);
    double value = truncated.Value();
    if (k % 2 == 1) {
      bounds.lower = std::max(bounds.lower, std::min(1.0, value));
    } else {
      bounds.upper = std::min(bounds.upper, std::max(0.0, value));
    }
    bounds.level = k;
    if (k == n) {
      // All levels computed: the truncation IS the exact value.
      double exact = std::clamp(value, 0.0, 1.0);
      bounds.lower = bounds.upper = exact;
      bounds.exact = true;
      break;
    }
    // Bonferroni bounds from different levels may cross only through
    // floating-point noise; keep the interval well-formed.
    if (bounds.lower > bounds.upper) {
      double mid = 0.5 * (bounds.lower + bounds.upper);
      bounds.lower = bounds.upper = mid;
    }
  }
  return bounds;
}

Result<SkylineBounds> BoundedSkylineProbability(const Dataset& data,
                                                ObjectId target,
                                                const PreferenceModel& model,
                                                const BoundsOptions& options) {
  std::vector<ObjectId> candidates = AllObjectsExcept(data.size(), target);
  return BoundedSkylineProbability(data, target, candidates, model, options);
}

namespace {

Result<SkylineBounds> GroupProductBounds(
    const Dataset& data, ObjectId target,
    const std::vector<std::vector<ObjectId>>& groups,
    const PreferenceModel& model, const BoundsOptions& options) {
  SkylineBounds combined;
  combined.lower = 1.0;
  combined.upper = 1.0;
  combined.exact = true;
  for (const auto& group : groups) {
    SKYPREF_ASSIGN_OR_RETURN(
        SkylineBounds group_bounds,
        BoundedSkylineProbability(data, target, group, model, options));
    combined.lower *= group_bounds.lower;
    combined.upper *= group_bounds.upper;
    combined.exact = combined.exact && group_bounds.exact;
    combined.terms_computed += group_bounds.terms_computed;
    combined.level = std::max(combined.level, group_bounds.level);
  }
  return combined;
}

}  // namespace

Result<SkylineBounds> BoundedSkylineProbabilityPreprocessed(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    const BoundsOptions& options) {
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  return GroupProductBounds(data, target,
                            CandidateGroups(data, target, /*preprocess=*/true),
                            model, options);
}

Result<bool> DecideThreshold(const Dataset& data, ObjectId target,
                             const PreferenceModel& model, double tau,
                             const BoundsOptions& options,
                             bool* used_exact_fallback) {
  if (used_exact_fallback != nullptr) *used_exact_fallback = false;
  if (!(tau >= 0.0 && tau <= 1.0)) {  // written so that NaN fails too
    return Status::InvalidArgument("threshold must lie in [0,1]");
  }
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  std::vector<std::vector<ObjectId>> groups =
      CandidateGroups(data, target, /*preprocess=*/true);

  // Escalate the bound level until the interval excludes tau.
  for (std::size_t level = 1; level <= options.max_level; ++level) {
    BoundsOptions level_options = options;
    level_options.max_level = level;
    SKYPREF_ASSIGN_OR_RETURN(
        SkylineBounds bounds,
        GroupProductBounds(data, target, groups, model, level_options));
    if (bounds.lower >= tau) return true;
    if (bounds.upper < tau) return false;
    if (bounds.exact) return bounds.lower >= tau;
  }

  // Bounds inconclusive: exact fallback, group by group. The lineage
  // engine goes first — on dense groups (many shared values) it finishes
  // where the 2^n subset walk cannot; groups it rejects (> 64 candidates
  // or state blow-up) fall through to the subset DFS.
  if (used_exact_fallback != nullptr) *used_exact_fallback = true;
  DoubleOracle oracle(model);
  double exact = 1.0;
  for (const auto& group : groups) {
    auto lineage = LineageExactSkylineProbability(data, target, group, model);
    if (lineage.ok()) {
      exact *= lineage.value();
      continue;
    }
    if (lineage.status().code() != StatusCode::kResourceExhausted) {
      return lineage.status();
    }
    SKYPREF_ASSIGN_OR_RETURN(
        double group_prob,
        ExactSkylineProbability(data, target, group, oracle));
    exact *= group_prob;
  }
  return exact >= tau;
}

}  // namespace skypref

#include "src/core/tentative_approx.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/dominance.h"
#include "src/core/exact.h"
#include "src/util/kahan.h"

namespace skypref {

Result<double> ApproxTopObjects(const Dataset& data, ObjectId target,
                                std::span<const ObjectId> candidates,
                                const PreferenceModel& model,
                                std::size_t top_t) {
  SKYPREF_RETURN_IF_ERROR(ValidateCandidates(data.size(), target, candidates));
  std::vector<std::pair<double, ObjectId>> keyed;
  keyed.reserve(candidates.size());
  for (ObjectId id : candidates) {
    keyed.emplace_back(DominanceProbability(data, id, target, model), id);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<ObjectId> top;
  top.reserve(std::min(top_t, keyed.size()));
  for (std::size_t i = 0; i < keyed.size() && i < top_t; ++i) {
    top.push_back(keyed[i].second);
  }
  return ExactSkylineProbability(data, target, top, DoubleOracle(model));
}

Result<PartialTermsResult> ApproxPartialTerms(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, std::uint64_t term_budget) {
  SKYPREF_RETURN_IF_ERROR(ValidateCandidates(data.size(), target, candidates));
  if (term_budget == 0) {
    return Status::InvalidArgument("term budget must be positive");
  }

  const internal::FlatInstance<DoubleOracle> instance =
      internal::BuildFlatInstance(data, target, candidates,
                                  DoubleOracle(model));
  internal::LevelTerms terms(instance);
  KahanSum sum(1.0);  // the k = 0 term
  PartialTermsResult result;
  for (std::size_t k = 1; k <= candidates.size(); ++k) {
    const bool complete = terms.ForEach(k, [&](double joint) {
      if (result.terms_computed == term_budget) return false;
      sum.Add((k % 2 == 1) ? -joint : joint);
      ++result.terms_computed;
      return true;
    });
    if (!complete) break;
    result.deepest_level = k;
  }
  result.estimate = sum.Value();
  return result;
}

}  // namespace skypref

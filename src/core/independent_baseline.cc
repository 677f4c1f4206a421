#include "src/core/independent_baseline.h"

#include <vector>

#include "src/core/dominance.h"

namespace skypref {

Result<double> IndependentSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model) {
  SKYPREF_RETURN_IF_ERROR(ValidateCandidates(data.size(), target, candidates));
  double product = 1.0;
  for (ObjectId id : candidates) {
    product *= 1.0 - DominanceProbability(data, id, target, model);
    // Exact-zero short-circuit: once the product underflows to 0 it can
    // never recover (all factors are in [0,1]).
    if (product == 0.0) break;  // skypref-lint: allow(float-eq)
  }
  return product;
}

Result<double> IndependentSkylineProbability(const Dataset& data,
                                             ObjectId target,
                                             const PreferenceModel& model) {
  std::vector<ObjectId> candidates = AllObjectsExcept(data.size(), target);
  return IndependentSkylineProbability(data, target, candidates, model);
}

}  // namespace skypref

#include "src/core/dominance.h"

namespace skypref {

double DominanceProbability(const Dataset& data, ObjectId candidate,
                            ObjectId target, const PreferenceModel& model) {
  return DominanceProbability(data, candidate, target, DoubleOracle(model));
}

std::vector<ObjectId> AllObjectsExcept(std::size_t n, ObjectId target) {
  std::vector<ObjectId> candidates;
  candidates.reserve(n > 0 ? n - 1 : 0);
  for (ObjectId id = 0; id < n; ++id) {
    if (id != target) candidates.push_back(id);
  }
  return candidates;
}

}  // namespace skypref

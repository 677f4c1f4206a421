#include "src/core/dominance.h"

#include <string>

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

Status ValidateCandidates(std::size_t n, ObjectId target,
                          std::span<const ObjectId> candidates) {
  if (target >= n) {
    return Status::OutOfRange("target object " + std::to_string(target) +
                              " out of range (n=" + std::to_string(n) + ")");
  }
  for (ObjectId id : candidates) {
    if (id >= n) {
      return Status::OutOfRange("candidate object " + std::to_string(id) +
                                " out of range");
    }
    if (id == target) {
      return Status::InvalidArgument(
          "candidate list must not contain the target object");
    }
  }
  return Status::OK();
}

}  // namespace skypref

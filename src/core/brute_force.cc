#include "src/core/brute_force.h"

#include "src/core/dominance.h"

namespace skypref {

Result<double> BruteForceSkylineProbability(const Dataset& data,
                                            ObjectId target,
                                            const PreferenceModel& model,
                                            const BruteForceOptions& options,
                                            BruteForceStats* stats) {
  std::vector<ObjectId> candidates = AllObjectsExcept(data.size(), target);
  return BruteForceSkylineProbability(data, target, candidates,
                                      DoubleOracle(model), options, stats);
}

}  // namespace skypref

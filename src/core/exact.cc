#include "src/core/exact.h"

#include <numeric>

#include "src/core/dominance.h"
#include "src/util/check.h"

namespace skypref {

Result<double> ExactSkylineProbability(const Dataset& data, ObjectId target,
                                       const PreferenceModel& model,
                                       const ExactOptions& options,
                                       ExactStats* stats,
                                       const QueryBudget& budget) {
  std::vector<ObjectId> candidates = AllObjectsExcept(data.size(), target);
  SKYPREF_ASSIGN_OR_RETURN(
      double result,
      ExactSkylineProbability(data, target, candidates, DoubleOracle(model),
                              options, stats, budget));
  // The inclusion-exclusion sum of Eq. 4 is a probability; compensated
  // summation keeps rounding drift below kProbEpsilon, so anything worse
  // is a solver bug, not noise.
  SKYPREF_DCHECK_PROB(result);
  return ClampProbability(result);
}

}  // namespace skypref

#include "src/core/prob_skyline.h"

namespace skypref {

Result<std::vector<ObjectId>> ExactProbabilisticSkyline(
    const Dataset& data, const PreferenceModel& model, double tau,
    const BoundsOptions& options, ProbSkylineStats* stats) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
  // Written so NaN fails the comparison and lands here.
  if (!(tau > 0.0 && tau <= 1.0)) {
    return Status::InvalidArgument(
        "probabilistic skyline threshold must lie in (0,1]");
  }
  ProbSkylineStats local;
  std::vector<ObjectId> skyline;
  for (ObjectId target = 0; target < data.size(); ++target) {
    bool used_exact = false;
    SKYPREF_ASSIGN_OR_RETURN(
        bool above,
        DecideThreshold(data, target, model, tau, options, &used_exact));
    if (used_exact) {
      ++local.exact_fallbacks;
    } else {
      ++local.decided_by_bounds;
    }
    if (above) skyline.push_back(target);
  }
  if (stats != nullptr) *stats = local;
  return skyline;
}

}  // namespace skypref

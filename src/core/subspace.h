#ifndef SKYPREF_CORE_SUBSPACE_H_
#define SKYPREF_CORE_SUBSPACE_H_

/// \file
/// Subspace skyline probabilities and the probabilistic skycube.
///
/// The skycube (Yuan et al., VLDB 2005 — cited by the paper as a skyline
/// variation) asks for the skyline in every non-empty subspace of the
/// dimensions; its probabilistic analogue under uncertain preferences
/// asks for sky_S(O) for every subspace S: the probability that no
/// object dominates O when only the dimensions in S are compared.
///
/// One subtlety separates a subspace solve from simply projecting the
/// data: after projection two distinct objects can coincide. A candidate
/// whose projection EQUALS the target's can never dominate it (nothing
/// is strictly preferred), so it must be excluded — whereas the solvers'
/// Eq. 6 machinery would assign its dominance event the empty product 1.
/// Coinciding candidate projections, on the other hand, are handled
/// correctly for free: identical value sets collapse in V_I^j, so their
/// (identical) dominance events are never double-counted.

#include <cstdint>
#include <vector>

#include "src/core/exact.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/cancel.h"
#include "src/util/status.h"

namespace skypref {

/// A set of dimensions as a bitmask (bit j = dimension j). Must be
/// non-zero and within the dataset's dimensionality.
using SubspaceMask = std::uint32_t;

/// Exact sky of \p target within subspace \p mask (Det+ machinery:
/// absorption + partition run on the projected instance). As in
/// SkylineSolver::Exact, \p budget bounds the whole call (one deadline
/// shared by every group solve), while options.max_subsets still bounds
/// each group solve.
Result<double> SubspaceSkylineProbability(const Dataset& data,
                                          ObjectId target, SubspaceMask mask,
                                          const PreferenceModel& model,
                                          const ExactOptions& options = {},
                                          const QueryBudget& budget = {});

/// One cell of the probabilistic skycube.
struct SkycubeCell {
  SubspaceMask mask = 0;
  std::size_t dimensions = 0;  ///< popcount of mask
  double probability = 0.0;
};

/// sky_S(target) for every non-empty subspace S, ordered by (popcount,
/// mask). Requires d <= 20 (2^d - 1 cells). Cost: one Det+ solve per
/// cell. \p budget bounds the whole call — one deadline for all cells —
/// while options.max_subsets bounds each group of each cell.
Result<std::vector<SkycubeCell>> ProbabilisticSkycube(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    const ExactOptions& options = {}, const QueryBudget& budget = {});

}  // namespace skypref

#endif  // SKYPREF_CORE_SUBSPACE_H_

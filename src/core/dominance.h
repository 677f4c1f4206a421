#ifndef SKYPREF_CORE_DOMINANCE_H_
#define SKYPREF_CORE_DOMINANCE_H_

/// \file
/// Dominance probability of one object over another (Eq. 2).
///
/// With no duplicate objects and independent per-dimension preferences,
///
///     Pr(Q < O) = prod_j Pr(Q.j <= O.j)
///
/// where the factor is 1 on dimensions sharing the same value; the "at
/// least one strictly preferred dimension" requirement is implied because
/// distinct objects differ somewhere and distinct values are never equal.

#include <cstddef>
#include <span>
#include <vector>

#include "src/core/oracles.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/status.h"

namespace skypref {

/// Pr(Q_candidate dominates Q_target), numeric-generic.
template <typename Oracle>
typename Oracle::NumType DominanceProbability(const Dataset& data,
                                              ObjectId candidate,
                                              ObjectId target,
                                              const Oracle& oracle) {
  using Num = typename Oracle::NumType;
  Num product(1);
  std::span<const ValueId> q = data.object(candidate);
  std::span<const ValueId> o = data.object(target);
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    if (q[j] == o[j]) continue;  // Pr(v <= v) = 1
    product = product * oracle.LessEq(j, q[j], o[j]);
    if (product == Num(0)) break;
  }
  return product;
}

/// Convenience double-precision overload.
double DominanceProbability(const Dataset& data, ObjectId candidate,
                            ObjectId target, const PreferenceModel& model);

/// Every object id in [0, n) except \p target, ascending: the full
/// candidate set of a single-target query before preprocessing.
std::vector<ObjectId> AllObjectsExcept(std::size_t n, ObjectId target);

/// The input check of every single-target solver over an explicit
/// candidate list: OutOfRange unless \p target < n and every candidate
/// is < n; InvalidArgument when a candidate is the target itself.
Status ValidateCandidates(std::size_t n, ObjectId target,
                          std::span<const ObjectId> candidates);

}  // namespace skypref

#endif  // SKYPREF_CORE_DOMINANCE_H_

#include "src/core/subspace.h"

#include <bit>

#include "src/core/absorption.h"
#include "src/core/partition.h"

namespace skypref {

namespace {

/// Presents a projected dimension index as the original dimension to the
/// wrapped model, so per-dimension preferences carry over unchanged.
class ProjectedPreferenceModel : public PreferenceModel {
 public:
  ProjectedPreferenceModel(const PreferenceModel& base,
                           std::vector<DimensionId> original_dims)
      : base_(&base), original_dims_(std::move(original_dims)) {}

  PrefPair GetPair(DimensionId dim, ValueId a, ValueId b) const override {
    return base_->GetPair(original_dims_[dim], a, b);
  }

 private:
  const PreferenceModel* base_;
  std::vector<DimensionId> original_dims_;
};

}  // namespace

Result<double> SubspaceSkylineProbability(const Dataset& data,
                                          ObjectId target, SubspaceMask mask,
                                          const PreferenceModel& model,
                                          const ExactOptions& options,
                                          const QueryBudget& budget) {
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  if (mask == 0) {
    return Status::InvalidArgument("subspace mask must be non-empty");
  }
  if (data.dimensions() > 32 ||
      (mask >> data.dimensions()) != 0) {
    return Status::InvalidArgument(
        "subspace mask references dimensions beyond the dataset");
  }
  SKYPREF_ASSIGN_OR_RETURN(const QueryBudget resolved, budget.Resolve());

  std::vector<DimensionId> dims;
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    if (mask & (SubspaceMask{1} << j)) dims.push_back(j);
  }

  // Projected instance: target first, then every candidate whose
  // projection differs from the target's (equal projections can never
  // dominate — there is no strictly preferred dimension).
  Dataset projected(dims.size());
  std::vector<ValueId> row(dims.size());
  for (std::size_t k = 0; k < dims.size(); ++k) {
    row[k] = data.value(target, dims[k]);
  }
  SKYPREF_RETURN_IF_ERROR(projected.Append(row));
  for (ObjectId id = 0; id < data.size(); ++id) {
    if (id == target) continue;
    bool equal = true;
    for (std::size_t k = 0; k < dims.size(); ++k) {
      row[k] = data.value(id, dims[k]);
      equal = equal && row[k] == data.value(target, dims[k]);
    }
    if (equal) continue;
    SKYPREF_RETURN_IF_ERROR(projected.Append(row));
  }

  std::vector<ObjectId> candidates;
  candidates.reserve(projected.size() - 1);
  for (ObjectId id = 1; id < projected.size(); ++id) candidates.push_back(id);

  // Det+ on the projected instance. Coinciding candidate projections are
  // deduplicated by absorption (identical rows absorb one another). ONE
  // deadline bounds every group solve, as in SkylineSolver::Exact.
  ProjectedPreferenceModel projected_model(model, dims);
  candidates = AbsorbCandidates(projected, 0, candidates);
  DoubleOracle oracle(projected_model);
  double product = 1.0;
  for (const auto& group : PartitionCandidates(projected, 0, candidates)) {
    SKYPREF_ASSIGN_OR_RETURN(
        double survival,
        ExactSkylineProbability(projected, 0, group, oracle, options,
                                /*stats=*/nullptr, resolved));
    product *= survival;
  }
  return product;
}

Result<std::vector<SkycubeCell>> ProbabilisticSkycube(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    const ExactOptions& options, const QueryBudget& budget) {
  if (data.dimensions() > 20) {
    return Status::ResourceExhausted(
        "skycube over more than 20 dimensions is not supported (2^d cells)");
  }
  // ONE deadline for every cell: each cell's solve re-resolves the
  // resolved budget, which keeps it.
  SKYPREF_ASSIGN_OR_RETURN(const QueryBudget resolved, budget.Resolve());
  const SubspaceMask full =
      static_cast<SubspaceMask>((std::uint64_t{1} << data.dimensions()) - 1);
  std::vector<SkycubeCell> cells;
  cells.reserve(full);
  for (SubspaceMask mask = 1; mask <= full; ++mask) {
    SkycubeCell cell;
    cell.mask = mask;
    cell.dimensions = static_cast<std::size_t>(std::popcount(mask));
    SKYPREF_ASSIGN_OR_RETURN(
        cell.probability,
        SubspaceSkylineProbability(data, target, mask, model, options,
                                   resolved));
    cells.push_back(cell);
  }
  std::stable_sort(cells.begin(), cells.end(),
                   [](const SkycubeCell& a, const SkycubeCell& b) {
                     return a.dimensions < b.dimensions;
                   });
  return cells;
}

}  // namespace skypref

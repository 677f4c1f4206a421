#include "src/core/subspace.h"

#include <chrono>

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::ManyGroupsDataset;
using skypref::testing::RandomSmallDataset;

TEST(SubspaceTest, FullMaskEqualsFullSpaceSolve) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  EXPECT_DOUBLE_EQ(
      SubspaceSkylineProbability(data, 0, 0b11, model).value(), 3.0 / 16.0);
}

TEST(SubspaceTest, SingleDimensionSubspacesOfExample1) {
  // Dimension 0 values vs O's 0: candidates carry {1, 1, 2, 0}; the
  // candidate equal to O (Q4 on dim 0) is excluded; the rest dominate O
  // iff their value is preferred. Survivors after dedup: {1, 2}.
  // sky = (1-1/2)(1-1/2) = 1/4; same by symmetry on dimension 1.
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  EXPECT_DOUBLE_EQ(SubspaceSkylineProbability(data, 0, 0b01, model).value(),
                   0.25);
  EXPECT_DOUBLE_EQ(SubspaceSkylineProbability(data, 0, 0b10, model).value(),
                   0.25);
}

TEST(SubspaceTest, EqualProjectionNeverDominates) {
  // In subspace {dim0}, a candidate equal to the target on dim0 must be
  // ignored even though it differs elsewhere.
  Dataset data(2);
  data.Append({0, 0}).CheckOK();  // target
  data.Append({0, 1}).CheckOK();  // equal on dim 0
  TablePreferenceModel model;
  EXPECT_DOUBLE_EQ(SubspaceSkylineProbability(data, 0, 0b01, model).value(),
                   1.0);
  // ... but counts fully in subspace {dim1}.
  EXPECT_DOUBLE_EQ(SubspaceSkylineProbability(data, 0, 0b10, model).value(),
                   0.5);
}

TEST(SubspaceTest, CoincidingCandidateProjectionsCollapse) {
  // Two candidates that coincide after projecting to dim0 describe the
  // SAME dominance event; the probability must not be double-counted.
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  data.Append({1, 1}).CheckOK();
  data.Append({1, 2}).CheckOK();  // same dim0 projection as the previous
  TablePreferenceModel model;
  EXPECT_DOUBLE_EQ(SubspaceSkylineProbability(data, 0, 0b01, model).value(),
                   0.5);  // one event of probability 1/2, not (1/2)^2
}

TEST(SubspaceTest, MatchesBruteForceOnProjections) {
  for (std::uint64_t seed = 961; seed < 971; ++seed) {
    Dataset data = RandomSmallDataset(seed, 9, 3, 3);
    TablePreferenceModel model;
    for (SubspaceMask mask = 1; mask < 8; ++mask) {
      // Reference: manual projection + brute force with equal-projection
      // candidates excluded.
      std::vector<DimensionId> dims;
      for (DimensionId j = 0; j < 3; ++j) {
        if (mask & (1u << j)) dims.push_back(j);
      }
      Dataset projected(dims.size());
      std::vector<ValueId> row(dims.size());
      for (std::size_t k = 0; k < dims.size(); ++k) {
        row[k] = data.value(0, dims[k]);
      }
      projected.Append(row).CheckOK();
      std::vector<ObjectId> candidates;
      for (ObjectId id = 1; id < data.size(); ++id) {
        bool equal = true;
        for (std::size_t k = 0; k < dims.size(); ++k) {
          row[k] = data.value(id, dims[k]);
          equal = equal && row[k] == data.value(0, dims[k]);
        }
        if (equal) continue;
        projected.Append(row).CheckOK();
        candidates.push_back(projected.size() - 1);
      }
      TablePreferenceModel projected_model;
      for (std::size_t k = 0; k < dims.size(); ++k) {
        for (ValueId a = 0; a < 3; ++a) {
          for (ValueId b = a + 1; b < 3; ++b) {
            PrefPair pair = model.GetPair(dims[k], a, b);
            projected_model
                .Set(static_cast<DimensionId>(k), a, b, pair.less,
                     pair.greater)
                .CheckOK();
          }
        }
      }
      double reference =
          BruteForceSkylineProbability(projected, 0, candidates,
                                       DoubleOracle(projected_model))
              .value();
      double subspace =
          SubspaceSkylineProbability(data, 0, mask, model).value();
      EXPECT_NEAR(subspace, reference, 1e-12)
          << "seed=" << seed << " mask=" << mask;
    }
  }
}

TEST(SkycubeTest, EnumeratesAllSubspacesOrderedByDimension) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto cells = ProbabilisticSkycube(data, 0, model).value();
  ASSERT_EQ(cells.size(), 3u);  // 2^2 - 1
  EXPECT_EQ(cells[0].dimensions, 1u);
  EXPECT_EQ(cells[1].dimensions, 1u);
  EXPECT_EQ(cells[2].dimensions, 2u);
  EXPECT_DOUBLE_EQ(cells[2].probability, 3.0 / 16.0);
}

// One deadline per call, as in SkylineSolver::Exact: 32 groups whose DFS
// (2^20 subsets, about 20 ms each on a 2020s x86-64 core) finishes inside
// the limit on its own, but not all of them together.
TEST(SubspaceTest, TimeLimitBoundsTheWholeCall) {
  Dataset data = ManyGroupsDataset(32, 20);
  TablePreferenceModel model;
  QueryBudget budget;
  budget.time_limit_seconds = 0.05;
  const auto start = std::chrono::steady_clock::now();
  auto run = SubspaceSkylineProbability(data, 0, 0b11, model, {}, budget);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(elapsed.count(), 0.5);
}

TEST(SkycubeTest, InvalidArguments) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  EXPECT_EQ(SubspaceSkylineProbability(data, 0, 0, model).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SubspaceSkylineProbability(data, 0, 0b100, model).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SubspaceSkylineProbability(data, 9, 1, model).status().code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace skypref

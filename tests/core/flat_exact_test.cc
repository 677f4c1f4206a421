/// The flattened Det hot path on fixed instances: goldens, the flat
/// instance's pair interning, and the budget and deadline exits.
///
/// FlatExactEngine is the only Det DFS. Its values are checked against
/// possible-world enumeration bit-exactly in rational arithmetic by
/// property_test (RandomInstanceTest.ExactEqualsBruteForceBitExactly) and
/// against ExactSkylineProbabilityRational by hotpath_property_test.

#include "src/core/exact.h"

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/parallel.h"
#include "src/core/solver.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::RandomSmallDataset;
using skypref::testing::UnanimousHalfRational;

std::vector<ObjectId> AllBut(const Dataset& data, ObjectId target) {
  std::vector<ObjectId> ids;
  for (ObjectId i = 0; i < data.size(); ++i) {
    if (i != target) ids.push_back(i);
  }
  return ids;
}

TEST(FlatExactTest, GoldenExample1) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  EXPECT_DOUBLE_EQ(ExactSkylineProbability(data, 0, model).value(),
                   3.0 / 16.0);
}

TEST(FlatExactTest, EmptyCandidateListIsCertainSkyline) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  DoubleOracle oracle(model);
  std::vector<ObjectId> empty;
  ExactStats stats;
  auto result = ExactSkylineProbability(data, 0, empty, oracle, {}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value(), 1.0);
  EXPECT_EQ(stats.subsets_visited, 0u);
}

// Both DFS engines over one flattened instance: the serial walk and the
// intra-group parallel one (parallel.h), which charges a shared budget.
TEST(FlatExactTest, SubsetBudgetTripsBothEngines) {
  Dataset data = RandomSmallDataset(5, 10, 2, 4);
  TablePreferenceModel model;
  ExactOptions tight;
  tight.max_subsets = 3;
  EXPECT_EQ(ExactSkylineProbability(data, 0, model, tight).status().code(),
            StatusCode::kResourceExhausted);
  std::vector<ObjectId> candidates = AllBut(data, 0);
  internal::FlatInstance<DoubleOracle> instance = internal::BuildFlatInstance(
      data, 0, std::span<const ObjectId>(candidates), DoubleOracle(model));
  internal::ParallelExactEngine<DoubleOracle> parallel(instance, tight, 4);
  ThreadPool pool(2);
  EXPECT_EQ(parallel.Run(pool).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(FlatExactTest, PreExpiredSharedDeadlineAborts) {
  // The deadline is polled every 4096 visits, so the instance must be
  // big enough to reach a poll: 14 objects = 13 candidates = 8191 visits
  // under unanimous preferences (no zero factors to prune).
  Dataset data = RandomSmallDataset(31, 14, 3, 4);
  TablePreferenceModel model;
  QueryBudget expired;
  expired.deadline =
      Deadline::At(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_EQ(ExactSkylineProbability(data, 0, model, {}, nullptr, expired)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(FlatExactTest, FlatInstanceDeduplicatesSharedPairs) {
  // Example 1: candidates Q1..Q4 contribute values (1,1), (1,0), (2,2),
  // (0,1) against target (0,0) — seven differing slots but only five
  // distinct (dim, value) factors (dim0:1, dim1:1, dim0:2, dim1:2).
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  DoubleOracle oracle(model);
  std::vector<ObjectId> candidates = AllBut(data, 0);
  internal::FlatInstance<DoubleOracle> instance =
      internal::BuildFlatInstance(data, 0,
                                  std::span<const ObjectId>(candidates),
                                  oracle);
  EXPECT_EQ(instance.candidate_count(), 4u);
  EXPECT_EQ(instance.pair_count(), 4u);
  EXPECT_EQ(instance.pair_ids.size(), 6u);  // Q1:2, Q2:1, Q3:2, Q4:1
}

TEST(FlatExactTest, RationalGoldenOnExample1) {
  Dataset data = Example1Dataset();
  RationalPreferenceModel model = UnanimousHalfRational(data);
  RationalOracle oracle(model);
  std::vector<ObjectId> candidates = AllBut(data, 0);
  Rational sky =
      ExactSkylineProbability(data, 0, candidates, oracle).value();
  EXPECT_EQ(sky, Rational(BigInt(3), BigInt(16)));
}

}  // namespace
}  // namespace skypref

#include "src/core/tentative_approx.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/exact.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::RandomSmallDataset;

std::vector<ObjectId> AllBut(const Dataset& data, ObjectId target) {
  std::vector<ObjectId> ids;
  for (ObjectId i = 0; i < data.size(); ++i) {
    if (i != target) ids.push_back(i);
  }
  return ids;
}

TEST(ApproxTopObjectsTest, FullBudgetEqualsExact) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  double approx =
      ApproxTopObjects(data, 0, AllBut(data, 0), model, 4).value();
  EXPECT_DOUBLE_EQ(approx, 3.0 / 16.0);
}

TEST(ApproxTopObjectsTest, ZeroBudgetGivesOne) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  EXPECT_DOUBLE_EQ(
      ApproxTopObjects(data, 0, AllBut(data, 0), model, 0).value(), 1.0);
}

TEST(ApproxTopObjectsTest, PicksTheMostThreateningCandidates) {
  // With t=2 the top objects are Q2 and Q4 (Pr(e)=1/2 each);
  // sky over {Q2,Q4} = (1-1/2)(1-1/2) = 1/4 (they are independent).
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  double approx =
      ApproxTopObjects(data, 0, AllBut(data, 0), model, 2).value();
  EXPECT_DOUBLE_EQ(approx, 0.25);
}

TEST(ApproxTopObjectsTest, ErrorShrinksWithBudget) {
  Dataset data = RandomSmallDataset(21, 14, 3, 4);
  TablePreferenceModel model;
  double truth = ExactSkylineProbability(data, 0, model).value();
  std::vector<ObjectId> candidates = AllBut(data, 0);
  double error_small = std::abs(
      ApproxTopObjects(data, 0, candidates, model, 2).value() - truth);
  double error_full = std::abs(
      ApproxTopObjects(data, 0, candidates, model, candidates.size()).value() -
      truth);
  EXPECT_LE(error_full, error_small + 1e-12);
  EXPECT_NEAR(error_full, 0.0, 1e-12);
}

TEST(ApproxTopObjectsTest, OverestimatesSkylineProbability) {
  // Dropping candidates can only remove dominators, so A1's estimate is
  // always an upper bound on the truth.
  for (std::uint64_t seed = 51; seed < 60; ++seed) {
    Dataset data = RandomSmallDataset(seed, 12, 2, 4);
    TablePreferenceModel model;
    double truth = ExactSkylineProbability(data, 0, model).value();
    for (std::size_t t : {1u, 3u, 6u}) {
      double approx =
          ApproxTopObjects(data, 0, AllBut(data, 0), model, t).value();
      EXPECT_GE(approx, truth - 1e-12) << "seed=" << seed << " t=" << t;
    }
  }
}

TEST(ApproxPartialTermsTest, FullBudgetEqualsExact) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto result =
      ApproxPartialTerms(data, 0, AllBut(data, 0), model, 1u << 20).value();
  EXPECT_NEAR(result.estimate, 3.0 / 16.0, 1e-12);
  EXPECT_EQ(result.terms_computed, 15u);  // 2^4 - 1
  EXPECT_EQ(result.deepest_level, 4u);
}

TEST(ApproxPartialTermsTest, TruncationCanLeaveProbabilityRange) {
  // Stopping after level 1 yields 1 - sum Pr(e_i) = 1 - 3/2 = -1/2: the
  // paper's Figure 6(b) point that A2 is not even a probability.
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto result = ApproxPartialTerms(data, 0, AllBut(data, 0), model, 4).value();
  EXPECT_NEAR(result.estimate, -0.5, 1e-12);
  EXPECT_EQ(result.terms_computed, 4u);
}

TEST(ApproxPartialTermsTest, MidLevelTruncation) {
  // 4 level-1 terms plus the first two level-2 terms (lexicographic:
  // {Q1,Q2} = 1/4 and {Q1,Q3} = 1/16): 1 - 3/2 + 5/16 = -3/16.
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto result = ApproxPartialTerms(data, 0, AllBut(data, 0), model, 6).value();
  EXPECT_NEAR(result.estimate, -3.0 / 16.0, 1e-12);
}

TEST(ApproxPartialTermsTest, RejectsZeroBudget) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  EXPECT_EQ(
      ApproxPartialTerms(data, 0, AllBut(data, 0), model, 0).status().code(),
      StatusCode::kInvalidArgument);
}

// A candidate id past the dataset is an OutOfRange Status, never a read
// past the object table.
TEST(ApproxTopObjectsTest, RejectsOutOfRangeCandidate) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  std::vector<ObjectId> candidates{1, 1000000};
  EXPECT_EQ(ApproxTopObjects(data, 0, candidates, model, 2).status().code(),
            StatusCode::kOutOfRange);
}

TEST(ApproxPartialTermsTest, RejectsOutOfRangeCandidate) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  std::vector<ObjectId> candidates{1, 1000000};
  EXPECT_EQ(ApproxPartialTerms(data, 0, candidates, model, 4).status().code(),
            StatusCode::kOutOfRange);
}

TEST(TentativeApproxTest, InvalidArguments) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  std::vector<ObjectId> self{0};
  EXPECT_EQ(ApproxTopObjects(data, 0, self, model, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ApproxPartialTerms(data, 0, self, model, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ApproxTopObjects(data, 9, {}, model, 1).status().code(),
      StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace skypref

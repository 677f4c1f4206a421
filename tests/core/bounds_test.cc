#include "src/core/bounds.h"

#include <limits>

#include <gtest/gtest.h>

#include "src/core/exact.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::Figure1Dataset;
using skypref::testing::RandomSmallDataset;

TEST(BoundsTest, LevelOneGivesUnionBoundLowerBound) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  BoundsOptions options;
  options.max_level = 1;
  SkylineBounds bounds = BoundedSkylineProbability(data, 0, model, options)
                             .value();
  // 1 - S1 = 1 - 3/2 = -1/2, clamped to 0.
  EXPECT_DOUBLE_EQ(bounds.lower, 0.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 1.0);  // no even level yet
  EXPECT_EQ(bounds.level, 1u);
  EXPECT_FALSE(bounds.exact);
}

TEST(BoundsTest, LevelTwoGivesUpperBound) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  BoundsOptions options;
  options.max_level = 2;
  SkylineBounds bounds = BoundedSkylineProbability(data, 0, model, options)
                             .value();
  // 1 - S1 + S2 = 1 - 24/16 + 17/16 = 9/16.
  EXPECT_DOUBLE_EQ(bounds.upper, 9.0 / 16.0);
  EXPECT_GE(3.0 / 16.0, bounds.lower);
  EXPECT_LE(3.0 / 16.0, bounds.upper);
}

TEST(BoundsTest, LevelThreeTightensLowerBound) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  BoundsOptions options;
  options.max_level = 3;
  SkylineBounds bounds = BoundedSkylineProbability(data, 0, model, options)
                             .value();
  // 1 - S1 + S2 - S3 = 2/16.
  EXPECT_DOUBLE_EQ(bounds.lower, 2.0 / 16.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 9.0 / 16.0);
}

TEST(BoundsTest, AllLevelsYieldTheExactValue) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  BoundsOptions options;
  options.max_level = 10;  // clamped to n = 4
  SkylineBounds bounds = BoundedSkylineProbability(data, 0, model, options)
                             .value();
  EXPECT_TRUE(bounds.exact);
  EXPECT_DOUBLE_EQ(bounds.lower, 3.0 / 16.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 3.0 / 16.0);
  EXPECT_EQ(bounds.level, 4u);
  EXPECT_EQ(bounds.terms_computed, 15u);
}

TEST(BoundsTest, IntervalAlwaysContainsTheTruth) {
  for (std::uint64_t seed = 201; seed < 221; ++seed) {
    Dataset data = RandomSmallDataset(seed, 10, 3, 4);
    TablePreferenceModel model;
    double truth = ExactSkylineProbability(data, 0, model).value();
    for (std::size_t level = 1; level <= 5; ++level) {
      BoundsOptions options;
      options.max_level = level;
      SkylineBounds bounds =
          BoundedSkylineProbability(data, 0, model, options).value();
      EXPECT_LE(bounds.lower, truth + 1e-12)
          << "seed=" << seed << " level=" << level;
      EXPECT_GE(bounds.upper, truth - 1e-12)
          << "seed=" << seed << " level=" << level;
    }
  }
}

TEST(BoundsTest, IntervalsTightenWithLevel) {
  Dataset data = RandomSmallDataset(404, 12, 3, 4);
  TablePreferenceModel model;
  double previous_width = 1.0;
  for (std::size_t level = 2; level <= 8; level += 2) {
    BoundsOptions options;
    options.max_level = level;
    SkylineBounds bounds =
        BoundedSkylineProbability(data, 0, model, options).value();
    EXPECT_LE(bounds.width(), previous_width + 1e-12) << "level " << level;
    previous_width = bounds.width();
  }
}

TEST(BoundsTest, TermBudgetStopsEscalation) {
  Dataset data = RandomSmallDataset(7, 14, 2, 4);
  TablePreferenceModel model;
  BoundsOptions options;
  options.max_level = 6;
  options.term_budget = 20;  // level 1 costs 13, level 2 costs 78
  SkylineBounds bounds =
      BoundedSkylineProbability(data, 0, model, options).value();
  EXPECT_EQ(bounds.level, 1u);
  EXPECT_EQ(bounds.terms_computed, 13u);
}

TEST(BoundsTest, EmptyCandidatesExactOne) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  std::vector<ObjectId> none;
  SkylineBounds bounds =
      BoundedSkylineProbability(data, 0, none, model, {}).value();
  EXPECT_TRUE(bounds.exact);
  EXPECT_DOUBLE_EQ(bounds.lower, 1.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 1.0);
}

TEST(BoundsTest, InvalidArguments) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  EXPECT_EQ(BoundedSkylineProbability(data, 9, model, {}).status().code(),
            StatusCode::kOutOfRange);
  std::vector<ObjectId> self{0};
  EXPECT_EQ(
      BoundedSkylineProbability(data, 0, self, model, {}).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(BoundsTest, PreprocessedBoundsAreExactOnExample1) {
  // After absorption + partition, Example 1 is three singleton groups:
  // every group finishes all its levels, so the interval collapses to
  // the exact value even at max_level = 1.
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  BoundsOptions options;
  options.max_level = 1;
  SkylineBounds bounds =
      BoundedSkylineProbabilityPreprocessed(data, 0, model, options).value();
  EXPECT_TRUE(bounds.exact);
  EXPECT_DOUBLE_EQ(bounds.lower, 3.0 / 16.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 3.0 / 16.0);
}

TEST(BoundsTest, PreprocessedIntervalContainsTruthOnRandomInstances) {
  for (std::uint64_t seed = 701; seed < 716; ++seed) {
    Dataset data = RandomSmallDataset(seed, 12, 3, 4);
    TablePreferenceModel model;
    double truth = ExactSkylineProbability(data, 0, model).value();
    for (std::size_t level = 1; level <= 4; ++level) {
      BoundsOptions options;
      options.max_level = level;
      SkylineBounds bounds =
          BoundedSkylineProbabilityPreprocessed(data, 0, model, options)
              .value();
      EXPECT_LE(bounds.lower, truth + 1e-12) << "seed=" << seed;
      EXPECT_GE(bounds.upper, truth - 1e-12) << "seed=" << seed;
    }
  }
}

TEST(BoundsTest, PreprocessedTighterThanFlatBounds) {
  // Partitioning multiplies per-group intervals, which is never looser
  // and usually much tighter than bounding the whole candidate set.
  Dataset data = RandomSmallDataset(808, 14, 3, 5);
  TablePreferenceModel model;
  BoundsOptions options;
  options.max_level = 2;
  SkylineBounds flat =
      BoundedSkylineProbability(data, 0, model, options).value();
  SkylineBounds preprocessed =
      BoundedSkylineProbabilityPreprocessed(data, 0, model, options).value();
  EXPECT_LE(preprocessed.width(), flat.width() + 1e-12);
}

TEST(DecideThresholdTest, MatchesExactOnExample1) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  // sky(O) = 3/16 = 0.1875.
  EXPECT_TRUE(DecideThreshold(data, 0, model, 0.1).value());
  EXPECT_TRUE(DecideThreshold(data, 0, model, 0.1875).value());
  EXPECT_FALSE(DecideThreshold(data, 0, model, 0.19).value());
  EXPECT_FALSE(DecideThreshold(data, 0, model, 0.5).value());
}

TEST(DecideThresholdTest, AgreesWithExactOnRandomInstances) {
  for (std::uint64_t seed = 301; seed < 316; ++seed) {
    Dataset data = RandomSmallDataset(seed, 10, 3, 4);
    TablePreferenceModel model;
    for (ObjectId target = 0; target < 4; ++target) {
      double truth = ExactSkylineProbability(data, target, model).value();
      for (double tau : {0.05, 0.25, 0.5, 0.9}) {
        bool decided = DecideThreshold(data, target, model, tau).value();
        EXPECT_EQ(decided, truth >= tau)
            << "seed=" << seed << " target=" << target << " tau=" << tau;
      }
    }
  }
}

TEST(DecideThresholdTest, ReportsWhetherExactFallbackRan) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  bool used_exact = true;
  // Far-away thresholds are decided by cheap bounds.
  ASSERT_TRUE(DecideThreshold(data, 0, model, 0.99, {}, &used_exact).ok());
  EXPECT_FALSE(used_exact);
}

TEST(DecideThresholdTest, RejectsBadThreshold) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  EXPECT_EQ(DecideThreshold(data, 0, model, -0.1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecideThreshold(data, 0, model, 1.1).status().code(),
            StatusCode::kInvalidArgument);
}

// NaN fails every comparison, so a range test written as "tau < 0 ||
// tau > 1" lets it through to a meaningless yes/no.
TEST(DecideThresholdTest, RejectsNaNThreshold) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  EXPECT_EQ(DecideThreshold(data, 0, model,
                            std::numeric_limits<double>::quiet_NaN())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace skypref

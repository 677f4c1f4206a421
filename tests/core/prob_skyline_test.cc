#include "src/core/prob_skyline.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/core/exact.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::RandomSmallDataset;

std::vector<ObjectId> ReferenceSkyline(const Dataset& data,
                                       const PreferenceModel& model,
                                       double tau) {
  std::vector<ObjectId> skyline;
  for (ObjectId i = 0; i < data.size(); ++i) {
    if (ExactSkylineProbability(data, i, model).value() >= tau) {
      skyline.push_back(i);
    }
  }
  return skyline;
}

TEST(ProbSkylineTest, MatchesPerObjectExactOnExample1) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  for (double tau : {0.1, 0.1875, 0.3, 0.5}) {
    EXPECT_EQ(ExactProbabilisticSkyline(data, model, tau).value(),
              ReferenceSkyline(data, model, tau))
        << "tau=" << tau;
  }
}

TEST(ProbSkylineTest, MatchesPerObjectExactOnRandomInstances) {
  for (std::uint64_t seed = 601; seed < 613; ++seed) {
    Dataset data = RandomSmallDataset(seed, 10, 3, 4);
    TablePreferenceModel model;
    for (double tau : {0.05, 0.3, 0.7}) {
      EXPECT_EQ(ExactProbabilisticSkyline(data, model, tau).value(),
                ReferenceSkyline(data, model, tau))
          << "seed=" << seed << " tau=" << tau;
    }
  }
}

TEST(ProbSkylineTest, BoundsDecideMostObjects) {
  // With extreme thresholds almost every object is screened by cheap
  // bounds; the stats record the split.
  Dataset data = RandomSmallDataset(99, 16, 3, 4);
  TablePreferenceModel model;
  ProbSkylineStats stats;
  ASSERT_TRUE(
      ExactProbabilisticSkyline(data, model, 0.95, {}, &stats).ok());
  EXPECT_EQ(stats.decided_by_bounds + stats.exact_fallbacks, data.size());
  EXPECT_GT(stats.decided_by_bounds, 0u);
}

TEST(ProbSkylineTest, ThresholdOneMeansCertainSkyline) {
  // Only objects that are skyline points with probability exactly 1.
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  data.Append({1, 1}).CheckOK();
  TablePreferenceModel model;
  model.Set(0, 0, 1, 1.0, 0.0).CheckOK();
  model.Set(1, 0, 1, 1.0, 0.0).CheckOK();
  auto skyline = ExactProbabilisticSkyline(data, model, 1.0).value();
  EXPECT_EQ(skyline, (std::vector<ObjectId>{0}));
}

TEST(ProbSkylineTest, RejectsBadArguments) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  EXPECT_EQ(ExactProbabilisticSkyline(data, model, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExactProbabilisticSkyline(data, model, 1.5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExactProbabilisticSkyline(data, model,
                                      std::numeric_limits<double>::quiet_NaN())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  Dataset empty(1);
  EXPECT_EQ(ExactProbabilisticSkyline(empty, model, 0.5).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace skypref

#include "src/core/topk_race.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "src/core/exact.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::RandomSmallDataset;

/// True top-k object set by exact skyline probabilities (ties broken by
/// id, like the race's stable sort).
std::vector<ObjectId> ExactTopK(const Dataset& data,
                                const PreferenceModel& model, std::size_t k) {
  std::vector<std::pair<double, ObjectId>> ranked;
  for (ObjectId i = 0; i < data.size(); ++i) {
    ranked.emplace_back(ExactSkylineProbability(data, i, model).value(), i);
  }
  std::stable_sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < k; ++i) ids.push_back(ranked[i].second);
  return ids;
}

TEST(TopKRaceTest, FindsTheSeparatedWinnerOnExample1) {
  // Exact values: [3/16, 3/16, 3/16, 7/16, 3/16] — Q3 is the clear
  // winner, the rest is a four-way tie. k=1 must resolve to Q3; k=2 must
  // contain Q3, while the second slot is an unresolvable tie (so the race
  // must NOT claim it resolved the set).
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  TopKRaceOptions options;
  options.seed = 3;
  TopKRaceResult one = TopKSkylineRace(data, model, 1, options).value();
  ASSERT_EQ(one.topk.size(), 1u);
  EXPECT_EQ(one.topk[0], 3u);
  EXPECT_TRUE(one.resolved);

  TopKRaceResult two = TopKSkylineRace(data, model, 2, options).value();
  ASSERT_EQ(two.topk.size(), 2u);
  EXPECT_NE(std::find(two.topk.begin(), two.topk.end(), 3u), two.topk.end());
  EXPECT_FALSE(two.resolved);
}

TEST(TopKRaceTest, MatchesExactTopKOnRandomInstances) {
  for (std::uint64_t seed = 501; seed < 509; ++seed) {
    Dataset data = RandomSmallDataset(seed, 9, 2, 4);
    TablePreferenceModel model;
    TopKRaceOptions options;
    options.seed = seed;
    options.epsilon_floor = 0.01;
    for (std::size_t k : {1u, 3u}) {
      TopKRaceResult result = TopKSkylineRace(data, model, k, options).value();
      ASSERT_EQ(result.topk.size(), k) << "seed=" << seed;
      if (!result.resolved) continue;  // ties within the floor may flip
      std::vector<ObjectId> truth = ExactTopK(data, model, k);
      EXPECT_EQ(std::set<ObjectId>(result.topk.begin(), result.topk.end()),
                std::set<ObjectId>(truth.begin(), truth.end()))
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(TopKRaceTest, KEqualsNReturnsEverything) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  TopKRaceResult result = TopKSkylineRace(data, model, 5).value();
  EXPECT_EQ(result.topk.size(), 5u);
  EXPECT_TRUE(result.resolved);
}

TEST(TopKRaceTest, SettledObjectsStopCostingEvaluations) {
  // With a clear separation the race settles most objects early; total
  // evaluations must be well below worlds * n.
  Dataset data = RandomSmallDataset(77, 20, 2, 6);
  TablePreferenceModel model;
  TopKRaceOptions options;
  options.seed = 9;
  TopKRaceResult result = TopKSkylineRace(data, model, 3, options).value();
  EXPECT_GT(result.worlds, 0u);
  EXPECT_LT(result.evaluations,
            result.worlds * data.size());
}

TEST(TopKRaceTest, EstimatesTrackExactValues) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  TopKRaceOptions options;
  options.seed = 21;
  options.epsilon_floor = 0.02;
  TopKRaceResult result = TopKSkylineRace(data, model, 1, options).value();
  // The winner's estimate must be near its true probability.
  ObjectId winner = result.topk[0];
  double truth = ExactSkylineProbability(data, winner, model).value();
  EXPECT_NEAR(result.estimates[winner], truth, 0.05);
}

TEST(TopKRaceTest, RejectsBadArguments) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  EXPECT_EQ(TopKSkylineRace(data, model, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TopKSkylineRace(data, model, 6).status().code(),
            StatusCode::kInvalidArgument);
  TopKRaceOptions bad;
  bad.delta = 0.0;
  EXPECT_EQ(TopKSkylineRace(data, model, 1, bad).status().code(),
            StatusCode::kInvalidArgument);
  bad.delta = 0.01;
  bad.batch = 0;
  EXPECT_EQ(TopKSkylineRace(data, model, 1, bad).status().code(),
            StatusCode::kInvalidArgument);
}

// NaN fails every comparison; let through, a NaN world cap would be cast
// to uint64 (undefined behavior) and the race would return OK anyway.
TEST(TopKRaceTest, RejectsNonFiniteOptions) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (auto [delta, floor] : {std::pair{kNaN, 0.005}, std::pair{0.01, kNaN},
                              std::pair{0.01, kInf}}) {
    TopKRaceOptions bad;
    bad.delta = delta;
    bad.epsilon_floor = floor;
    EXPECT_EQ(TopKSkylineRace(data, model, 1, bad).status().code(),
              StatusCode::kInvalidArgument)
        << "delta=" << delta << " epsilon_floor=" << floor;
  }
}

}  // namespace
}  // namespace skypref

#include "src/core/all_worlds.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/exact.h"
#include "src/workload/block_zipf_generator.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::Figure1Dataset;
using skypref::testing::RandomSmallDataset;
using skypref::testing::StreamPinDataset;
using skypref::testing::StreamPinModel;

TEST(AllWorldsSampleSizeTest, GrowsWithObjectCount) {
  EXPECT_GT(AllWorldsSampleSize(0.01, 0.01, 100),
            AllWorldsSampleSize(0.01, 0.01, 10));
  EXPECT_EQ(AllWorldsSampleSize(0.0, 0.01, 10), 0u);
  EXPECT_EQ(AllWorldsSampleSize(0.01, 0.0, 10), 0u);
  EXPECT_EQ(AllWorldsSampleSize(0.01, 0.01, 0), 0u);
}

// Hand-driven per-world composition: NextWorld, then Survives for every
// object in ascending order, over Rng(options.seed). perfbench's traced
// skyline_blockzipf run drives the sampler this way and requires the
// facade's answer bit for bit, so the facade must draw exactly as this
// loop does.
std::vector<std::uint64_t> PerWorldCounts(const Dataset& data,
                                          const PreferenceModel& model,
                                          const AllWorldsOptions& options,
                                          std::uint64_t* pair_draws) {
  SharedWorldSampler sampler(data, model);
  Rng rng(options.seed);
  std::vector<std::uint64_t> counts(data.size(), 0);
  for (std::uint64_t h = 0; h < options.samples; ++h) {
    sampler.NextWorld();
    for (ObjectId i = 0; i < data.size(); ++i) {
      if (sampler.Survives(i, rng, pair_draws)) ++counts[i];
    }
  }
  return counts;
}

void ExpectFacadeMatchesPerWorldLoop(const Dataset& data,
                                     const PreferenceModel& model) {
  // One world, a partial chunk, exactly one chunk, one past it, many.
  for (std::uint64_t samples : {1u, 63u, 64u, 65u, 2000u}) {
    SCOPED_TRACE(samples);
    AllWorldsOptions options;
    options.samples = samples;
    options.seed = 9 + samples;
    auto all = EstimateAllSkylineProbabilities(data, model, options);
    ASSERT_TRUE(all.ok()) << all.status();
    std::vector<std::uint64_t> facade;
    for (double e : all->estimates) {
      facade.push_back(static_cast<std::uint64_t>(
          std::llround(e * static_cast<double>(samples))));
    }
    std::uint64_t draws = 0;
    EXPECT_EQ(facade, PerWorldCounts(data, model, options, &draws));
    EXPECT_EQ(all->pair_draws, draws);
  }
}

TEST(AllWorldsTest, FacadeMatchesPerWorldLoopOnStreamPinInstance) {
  const Dataset data = StreamPinDataset();
  ExpectFacadeMatchesPerWorldLoop(data, StreamPinModel(data));
}

TEST(AllWorldsTest, FacadeMatchesPerWorldLoopOnBlockZipf) {
  BlockZipfOptions gen;
  gen.objects = 120;
  gen.seed = 4;
  const Dataset data = GenerateBlockZipf(gen).value();
  HashedPreferenceModel base(8, HashedPreferenceModel::Style::kTotalUniform);
  BlockLocalPreferenceModel model(base, gen.values_per_block);
  ExpectFacadeMatchesPerWorldLoop(data, model);
}

TEST(SharedWorldSamplerDeathTest, SurvivesBeforeFirstNextWorldIsChecked) {
  // Object 0 beats object 1 with probability 1 on the only dimension.
  Dataset data(1);
  data.Append({0}).CheckOK();
  data.Append({1}).CheckOK();
  TablePreferenceModel model;
  model.Set(0, 0, 1, 1.0, 0.0).CheckOK();
  SharedWorldSampler sampler(data, model);
  Rng rng(1);
  std::uint64_t draws = 0;
  EXPECT_DEATH(sampler.Survives(1, rng, &draws), "SKYPREF_CHECK failed");
  sampler.NextWorld();
  EXPECT_FALSE(sampler.Survives(1, rng, &draws));
  EXPECT_TRUE(sampler.Survives(0, rng, &draws));
  EXPECT_EQ(draws, 64u);  // one mask word for the one variable
}

TEST(AllWorldsTest, SaturatedSampleCountRejected) {
  // NaN epsilon or delta, or a tiny epsilon, saturates the sample count
  // at UINT64_MAX; the estimators return no partial result, so the run
  // could only end at its deadline. The time limit bounds the test where
  // that count is not rejected.
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    double epsilon;
    double delta;
  };
  for (const Case& c : {Case{nan, 0.05}, Case{0.02, nan}, Case{1e-12, 0.05}}) {
    SCOPED_TRACE(c.epsilon);
    SCOPED_TRACE(c.delta);
    AllWorldsOptions options;
    options.epsilon = c.epsilon;
    options.delta = c.delta;
    options.budget.time_limit_seconds = 0.5;
    ASSERT_EQ(AllWorldsSampleSize(c.epsilon, c.delta, data.size()),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(
        EstimateAllSkylineProbabilities(data, model, options).status().code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(ProbabilisticSkyline(data, model, 0.5, options).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(TopKSkyline(data, model, 1, options).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(AllWorldsTest, MatchesPerObjectExactOnFigure1) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  AllWorldsOptions options;
  options.samples = 200000;
  options.seed = 5;
  auto all = EstimateAllSkylineProbabilities(data, model, options).value();
  ASSERT_EQ(all.estimates.size(), 3u);
  EXPECT_NEAR(all.estimates[0], 0.5, 0.005);   // sky(P1)
  EXPECT_NEAR(all.estimates[1], 0.25, 0.005);  // sky(P2)
  EXPECT_NEAR(all.estimates[2], 0.5, 0.005);   // sky(P3)
}

TEST(AllWorldsTest, MatchesPerObjectExactOnExample1) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  AllWorldsOptions options;
  options.samples = 100000;
  options.seed = 17;
  auto all = EstimateAllSkylineProbabilities(data, model, options).value();
  for (ObjectId i = 0; i < data.size(); ++i) {
    double truth = ExactSkylineProbability(data, i, model).value();
    EXPECT_NEAR(all.estimates[i], truth, 0.01) << "object " << i;
  }
}

TEST(AllWorldsTest, ConsistentWorldsAcrossObjects) {
  // Within one world the same pair outcome is shared by all dominance
  // checks; with incomparability mass, estimates must match exact values
  // that the independence shortcut would get wrong.
  Dataset data = RandomSmallDataset(23, 8, 2, 3);
  TablePreferenceModel model;
  model.Set(0, 0, 1, 0.4, 0.3).CheckOK();
  model.Set(0, 0, 2, 0.2, 0.5).CheckOK();
  model.Set(0, 1, 2, 0.6, 0.1).CheckOK();
  model.Set(1, 0, 1, 0.3, 0.3).CheckOK();
  model.Set(1, 0, 2, 0.5, 0.25).CheckOK();
  model.Set(1, 1, 2, 0.45, 0.45).CheckOK();
  AllWorldsOptions options;
  options.samples = 150000;
  options.seed = 29;
  auto all = EstimateAllSkylineProbabilities(data, model, options).value();
  for (ObjectId i = 0; i < data.size(); ++i) {
    double truth = ExactSkylineProbability(data, i, model).value();
    EXPECT_NEAR(all.estimates[i], truth, 0.01) << "object " << i;
  }
}

TEST(AllWorldsTest, DeterministicPerSeed) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  AllWorldsOptions options;
  options.samples = 500;
  options.seed = 3;
  auto a = EstimateAllSkylineProbabilities(data, model, options).value();
  auto b = EstimateAllSkylineProbabilities(data, model, options).value();
  EXPECT_EQ(a.estimates, b.estimates);
}

TEST(AllWorldsTest, RejectsInvalidDataAndOptions) {
  TablePreferenceModel model;
  Dataset empty(1);
  EXPECT_FALSE(EstimateAllSkylineProbabilities(empty, model).ok());
  Dataset data = Figure1Dataset();
  AllWorldsOptions bad;
  bad.samples = 0;
  bad.epsilon = 0.0;
  EXPECT_EQ(
      EstimateAllSkylineProbabilities(data, model, bad).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(ProbabilisticSkylineTest, ThresholdFiltersObjects) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  AllWorldsOptions options;
  options.samples = 50000;
  options.seed = 101;
  // Exact values: sky(O)=3/16=0.1875. Pick tau between strata.
  auto skyline = ProbabilisticSkyline(data, model, 0.3, options).value();
  for (ObjectId id : skyline) {
    double truth = ExactSkylineProbability(data, id, model).value();
    EXPECT_GE(truth, 0.28) << "object " << id;
  }
  auto permissive = ProbabilisticSkyline(data, model, 0.05, options).value();
  EXPECT_GE(permissive.size(), skyline.size());
}

TEST(ProbabilisticSkylineTest, RejectsBadThreshold) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  EXPECT_EQ(ProbabilisticSkyline(data, model, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ProbabilisticSkyline(data, model, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ProbabilisticSkyline(data, model,
                                 std::numeric_limits<double>::quiet_NaN())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(TopKSkylineTest, RanksByEstimate) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  AllWorldsOptions options;
  options.samples = 50000;
  options.seed = 13;
  auto top = TopKSkyline(data, model, 3, options).value();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GE(top[0].second, top[1].second);
  EXPECT_GE(top[1].second, top[2].second);
}

TEST(AllWorldsTest, PreCancelledTokenCancelsBeforeSampling) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  CancelToken token;
  token.RequestCancel();
  AllWorldsOptions options;
  options.samples = 100000;
  options.budget.cancel = &token;
  EXPECT_EQ(
      EstimateAllSkylineProbabilities(data, model, options).status().code(),
      StatusCode::kCancelled);
}

TEST(AllWorldsTest, ExpiredDeadlineExhaustsTheEstimate) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  AllWorldsOptions options;
  options.samples = 100000;
  options.budget.deadline = Deadline::At(Deadline::Clock::now() -
                                         std::chrono::seconds(1));
  EXPECT_EQ(
      EstimateAllSkylineProbabilities(data, model, options).status().code(),
      StatusCode::kResourceExhausted);
  // Cancellation wins over an expired deadline.
  CancelToken token;
  token.RequestCancel();
  options.budget.cancel = &token;
  EXPECT_EQ(
      EstimateAllSkylineProbabilities(data, model, options).status().code(),
      StatusCode::kCancelled);
}

TEST(TopKSkylineTest, KLargerThanDatasetReturnsAll) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  AllWorldsOptions options;
  options.samples = 1000;
  auto top = TopKSkyline(data, model, 99, options).value();
  EXPECT_EQ(top.size(), 3u);
  EXPECT_EQ(TopKSkyline(data, model, 0, options).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace skypref

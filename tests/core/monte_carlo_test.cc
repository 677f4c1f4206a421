#include "src/core/monte_carlo.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "src/core/all_worlds.h"
#include "src/core/exact.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::Figure1Dataset;
using skypref::testing::RandomSmallDataset;

TEST(HoeffdingTest, PaperSampleSize) {
  // The paper: for epsilon = delta = 0.01 the bound demands 26,492 samples.
  EXPECT_EQ(HoeffdingSampleSize(0.01, 0.01), 26492u);
}

TEST(HoeffdingTest, ShrinksWithLooserRequirements) {
  EXPECT_LT(HoeffdingSampleSize(0.05, 0.05), HoeffdingSampleSize(0.01, 0.01));
  EXPECT_EQ(HoeffdingSampleSize(-1.0, 0.5), 0u);
  EXPECT_EQ(HoeffdingSampleSize(0.1, 0.0), 0u);
}

TEST(HoeffdingTest, TinyEpsilonSaturatesInsteadOfOverflowing) {
  // epsilon = 1e-12 demands ~1e24 samples — far beyond uint64. Casting a
  // double above UINT64_MAX is undefined behavior, so the bound must
  // saturate, not wrap or trap.
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(HoeffdingSampleSize(1e-12, 0.01), kMax);
  EXPECT_EQ(HoeffdingSampleSize(1e-300, 0.5), kMax);
  // Saturation kicks in exactly when the real bound leaves the integer
  // range; a merely-large epsilon still computes the true ceiling.
  EXPECT_LT(HoeffdingSampleSize(1e-6, 0.01), kMax);
  // Monotonicity survives the clamp: tighter epsilon never asks for
  // fewer samples.
  EXPECT_LE(HoeffdingSampleSize(1e-6, 0.01), HoeffdingSampleSize(1e-9, 0.01));
  EXPECT_LE(HoeffdingSampleSize(1e-9, 0.01), HoeffdingSampleSize(1e-12, 0.01));
}

TEST(AllWorldsSampleSizeTest, TinyEpsilonSaturatesInsteadOfOverflowing) {
  // The union-bound count shares HoeffdingSampleSize's saturation: a
  // bound beyond uint64 (epsilon ~ 1e-10 and below) or a NaN parameter
  // must not reach an undefined double-to-uint64 cast.
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(AllWorldsSampleSize(1e-12, 0.01, 100), kMax);
  EXPECT_EQ(AllWorldsSampleSize(1e-300, 0.5, 1), kMax);
  EXPECT_EQ(AllWorldsSampleSize(kNaN, 0.05, 100), kMax);
  EXPECT_EQ(AllWorldsSampleSize(0.02, kNaN, 100), kMax);
  EXPECT_LE(AllWorldsSampleSize(1e-9, 0.01, 100),
            AllWorldsSampleSize(1e-12, 0.01, 100));
  // In-range counts are unchanged: the default AllWorldsOptions at
  // n = 1000 still ask for 13,246 worlds.
  EXPECT_EQ(AllWorldsSampleSize(0.02, 0.05, 1000), 13246u);
  EXPECT_EQ(AllWorldsSampleSize(0.0, 0.05, 1000), 0u);
}

TEST(MonteCarloTest, ConvergesToFigure1Truth) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 200000;
  options.seed = 12;
  auto result = MonteCarloSkylineProbability(data, 0, model, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, 0.5, 0.005);
  EXPECT_EQ(result->samples, 200000u);
}

TEST(MonteCarloTest, ConvergesToExample1Truth) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 200000;
  options.seed = 34;
  auto result = MonteCarloSkylineProbability(data, 0, model, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, 3.0 / 16.0, 0.005);
  // Crucially NOT the independent baseline's 9/64 = 0.1406: the sampler
  // shares value-pair outcomes across candidates within a world.
  EXPECT_GT(result->estimate, 0.17);
}

TEST(MonteCarloTest, DeterministicPerSeed) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 1000;
  options.seed = 7;
  auto a = MonteCarloSkylineProbability(data, 0, model, options);
  auto b = MonteCarloSkylineProbability(data, 0, model, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->skyline_worlds, b->skyline_worlds);
  options.seed = 8;
  auto c = MonteCarloSkylineProbability(data, 0, model, options);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->skyline_worlds, c->skyline_worlds);
}

TEST(MonteCarloTest, EpsilonDeltaDrivesSampleCount) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.epsilon = 0.05;
  options.delta = 0.1;
  auto result = MonteCarloSkylineProbability(data, 0, model, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->samples, HoeffdingSampleSize(0.05, 0.1));
  EXPECT_NEAR(result->estimate, 0.5, 0.05);
}

TEST(MonteCarloTest, LazySamplingDrawsFewerPairs) {
  Dataset data = RandomSmallDataset(5, 30, 3, 4);
  TablePreferenceModel model;
  MonteCarloOptions lazy;
  lazy.samples = 2000;
  lazy.seed = 9;
  lazy.lazy = true;
  MonteCarloOptions eager = lazy;
  eager.lazy = false;
  auto lazy_result = MonteCarloSkylineProbability(data, 0, model, lazy);
  auto eager_result = MonteCarloSkylineProbability(data, 0, model, eager);
  ASSERT_TRUE(lazy_result.ok());
  ASSERT_TRUE(eager_result.ok());
  EXPECT_LT(lazy_result->pair_draws, eager_result->pair_draws);
}

TEST(MonteCarloTest, LazyAndEagerConvergeToTheSameValue) {
  Dataset data = RandomSmallDataset(6, 10, 2, 4);
  TablePreferenceModel model;
  double truth = ExactSkylineProbability(data, 0, model).value();
  for (bool lazy : {true, false}) {
    MonteCarloOptions options;
    options.samples = 100000;
    options.seed = 21;
    options.lazy = lazy;
    auto result = MonteCarloSkylineProbability(data, 0, model, options);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result->estimate, truth, 0.01) << "lazy=" << lazy;
  }
}

TEST(MonteCarloTest, SortingIsAPerformanceNotCorrectnessKnob) {
  Dataset data = RandomSmallDataset(8, 12, 2, 4);
  TablePreferenceModel model;
  double truth = ExactSkylineProbability(data, 0, model).value();
  for (bool sorted : {true, false}) {
    MonteCarloOptions options;
    options.samples = 100000;
    options.seed = 4;
    options.sort_by_dominance = sorted;
    auto result = MonteCarloSkylineProbability(data, 0, model, options);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result->estimate, truth, 0.01) << "sorted=" << sorted;
  }
}

TEST(MonteCarloTest, CertainPreferencesGiveExactAnswerEveryWorld) {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  data.Append({1, 1}).CheckOK();
  TablePreferenceModel model;
  model.Set(0, 1, 0, 1.0, 0.0).CheckOK();
  model.Set(1, 1, 0, 1.0, 0.0).CheckOK();
  MonteCarloOptions options;
  options.samples = 100;
  auto result = MonteCarloSkylineProbability(data, 0, model, options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 0.0);
  auto other = MonteCarloSkylineProbability(data, 1, model, options);
  ASSERT_TRUE(other.ok());
  EXPECT_DOUBLE_EQ(other->estimate, 1.0);
}

TEST(MonteCarloTest, HoeffdingBoundHoldsAcrossSeeds) {
  Dataset data = RandomSmallDataset(10, 8, 2, 3);
  TablePreferenceModel model;
  double truth = ExactSkylineProbability(data, 0, model).value();
  const double epsilon = 0.05;
  const double delta = 0.01;
  int violations = 0;
  const int runs = 40;
  for (int seed = 0; seed < runs; ++seed) {
    MonteCarloOptions options;
    options.epsilon = epsilon;
    options.delta = delta;
    options.seed = static_cast<std::uint64_t>(seed) + 1;
    auto result = MonteCarloSkylineProbability(data, 0, model, options);
    ASSERT_TRUE(result.ok());
    if (std::abs(result->estimate - truth) >= epsilon) ++violations;
  }
  // Expected violations: <= delta * runs = 0.4; allow generous slack.
  EXPECT_LE(violations, 2);
}

TEST(MonteCarloTest, InvalidArgumentsRejected) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  MonteCarloOptions bad;
  bad.samples = 0;
  bad.epsilon = 0.0;
  EXPECT_EQ(MonteCarloSkylineProbability(data, 0, model, bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      MonteCarloSkylineProbability(data, 42, model, {}).status().code(),
      StatusCode::kOutOfRange);
  std::vector<ObjectId> self{0};
  EXPECT_EQ(MonteCarloSkylineProbability(data, 0, self, model, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// A derived count needs finite epsilon and delta, and a count saturated
// at UINT64_MAX (epsilon = 1e-12, or asked for outright) never
// completes, so without a deadline to stop it the request is rejected
// up front. The guard turns a hang into Cancelled.
TEST(MonteCarloTest, UnboundedSaturatedCountRejected) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    double epsilon;
    double delta;
    std::uint64_t samples;
  };
  for (const Case& c :
       {Case{1e-12, 0.01, 0}, Case{kNaN, 0.01, 0}, Case{0.01, kNaN, 0},
        Case{kInf, 0.01, 0},
        Case{0.01, 0.01, std::numeric_limits<std::uint64_t>::max()}}) {
    testing::CancelAfter guard(2.0);
    MonteCarloOptions options;
    options.epsilon = c.epsilon;
    options.delta = c.delta;
    options.samples = c.samples;
    QueryBudget budget;
    budget.cancel = guard.token();
    EXPECT_EQ(MonteCarloSkylineProbability(data, 0, model, options, budget)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "epsilon=" << c.epsilon << " delta=" << c.delta
        << " samples=" << c.samples;
  }
  // A shared deadline bounds the loop as well as a time limit does.
  MonteCarloOptions bounded;
  bounded.epsilon = 1e-12;
  QueryBudget deadline;
  deadline.deadline = Deadline::After(0.01);
  auto run = MonteCarloSkylineProbability(data, 0, model, bounded, deadline);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->truncated);
}

TEST(HoeffdingTest, EpsilonIsTheInverseOfSampleSize) {
  for (double epsilon : {0.1, 0.05, 0.01}) {
    for (double delta : {0.1, 0.01}) {
      std::uint64_t m = HoeffdingSampleSize(epsilon, delta);
      // The sample count is rounded up, so the certified epsilon is at
      // most the requested one.
      EXPECT_LE(HoeffdingEpsilon(m, delta), epsilon + 1e-12);
      EXPECT_GT(HoeffdingEpsilon(m, delta), 0.0);
    }
  }
}

TEST(HoeffdingTest, EpsilonWidensAsSamplesShrink) {
  EXPECT_GT(HoeffdingEpsilon(64, 0.01), HoeffdingEpsilon(3000, 0.01));
  // Vacuous bound on degenerate inputs: no samples, or no valid delta.
  EXPECT_EQ(HoeffdingEpsilon(0, 0.01), 1.0);
  EXPECT_EQ(HoeffdingEpsilon(100, 0.0), 1.0);
  EXPECT_EQ(HoeffdingEpsilon(100, 1.5), 1.0);
}

TEST(MonteCarloTest, ExpiredDeadlineReturnsPartialResult) {
  Dataset data = RandomSmallDataset(31, 10, 2, 4);
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 10000;
  QueryBudget budget;
  budget.deadline = Deadline::At(Deadline::Clock::now() -
                                 std::chrono::seconds(1));
  auto run = MonteCarloSkylineProbability(data, 0, model, options, budget);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->truncated);
  // The deadline is polled every 64 worlds, AFTER sampling, so the
  // partial estimate always rests on at least min(64, samples) draws.
  EXPECT_EQ(run->samples, 64u);
  EXPECT_EQ(run->requested_samples, 10000u);
  EXPECT_GE(run->estimate, 0.0);
  EXPECT_LE(run->estimate, 1.0);
}

TEST(MonteCarloTest, UnexpiredTimeLimitDrawsEverySample) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 200;
  QueryBudget budget;
  budget.time_limit_seconds = 3600.0;
  auto run = MonteCarloSkylineProbability(data, 0, model, options, budget);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->truncated);
  EXPECT_EQ(run->samples, 200u);
  EXPECT_EQ(run->requested_samples, 200u);
}

TEST(MonteCarloTest, PreCancelledTokenReturnsCancelled) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  CancelToken token;
  token.RequestCancel();
  MonteCarloOptions options;
  options.samples = 200;
  QueryBudget budget;
  budget.cancel = &token;
  EXPECT_EQ(MonteCarloSkylineProbability(data, 0, model, options, budget)
                .status()
                .code(),
            StatusCode::kCancelled);
}

}  // namespace
}  // namespace skypref

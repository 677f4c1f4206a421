#include "src/core/solver.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::Figure1Dataset;
using skypref::testing::ManyGroupsDataset;
using skypref::testing::RandomSmallDataset;
using skypref::testing::UnanimousHalfRational;

TEST(SolverTest, CreateValidatesDataset) {
  TablePreferenceModel model;
  Dataset empty(2);
  EXPECT_EQ(SkylineSolver::Create(empty, model).status().code(),
            StatusCode::kFailedPrecondition);
  Dataset dup(1);
  dup.Append({1}).CheckOK();
  dup.Append({1}).CheckOK();
  EXPECT_EQ(SkylineSolver::Create(dup, model).status().code(),
            StatusCode::kFailedPrecondition);
  Dataset ok = Figure1Dataset();
  EXPECT_TRUE(SkylineSolver::Create(ok, model).ok());
}

TEST(SolverTest, DetAndDetPlusAgreeOnExample1) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  SolverOptions plain;
  plain.preprocess = false;
  SolverOptions plus;
  plus.preprocess = true;
  EXPECT_DOUBLE_EQ(solver.Exact(0, plain).value(), 3.0 / 16.0);
  EXPECT_DOUBLE_EQ(solver.Exact(0, plus).value(), 3.0 / 16.0);
}

TEST(SolverTest, DetPlusStatsShowAbsorptionAndPartition) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  SolveStats stats;
  SolverOptions options;
  options.preprocess = true;
  ASSERT_TRUE(solver.Exact(0, options, &stats).ok());
  EXPECT_EQ(stats.candidates, 4u);
  EXPECT_EQ(stats.after_absorption, 3u);   // Q1 absorbed
  EXPECT_EQ(stats.groups, 3u);             // three singletons
  EXPECT_EQ(stats.largest_group, 1u);
  EXPECT_EQ(stats.subsets_visited, 3u);    // one subset per singleton
}

TEST(SolverTest, DetStatsWithoutPreprocess) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  SolveStats stats;
  SolverOptions options;
  options.preprocess = false;
  options.exact.prune_zero = false;
  ASSERT_TRUE(solver.Exact(0, options, &stats).ok());
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.largest_group, 4u);
  EXPECT_EQ(stats.subsets_visited, 15u);
}

TEST(SolverTest, SamAndSamPlusConvergeToTruth) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  for (bool preprocess : {false, true}) {
    SolverOptions options;
    options.preprocess = preprocess;
    options.monte_carlo.samples = 100000;
    options.monte_carlo.seed = 3;
    double estimate = solver.MonteCarlo(0, options).value();
    EXPECT_NEAR(estimate, 3.0 / 16.0, 0.01) << "preprocess=" << preprocess;
  }
}

TEST(SolverTest, SamPlusHandlesSingletonGroupsExactly) {
  // After preprocessing, Example 1 is all singletons: Sam+ becomes fully
  // exact and needs zero samples.
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  SolveStats stats;
  SolverOptions options;
  options.preprocess = true;
  double estimate = solver.MonteCarlo(0, options, &stats).value();
  EXPECT_DOUBLE_EQ(estimate, 3.0 / 16.0);
  EXPECT_EQ(stats.samples_drawn, 0u);
}

// Sam+ answers a singleton group in closed form, so a query whose groups
// are all singletons never reaches a sampler; it must still reject the
// options a sampler would, as the same query without preprocessing does.
TEST(SolverTest, SamPlusRejectsBadOptionsWhenEveryGroupIsASingleton) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;  // Pr = 1/2 both ways
  auto solver = SkylineSolver::Create(data, model).value();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (ObjectId target = 0; target < 3; ++target) {
    SolveStats stats;
    ASSERT_TRUE(solver.MonteCarlo(target, {}, &stats).ok());
    ASSERT_LE(stats.largest_group, 1u) << "target " << target;
    for (double bad : {kNaN, kInf, -1.0}) {
      for (bool preprocess : {true, false}) {
        SolverOptions epsilon;
        epsilon.preprocess = preprocess;
        epsilon.monte_carlo.epsilon = bad;
        SolverOptions delta = epsilon;
        delta.monte_carlo.epsilon = 0.01;
        delta.monte_carlo.delta = bad;
        for (const SolverOptions& options : {epsilon, delta}) {
          EXPECT_EQ(solver.MonteCarlo(target, options).status().code(),
                    StatusCode::kInvalidArgument)
              << "target " << target << " bad value " << bad
              << " preprocess " << preprocess;
        }
      }
    }
  }
}

TEST(SolverTest, IndependentBaselineAccessor) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  EXPECT_DOUBLE_EQ(solver.Independent(0).value(), 9.0 / 64.0);
}

TEST(SolverTest, AllTargetsDetEqualsDetPlus) {
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    Dataset data = RandomSmallDataset(seed, 10, 3, 4);
    TablePreferenceModel model;
    auto solver = SkylineSolver::Create(data, model).value();
    SolverOptions plain;
    plain.preprocess = false;
    SolverOptions plus;
    plus.preprocess = true;
    for (ObjectId target = 0; target < data.size(); ++target) {
      double det = solver.Exact(target, plain).value();
      double det_plus = solver.Exact(target, plus).value();
      EXPECT_NEAR(det, det_plus, 1e-12)
          << "seed=" << seed << " target=" << target;
    }
  }
}

TEST(SolverTest, RationalHelperWithAndWithoutPreprocess) {
  Dataset data = Example1Dataset();
  RationalPreferenceModel model = UnanimousHalfRational(data);
  Rational plain =
      ExactSkylineProbabilityRational(data, 0, model, false).value();
  Rational plus =
      ExactSkylineProbabilityRational(data, 0, model, true).value();
  EXPECT_EQ(plain, plus);
  EXPECT_EQ(plain, Rational::FromRatio(3, 16).value());
}

TEST(SolverTest, OutOfRangeTargets) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  EXPECT_EQ(solver.Exact(3).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(solver.MonteCarlo(3).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(solver.Independent(3).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(
      ExactSkylineProbabilityRational(data, 3, RationalPreferenceModel())
          .status()
          .code(),
      StatusCode::kOutOfRange);
}

TEST(SolverTest, ExactBudgetPropagatesFromOptions) {
  Dataset data = RandomSmallDataset(7, 14, 2, 4);
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  SolverOptions options;
  options.preprocess = false;
  options.exact.max_subsets = 10;
  options.exact.prune_zero = false;
  EXPECT_EQ(solver.Exact(0, options).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(SolverTest, OneDimensionalDataIsLinearViaPartition) {
  // The paper notes d = 1 is computable in O(n): all values are distinct,
  // so dominance events are independent. Det+ recovers this for free —
  // partition yields only singleton groups, one subset each.
  Dataset data(1);
  for (ValueId v = 0; v < 40; ++v) data.Append({v}).CheckOK();
  HashedPreferenceModel model(5,
                              HashedPreferenceModel::Style::kTotalUniform);
  auto solver = SkylineSolver::Create(data, model).value();
  SolveStats stats;
  double sky = solver.Exact(0, {}, &stats).value();
  EXPECT_EQ(stats.groups, 39u);
  EXPECT_EQ(stats.largest_group, 1u);
  EXPECT_EQ(stats.subsets_visited, 39u);  // one per candidate: linear
  // And it equals the independent product, which IS exact here.
  EXPECT_NEAR(sky, solver.Independent(0).value(), 1e-12);
}

TEST(SolverTest, SingleObjectDatasetIsAlwaysSkyline) {
  Dataset data(2);
  data.Append({3, 4}).CheckOK();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  EXPECT_DOUBLE_EQ(solver.Exact(0).value(), 1.0);
  EXPECT_DOUBLE_EQ(solver.MonteCarlo(0).value(), 1.0);
}

// Det+ resolves ONE deadline per query: 32 groups whose DFS (2^20
// subsets, about 20 ms each on a 2020s x86-64 core) finishes inside the
// limit on its own, but not all of them together.
TEST(SolverTest, ExactTimeLimitBoundsTheWholeQuery) {
  Dataset data = ManyGroupsDataset(32, 20);
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  SolverOptions options;
  options.budget.time_limit_seconds = 0.05;
  SolveStats stats;
  EXPECT_EQ(solver.Exact(0, options, &stats).status().code(),
            StatusCode::kResourceExhausted);
}

// The same in rationals: 12 groups of 2^13 subsets, about 140 ms each
// (the deadline is polled every 4096 subsets, so a group needs at least
// 13 candidates to poll it at all).
TEST(SolverTest, RationalTimeLimitBoundsTheWholeQuery) {
  Dataset data = ManyGroupsDataset(12, 13);
  RationalPreferenceModel model = UnanimousHalfRational(data);
  QueryBudget budget;
  budget.time_limit_seconds = 0.3;
  EXPECT_EQ(ExactSkylineProbabilityRational(data, 0, model, true, {}, budget)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

// Sam+ shares the query's deadline too: once it passes, every remaining
// group keeps a truncated estimate instead of drawing its full count.
TEST(SolverTest, MonteCarloTimeLimitBoundsTheWholeQuery) {
  constexpr std::size_t kGroups = 24;
  constexpr std::uint64_t kSamples = 400000;  // about 20 ms per group
  Dataset data = ManyGroupsDataset(kGroups, 6);
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  SolverOptions options;
  options.monte_carlo.samples = kSamples;
  options.budget.time_limit_seconds = 0.05;
  SolveStats stats;
  auto run = solver.MonteCarlo(0, options, &stats);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(stats.groups, kGroups);
  EXPECT_LT(stats.samples_drawn, kGroups * kSamples);
}

// Sam with a count that cannot complete and no deadline to stop it is
// rejected through the facade too; the guard turns a hang into Cancelled.
TEST(SolverTest, MonteCarloRejectsUnboundedSaturatedCount) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  for (double epsilon : {1e-12, std::numeric_limits<double>::quiet_NaN()}) {
    testing::CancelAfter guard(2.0);
    SolverOptions options;
    options.preprocess = false;  // one sampled group
    options.monte_carlo.epsilon = epsilon;
    options.budget.cancel = guard.token();
    EXPECT_EQ(solver.MonteCarlo(0, options).status().code(),
              StatusCode::kInvalidArgument)
        << "epsilon=" << epsilon;
  }
}

}  // namespace
}  // namespace skypref

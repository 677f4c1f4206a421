/// The resilient solve ladder (src/core/resilient.h). Contract under
/// test, matching the acceptance criteria of the degradation design:
///
///  * when no group exhausts, the result is bit-identical to
///    SkylineSolver::Exact with the same options, at every thread count;
///  * a group that exhausts its subset budget degrades to the sampled
///    rung with the epsilon/delta budget split evenly over the exhausted
///    groups, and the recombined error bar is exactly the sum of the
///    per-group epsilons (telescoping bound);
///  * with the query deadline already spent, the sampled rung is skipped
///    and the certified Bonferroni interval answers — whose product
///    provably sandwiches the exact value;
///  * cancellation aborts the whole ladder with Status::Cancelled;
///  * every degraded estimate is finite and annotated per group.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/core/resilient.h"
#include "src/core/solver.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::RandomSmallDataset;

/// Target (0,0) plus `blob` candidates (1, i) — pairwise connected
/// through the shared dim-0 value, so partition yields ONE group of size
/// `blob` that costs 2^blob - 1 DFS visits under unanimous preferences —
/// plus `singletons` candidates with globally unique values, each its own
/// trivially-exact group.
Dataset BlobAndSingletonsDataset(std::size_t blob, std::size_t singletons) {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  for (std::size_t i = 0; i < blob; ++i) {
    data.Append({1, static_cast<ValueId>(i + 1)}).CheckOK();
  }
  for (std::size_t s = 0; s < singletons; ++s) {
    ValueId v = static_cast<ValueId>(100 + s);
    data.Append({v, v}).CheckOK();
  }
  return data;
}

/// Two independent blobs (dim-0 values 1 and 2) of `blob` candidates
/// each, plus two singleton groups.
Dataset TwoBlobDataset(std::size_t blob) {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  for (std::size_t i = 0; i < blob; ++i) {
    data.Append({1, static_cast<ValueId>(i + 1)}).CheckOK();
    data.Append({2, static_cast<ValueId>(50 + i)}).CheckOK();
  }
  data.Append({200, 200}).CheckOK();
  data.Append({201, 201}).CheckOK();
  return data;
}

TEST(ResilientTest, FullyExactMatchesPlainSolverBitwise) {
  Dataset data = RandomSmallDataset(61, 18, 3, 4);
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  for (std::size_t threads : {0u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (ObjectId target = 0; target < data.size(); ++target) {
      auto run = ResilientSkylineProbability(data, target, model, pool);
      ASSERT_TRUE(run.ok()) << run.status();
      double exact = solver.Exact(target).value();
      EXPECT_EQ(run->estimate, exact)
          << "target " << target << " threads " << threads;
      EXPECT_TRUE(run->fully_exact);
      EXPECT_EQ(run->epsilon, 0.0);
      EXPECT_EQ(run->delta, 0.0);
      EXPECT_EQ(run->lower, run->upper);
      for (const GroupReport& g : run->groups) {
        EXPECT_EQ(g.quality, GroupQuality::kExact);
        EXPECT_TRUE(g.exact_status.ok());
      }
    }
  }
}

TEST(ResilientTest, ExhaustedGroupFallsBackToSampling) {
  Dataset data = BlobAndSingletonsDataset(12, 3);
  TablePreferenceModel model;
  ResilientOptions options;
  options.solver.exact.max_subsets = 500;  // the blob needs 4095 visits
  options.solver.monte_carlo.epsilon = 0.1;
  options.solver.monte_carlo.delta = 0.05;
  auto run = ResilientSkylineProbability(data, 0, model, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run->fully_exact);
  ASSERT_EQ(run->groups.size(), 4u);

  std::size_t sampled = 0;
  double epsilon_sum = 0.0;
  for (const GroupReport& g : run->groups) {
    epsilon_sum += g.epsilon;
    if (g.quality == GroupQuality::kSampled) {
      ++sampled;
      EXPECT_EQ(g.size, 12u);
      // Only one group exhausted, so it keeps the whole budget.
      EXPECT_EQ(g.epsilon, 0.1);
      EXPECT_EQ(g.delta, 0.05);
      EXPECT_GT(g.samples, 0u);
      EXPECT_EQ(g.exact_status.code(), StatusCode::kResourceExhausted);
    } else {
      EXPECT_EQ(g.quality, GroupQuality::kExact);
      EXPECT_EQ(g.epsilon, 0.0);
    }
  }
  EXPECT_EQ(sampled, 1u);
  // The recombined bar is the sum of the per-group bars (telescoping).
  EXPECT_EQ(run->epsilon, epsilon_sum);
  EXPECT_EQ(run->delta, 0.05);

  // The estimate stays within the annotated bar of the true value
  // (Hoeffding with a fixed seed; deterministic).
  auto solver = SkylineSolver::Create(data, model).value();
  double exact = solver.Exact(0).value();
  EXPECT_NEAR(run->estimate, exact, run->epsilon);
  EXPECT_GE(run->estimate, run->lower);
  EXPECT_LE(run->estimate, run->upper);
}

TEST(ResilientTest, ErrorBudgetSplitsAcrossExhaustedGroups) {
  Dataset data = TwoBlobDataset(10);
  TablePreferenceModel model;
  ResilientOptions options;
  options.solver.exact.max_subsets = 500;  // each blob needs 1023 visits
  options.solver.monte_carlo.epsilon = 0.1;
  options.solver.monte_carlo.delta = 0.02;
  auto run = ResilientSkylineProbability(data, 0, model, options);
  ASSERT_TRUE(run.ok()) << run.status();
  std::size_t sampled = 0;
  double epsilon_sum = 0.0;
  for (const GroupReport& g : run->groups) {
    epsilon_sum += g.epsilon;
    if (g.quality != GroupQuality::kSampled) continue;
    ++sampled;
    // Both blobs exhausted: each gets half the epsilon and delta budget.
    EXPECT_EQ(g.epsilon, 0.05);
    EXPECT_EQ(g.delta, 0.01);
  }
  EXPECT_EQ(sampled, 2u);
  EXPECT_EQ(run->epsilon, epsilon_sum);
  EXPECT_EQ(run->epsilon, 0.1);
  EXPECT_EQ(run->delta, 0.02);
}

TEST(ResilientTest, ExpiredDeadlineFallsBackToCertifiedBounds) {
  Dataset data = BlobAndSingletonsDataset(12, 2);
  TablePreferenceModel model;
  ResilientOptions options;
  options.solver.exact.max_subsets = 500;
  options.solver.budget.deadline =
      Deadline::At(Deadline::Clock::now() - std::chrono::seconds(1));
  auto run = ResilientSkylineProbability(data, 0, model, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run->fully_exact);
  std::size_t bounded = 0;
  for (const GroupReport& g : run->groups) {
    if (g.quality != GroupQuality::kBounded) continue;
    ++bounded;
    EXPECT_EQ(g.size, 12u);
    EXPECT_LE(g.lower, g.upper);
    EXPECT_EQ(g.delta, 0.0);  // the interval is certified, not probabilistic
    EXPECT_EQ(g.epsilon, 0.5 * (g.upper - g.lower));
    EXPECT_EQ(g.samples, 0u);
  }
  EXPECT_EQ(bounded, 1u);
  // The certified interval product sandwiches the exact value.
  auto solver = SkylineSolver::Create(data, model).value();
  double exact = solver.Exact(0).value();
  EXPECT_LE(run->lower, exact);
  EXPECT_GE(run->upper, exact);
  EXPECT_EQ(run->delta, 0.0);
}

TEST(ResilientTest, ThreadCountInvarianceUnderDegradation) {
  Dataset data = TwoBlobDataset(10);
  TablePreferenceModel model;
  ResilientOptions options;
  options.solver.exact.max_subsets = 500;
  options.solver.monte_carlo.epsilon = 0.1;
  options.solver.monte_carlo.delta = 0.02;
  ThreadPool pool0(0), pool1(1), pool2(2), pool8(8);
  auto a = ResilientSkylineProbability(data, 0, model, pool0, options);
  auto b = ResilientSkylineProbability(data, 0, model, pool1, options);
  auto c = ResilientSkylineProbability(data, 0, model, pool2, options);
  auto d = ResilientSkylineProbability(data, 0, model, pool8, options);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  for (const auto* other : {&*b, &*c, &*d}) {
    EXPECT_EQ(a->estimate, other->estimate);
    EXPECT_EQ(a->epsilon, other->epsilon);
    EXPECT_EQ(a->lower, other->lower);
    EXPECT_EQ(a->upper, other->upper);
    ASSERT_EQ(a->groups.size(), other->groups.size());
    for (std::size_t g = 0; g < a->groups.size(); ++g) {
      EXPECT_EQ(a->groups[g].quality, other->groups[g].quality);
      EXPECT_EQ(a->groups[g].survival, other->groups[g].survival);
      EXPECT_EQ(a->groups[g].samples, other->groups[g].samples);
    }
  }
}

TEST(ResilientTest, PreCancelledTokenAbortsAtEveryThreadCount) {
  Dataset data = BlobAndSingletonsDataset(10, 2);
  TablePreferenceModel model;
  CancelToken token;
  token.RequestCancel();
  ResilientOptions options;
  options.solver.budget.cancel = &token;
  for (std::size_t threads : {0u, 1u, 2u, 8u}) {
    ThreadPool pool(threads);
    auto run = ResilientSkylineProbability(data, 0, model, pool, options);
    EXPECT_EQ(run.status().code(), StatusCode::kCancelled)
        << "threads " << threads;
  }
}

// The sampled rung runs the bit-sliced engine, so the ladder checks
// solver.monte_carlo against that engine's rule at entry: a block_size
// that is not a multiple of 64, or a NaN epsilon, is InvalidArgument
// instead of a bounded answer with no word on why sampling never ran.
TEST(ResilientTest, RejectsSamplingOptionsTheSampledRungCannotRun) {
  Dataset data = BlobAndSingletonsDataset(12, 2);
  TablePreferenceModel model;
  ResilientOptions bad_block;
  bad_block.solver.exact.max_subsets = 500;  // the blob needs 4095 visits
  bad_block.solver.monte_carlo.block_size = 100;
  ResilientOptions nan_epsilon;
  nan_epsilon.solver.exact.max_subsets = 500;
  nan_epsilon.solver.monte_carlo.epsilon =
      std::numeric_limits<double>::quiet_NaN();
  ThreadPool pool(2);
  for (const ResilientOptions& options : {bad_block, nan_epsilon}) {
    EXPECT_EQ(
        ResilientSkylineProbability(data, 0, model, options).status().code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(ResilientBatchSkylineProbabilities(data, model, pool, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(ResilientTest, SingleObjectDatasetIsCertainSkyline) {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  TablePreferenceModel model;
  auto run = ResilientSkylineProbability(data, 0, model);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->estimate, 1.0);
  EXPECT_TRUE(run->fully_exact);
  EXPECT_TRUE(run->groups.empty());
}

TEST(ResilientTest, OutOfRangeTargetIsRejected) {
  Dataset data = BlobAndSingletonsDataset(3, 0);
  TablePreferenceModel model;
  auto run = ResilientSkylineProbability(data, data.size(), model);
  EXPECT_EQ(run.status().code(), StatusCode::kOutOfRange);
}

TEST(ResilientTest, QualityNamesAreStable) {
  EXPECT_STREQ(GroupQualityToString(GroupQuality::kExact), "exact");
  EXPECT_STREQ(GroupQualityToString(GroupQuality::kSampled), "sampled");
  EXPECT_STREQ(GroupQualityToString(GroupQuality::kBounded), "bounded");
}

TEST(ResilientBatchTest, SalvagesEveryBudgetStarvedTarget) {
  Dataset data = RandomSmallDataset(73, 12, 2, 4);
  TablePreferenceModel model;
  ThreadPool pool(2);
  ResilientOptions options;
  // Groups of size >= 2 exceed one visit; singletons still finish, so
  // targets degrade only where a multi-candidate group exists.
  options.solver.exact.max_subsets = 1;
  options.solver.monte_carlo.samples = 300;
  auto run = ResilientBatchSkylineProbabilities(data, model, pool, options);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->estimates.size(), data.size());
  auto solver = SkylineSolver::Create(data, model).value();
  SolverOptions tight = options.solver;
  std::size_t degraded = 0;
  for (ObjectId t = 0; t < data.size(); ++t) {
    EXPECT_TRUE(std::isfinite(run->estimates[t])) << "target " << t;
    EXPECT_GE(run->estimates[t], 0.0);
    EXPECT_LE(run->estimates[t], 1.0);
    if (run->batch_stats.target_status[t].ok()) {
      // Bit-identical to the plain exact solve under the same options.
      EXPECT_EQ(run->estimates[t], solver.Exact(t, tight).value());
      EXPECT_EQ(run->quality[t], GroupQuality::kExact);
      EXPECT_EQ(run->epsilons[t], 0.0);
    } else {
      ++degraded;
      EXPECT_NE(run->quality[t], GroupQuality::kExact);
      EXPECT_GT(run->epsilons[t], 0.0);
      // The salvaged estimate is within its annotated bar of the true
      // value (fixed seed; deterministic).
      EXPECT_NEAR(run->estimates[t], solver.Exact(t).value(),
                  run->epsilons[t])
          << "target " << t;
    }
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(run->degraded_targets, degraded);
}

}  // namespace
}  // namespace skypref

#include "src/core/sam_bitslice.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/monte_carlo.h"
#include "src/core/sam_parallel.h"
#include "src/core/solver.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::Figure1Dataset;
using skypref::testing::RandomSmallDataset;
using skypref::testing::UnanimousHalfRational;

// The thread counts every determinism contract in this repo is pinned
// against (0 = inline execution on the calling thread).
const std::size_t kThreadCounts[] = {0, 1, 2, 8};

TEST(BitSlicedSamTest, BitIdenticalAcrossThreadCounts) {
  Dataset data = RandomSmallDataset(17, 24, 3, 4);
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 5000;
  options.block_size = 256;
  options.seed = 99;

  ThreadPool baseline_pool(0);
  auto baseline = BitSlicedMonteCarloSkylineProbability(data, 0, model,
                                                        baseline_pool, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  EXPECT_EQ(baseline->samples, 5000u);
  EXPECT_FALSE(baseline->truncated);

  for (std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto run =
        BitSlicedMonteCarloSkylineProbability(data, 0, model, pool, options);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->skyline_worlds, baseline->skyline_worlds)
        << "threads=" << threads;
    EXPECT_EQ(run->samples, baseline->samples) << "threads=" << threads;
    EXPECT_EQ(run->pair_draws, baseline->pair_draws) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(run->estimate, baseline->estimate)
        << "threads=" << threads;
  }
}

TEST(BitSlicedSamTest, RejectsBlockSizeNotAMultipleOf64) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(0);
  for (std::uint64_t block_size : {std::uint64_t{0}, std::uint64_t{100},
                                   std::uint64_t{63}}) {
    MonteCarloOptions options;
    options.samples = 128;
    options.block_size = block_size;
    EXPECT_EQ(
        BitSlicedMonteCarloSkylineProbability(data, 0, model, pool, options)
            .status()
            .code(),
        StatusCode::kInvalidArgument)
        << "block_size=" << block_size;
  }
}

// A saturated Hoeffding count (epsilon = 1e-12 or NaN) is rejected, not
// wrapped to zero blocks and a 0/0 estimate.
TEST(BitSlicedSamTest, SaturatedSampleCountRejected) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(0);
  for (double epsilon : {1e-12, std::numeric_limits<double>::quiet_NaN()}) {
    MonteCarloOptions options;
    options.epsilon = epsilon;
    EXPECT_EQ(
        BitSlicedMonteCarloSkylineProbability(data, 0, model, pool, options)
            .status()
            .code(),
        StatusCode::kInvalidArgument)
        << "epsilon=" << epsilon;
  }
}

TEST(BitSlicedSamTest, PartialTrailingChunkCountsOnlyValidLanes) {
  Dataset data = RandomSmallDataset(17, 24, 3, 4);
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 1000;  // 3 full blocks of 256 plus 232 = 3 chunks + 40
  options.block_size = 256;
  ThreadPool pool(2);
  auto run =
      BitSlicedMonteCarloSkylineProbability(data, 0, model, pool, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->samples, 1000u);
  EXPECT_FALSE(run->truncated);
  EXPECT_LE(run->skyline_worlds, 1000u);
}

TEST(BitSlicedSamTest, ConvergesToExample1Truth) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 200000;
  options.seed = 34;
  ThreadPool pool(2);
  auto result =
      BitSlicedMonteCarloSkylineProbability(data, 0, model, pool, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, 3.0 / 16.0, 0.005);
  // NOT the independent baseline's 9/64: mask memoization shares value-
  // pair outcomes across candidates within every world of a chunk.
  EXPECT_GT(result->estimate, 0.17);
}

TEST(BitSlicedSamTest, CertainPreferencesGiveExactAnswerEveryWorld) {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  data.Append({1, 1}).CheckOK();
  TablePreferenceModel model;
  model.Set(0, 1, 0, 1.0, 0.0).CheckOK();
  model.Set(1, 1, 0, 1.0, 0.0).CheckOK();
  MonteCarloOptions options;
  options.samples = 100;
  ThreadPool pool(2);
  // The p = 1 sentinel must produce the all-ones mask and p = 0 the zero
  // mask on every chunk — certain preferences may not leak wrong lanes.
  auto dominated =
      BitSlicedMonteCarloSkylineProbability(data, 0, model, pool, options);
  ASSERT_TRUE(dominated.ok());
  EXPECT_DOUBLE_EQ(dominated->estimate, 0.0);
  auto dominator =
      BitSlicedMonteCarloSkylineProbability(data, 1, model, pool, options);
  ASSERT_TRUE(dominator.ok());
  EXPECT_DOUBLE_EQ(dominator->estimate, 1.0);
}

TEST(BitSlicedSamTest, RationalRefereeHoeffdingBoundHoldsAcrossSeeds) {
  // The rational-referee check: unanimous-1/2 preferences admit a
  // bit-exact rational truth, so the engine's estimates can be judged
  // against the real answer, not another sampler. Each run certifies
  // |estimate - truth| < epsilon with probability 0.99; over 40 seeds,
  // more than 2 violations would be a broken sampler, not bad luck.
  Dataset data = RandomSmallDataset(10, 8, 2, 3);
  RationalPreferenceModel model = UnanimousHalfRational(data);
  auto truth = ExactSkylineProbabilityRational(data, 0, model);
  ASSERT_TRUE(truth.ok()) << truth.status();
  const double epsilon = 0.05;
  int violations = 0;
  ThreadPool pool(2);
  for (int seed = 0; seed < 40; ++seed) {
    MonteCarloOptions options;
    options.epsilon = epsilon;
    options.delta = 0.01;
    options.seed = static_cast<std::uint64_t>(seed) + 1;
    auto result =
        BitSlicedMonteCarloSkylineProbability(data, 0, model, pool, options);
    ASSERT_TRUE(result.ok());
    if (std::abs(result->estimate - truth->ToDouble()) >= epsilon) {
      ++violations;
    }
  }
  EXPECT_LE(violations, 2);
}

TEST(BitSlicedSamTest, EagerModeEstimatesTheSameProbability) {
  // lazy = false draws every pair mask per chunk (a different, equally
  // valid stream); both modes must agree within their summed error bars.
  Dataset data = RandomSmallDataset(17, 24, 3, 4);
  TablePreferenceModel model;
  MonteCarloOptions lazy;
  lazy.samples = 50000;
  MonteCarloOptions eager = lazy;
  eager.lazy = false;
  ThreadPool pool(2);
  auto a = BitSlicedMonteCarloSkylineProbability(data, 0, model, pool, lazy);
  auto b = BitSlicedMonteCarloSkylineProbability(data, 0, model, pool, eager);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->estimate, b->estimate, 2.0 * HoeffdingEpsilon(50000, 0.01));
  // Eager materializes every mask; lazy must never draw more.
  EXPECT_LE(a->pair_draws, b->pair_draws);
}

TEST(BitSlicedSamTest, PreExpiredDeadlineTruncatesIdenticallyPerThreadCount) {
  Dataset data = RandomSmallDataset(31, 10, 2, 4);
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 10000;
  options.block_size = 512;
  QueryBudget budget;
  budget.deadline = Deadline::At(Deadline::Clock::now() -
                                 std::chrono::seconds(1));

  ThreadPool baseline_pool(0);
  auto baseline = BitSlicedMonteCarloSkylineProbability(
      data, 0, model, baseline_pool, options, budget);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  EXPECT_TRUE(baseline->truncated);
  // Block 0 polls after its first 64-world chunk and keeps the partial
  // prefix: a pre-expired deadline still yields exactly one chunk — the
  // same min(64, samples) floor as the scalar engines.
  EXPECT_EQ(baseline->samples, 64u);
  EXPECT_EQ(baseline->requested_samples, 10000u);

  for (std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto run = BitSlicedMonteCarloSkylineProbability(data, 0, model, pool,
                                                     options, budget);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_TRUE(run->truncated) << "threads=" << threads;
    EXPECT_EQ(run->samples, baseline->samples) << "threads=" << threads;
    EXPECT_EQ(run->skyline_worlds, baseline->skyline_worlds)
        << "threads=" << threads;
    EXPECT_EQ(run->pair_draws, baseline->pair_draws) << "threads=" << threads;
  }
}

TEST(BitSlicedSamTest, PreCancelledTokenReturnsCancelled) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  CancelToken token;
  token.RequestCancel();
  MonteCarloOptions options;
  options.samples = 200;
  QueryBudget budget;
  budget.cancel = &token;
  ThreadPool pool(2);
  EXPECT_EQ(BitSlicedMonteCarloSkylineProbability(data, 0, model, pool,
                                                  options, budget)
                .status()
                .code(),
            StatusCode::kCancelled);
}

TEST(SolverEngineTest, BitSlicedEngineThroughSolverMatchesDirectCall) {
  Dataset data = RandomSmallDataset(13, 14, 2, 4);
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model);
  ASSERT_TRUE(solver.ok());
  SolverOptions options;
  options.monte_carlo.engine = MonteCarloOptions::Engine::kBitSliced;
  options.monte_carlo.samples = 2048;
  ThreadPool pool(2);
  // Poolless overload runs the bit-sliced engine inline; both must agree
  // bit for bit (the engine's thread-count contract, surfaced through
  // the facade).
  auto inline_run = solver->MonteCarlo(0, options);
  auto pooled_run = solver->MonteCarlo(0, options, pool);
  ASSERT_TRUE(inline_run.ok()) << inline_run.status();
  ASSERT_TRUE(pooled_run.ok()) << pooled_run.status();
  EXPECT_DOUBLE_EQ(*inline_run, *pooled_run);
}

}  // namespace
}  // namespace skypref

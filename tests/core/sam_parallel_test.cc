#include "src/core/sam_parallel.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/monte_carlo.h"
#include "src/core/sam_bitslice.h"
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

TEST(BernoulliThresholdTest, EndpointsAndMonotonicity) {
  EXPECT_EQ(internal::BernoulliThreshold(0.0), 0u);
  EXPECT_EQ(internal::BernoulliThreshold(-1.0), 0u);
  EXPECT_EQ(internal::BernoulliThreshold(1.0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(internal::BernoulliThreshold(2.0),
            std::numeric_limits<std::uint64_t>::max());
  // The sentinel is unreachable for p < 1: ldexp(p, 64) stays clear of
  // 2^64 - 1 for every representable double below one.
  double just_below_one = std::nextafter(1.0, 0.0);
  EXPECT_LT(internal::BernoulliThreshold(just_below_one),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_LT(internal::BernoulliThreshold(0.25),
            internal::BernoulliThreshold(0.5));
  EXPECT_LT(internal::BernoulliThreshold(0.5),
            internal::BernoulliThreshold(0.75));
  // p = 1/2 is exactly representable: the cut is 2^63.
  EXPECT_EQ(internal::BernoulliThreshold(0.5), std::uint64_t{1} << 63);
}

TEST(BernoulliThresholdTest, ThresholdHitSemantics) {
  EXPECT_FALSE(internal::ThresholdHit(0, 0));
  EXPECT_TRUE(internal::ThresholdHit(0, 1));
  EXPECT_FALSE(internal::ThresholdHit(1, 1));
  // The "always" sentinel hits even for the maximal draw.
  EXPECT_TRUE(internal::ThresholdHit(
      std::numeric_limits<std::uint64_t>::max(),
      std::numeric_limits<std::uint64_t>::max()));
}

TEST(BlockSamTest, BitIdenticalAcrossThreadCounts) {
  Dataset data = RandomSmallDataset(17, 24, 3, 4);
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 5000;
  options.block_size = 256;
  options.seed = 99;

  ThreadPool baseline_pool(0);
  auto baseline =
      BlockMonteCarloSkylineProbability(data, 0, model, baseline_pool,
                                        options);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  EXPECT_EQ(baseline->samples, 5000u);
  EXPECT_FALSE(baseline->truncated);

  for (std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto run =
        BlockMonteCarloSkylineProbability(data, 0, model, pool, options);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->skyline_worlds, baseline->skyline_worlds)
        << "threads=" << threads;
    EXPECT_EQ(run->samples, baseline->samples) << "threads=" << threads;
    EXPECT_EQ(run->pair_draws, baseline->pair_draws) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(run->estimate, baseline->estimate)
        << "threads=" << threads;
  }
}

TEST(BlockSamTest, BlockSizeIsPartOfTheNumericContract) {
  Dataset data = RandomSmallDataset(17, 24, 3, 4);
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 4096;
  options.seed = 5;
  ThreadPool pool(2);
  options.block_size = 256;
  auto fine = BlockMonteCarloSkylineProbability(data, 0, model, pool, options);
  options.block_size = 1024;
  auto coarse =
      BlockMonteCarloSkylineProbability(data, 0, model, pool, options);
  ASSERT_TRUE(fine.ok());
  ASSERT_TRUE(coarse.ok());
  // Different block sizes define different streams (both valid estimates
  // of the same probability).
  EXPECT_NE(fine->skyline_worlds, coarse->skyline_worlds);
}

TEST(BlockSamTest, LastPartialBlockIsCounted) {
  Dataset data = RandomSmallDataset(17, 24, 3, 4);
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 1000;  // 3 full blocks of 256 plus one of 232
  options.block_size = 256;
  ThreadPool pool(2);
  auto run = BlockMonteCarloSkylineProbability(data, 0, model, pool, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->samples, 1000u);
  EXPECT_EQ(run->requested_samples, 1000u);
  EXPECT_FALSE(run->truncated);
}

TEST(BlockSamTest, ConvergesToExample1Truth) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 200000;
  options.seed = 34;
  ThreadPool pool(2);
  auto result = BlockMonteCarloSkylineProbability(data, 0, model, pool,
                                                  options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, 3.0 / 16.0, 0.005);
  // NOT the independent baseline's 9/64: the flat sampler shares value-
  // pair outcomes across candidates within a world, like the serial one.
  EXPECT_GT(result->estimate, 0.17);
}

TEST(BlockSamTest, CertainPreferencesGiveExactAnswerEveryWorld) {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  data.Append({1, 1}).CheckOK();
  TablePreferenceModel model;
  model.Set(0, 1, 0, 1.0, 0.0).CheckOK();
  model.Set(1, 1, 0, 1.0, 0.0).CheckOK();
  MonteCarloOptions options;
  options.samples = 100;
  ThreadPool pool(2);
  // The p = 1 sentinel threshold must hit on EVERY draw, and p = 0 on
  // none — otherwise certain preferences would leak wrong worlds.
  auto dominated =
      BlockMonteCarloSkylineProbability(data, 0, model, pool, options);
  ASSERT_TRUE(dominated.ok());
  EXPECT_DOUBLE_EQ(dominated->estimate, 0.0);
  auto dominator =
      BlockMonteCarloSkylineProbability(data, 1, model, pool, options);
  ASSERT_TRUE(dominator.ok());
  EXPECT_DOUBLE_EQ(dominator->estimate, 1.0);
}

TEST(BlockSamTest, HoeffdingBoundHoldsAcrossSeeds) {
  Dataset data = RandomSmallDataset(10, 8, 2, 3);
  TablePreferenceModel model;
  double truth = ExactSkylineProbability(data, 0, model).value();
  const double epsilon = 0.05;
  int violations = 0;
  ThreadPool pool(2);
  for (int seed = 0; seed < 40; ++seed) {
    MonteCarloOptions options;
    options.epsilon = epsilon;
    options.delta = 0.01;
    options.seed = static_cast<std::uint64_t>(seed) + 1;
    auto result =
        BlockMonteCarloSkylineProbability(data, 0, model, pool, options);
    ASSERT_TRUE(result.ok());
    if (std::abs(result->estimate - truth) >= epsilon) ++violations;
  }
  EXPECT_LE(violations, 2);
}

TEST(BlockSamTest, PreExpiredDeadlineTruncatesIdenticallyPerThreadCount) {
  Dataset data = RandomSmallDataset(31, 10, 2, 4);
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 10000;
  options.block_size = 512;
  QueryBudget budget;
  budget.deadline = Deadline::At(Deadline::Clock::now() -
                                 std::chrono::seconds(1));

  ThreadPool baseline_pool(0);
  auto baseline =
      BlockMonteCarloSkylineProbability(data, 0, model, baseline_pool,
                                        options, budget);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  EXPECT_TRUE(baseline->truncated);
  // Block 0 polls at the serial cadence and keeps its partial prefix, so
  // a pre-expired deadline still yields min(64, samples) worlds — the
  // serial engine's floor.
  EXPECT_EQ(baseline->samples, 64u);
  EXPECT_EQ(baseline->requested_samples, 10000u);

  for (std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto run = BlockMonteCarloSkylineProbability(data, 0, model, pool, options,
                                                 budget);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_TRUE(run->truncated) << "threads=" << threads;
    EXPECT_EQ(run->samples, baseline->samples) << "threads=" << threads;
    EXPECT_EQ(run->skyline_worlds, baseline->skyline_worlds)
        << "threads=" << threads;
    EXPECT_EQ(run->pair_draws, baseline->pair_draws) << "threads=" << threads;
  }
}

TEST(BlockSamTest, PreCancelledTokenReturnsCancelled) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  CancelToken token;
  token.RequestCancel();
  MonteCarloOptions options;
  options.samples = 200;
  QueryBudget budget;
  budget.cancel = &token;
  ThreadPool pool(2);
  EXPECT_EQ(BlockMonteCarloSkylineProbability(data, 0, model, pool, options,
                                              budget)
                .status()
                .code(),
            StatusCode::kCancelled);
}

TEST(BlockSamTest, InvalidArgumentsRejected) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(0);
  MonteCarloOptions bad;
  bad.samples = 0;
  bad.epsilon = 0.0;
  EXPECT_EQ(BlockMonteCarloSkylineProbability(data, 0, model, pool, bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  MonteCarloOptions zero_block;
  zero_block.samples = 100;
  zero_block.block_size = 0;
  EXPECT_EQ(
      BlockMonteCarloSkylineProbability(data, 0, model, pool, zero_block)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(BlockMonteCarloSkylineProbability(data, 42, model, pool, {})
                .status()
                .code(),
            StatusCode::kOutOfRange);
  std::vector<ObjectId> self{0};
  EXPECT_EQ(BlockMonteCarloSkylineProbability(data, 0, self, model, pool, {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// epsilon = 1e-12 (or NaN) saturates the Hoeffding count at UINT64_MAX.
// The deadline-bounded kSerial loop runs such a request until its time
// limit; the block engine would need more blocks than it can count and
// rejects it.
TEST(BlockSamTest, SaturatedSampleCountRejected) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(0);
  for (double epsilon : {1e-12, std::numeric_limits<double>::quiet_NaN()}) {
    MonteCarloOptions options;
    options.epsilon = epsilon;
    EXPECT_EQ(BlockMonteCarloSkylineProbability(data, 0, model, pool, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "epsilon=" << epsilon;
  }
  MonteCarloOptions serial;
  serial.epsilon = 1e-12;
  QueryBudget budget;
  budget.time_limit_seconds = 0.01;
  auto run = MonteCarloSkylineProbability(data, 0, model, serial, budget);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->truncated);
  EXPECT_GT(run->samples, 0u);
}

// One front end serves every engine: the same malformed request fails
// with the same code whichever engine runs it, and a pre-cancelled token
// stops each one before any world is drawn. Only the block-size rule is
// engine-specific (kSerial has no blocks).
TEST(SamEngineTest, RequestErrorsMatchAcrossEngines) {
  using Engine = MonteCarloOptions::Engine;
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  CancelToken cancelled;
  cancelled.RequestCancel();
  MonteCarloOptions valid;
  valid.samples = 200;
  MonteCarloOptions no_samples;
  no_samples.samples = 0;
  no_samples.epsilon = 0.0;
  QueryBudget pre_cancelled;
  pre_cancelled.cancel = &cancelled;
  MonteCarloOptions zero_block = valid;
  zero_block.block_size = 0;
  const std::vector<ObjectId> others = {1, 2};

  struct Case {
    const char* name;
    ObjectId target;
    std::vector<ObjectId> candidates;
    MonteCarloOptions options;
    QueryBudget budget;
    StatusCode serial, block, bit_sliced;
  };
  const Case cases[] = {
      {"no samples", 0, others, no_samples, {}, StatusCode::kInvalidArgument,
       StatusCode::kInvalidArgument, StatusCode::kInvalidArgument},
      {"target out of range", 42, others, valid, {}, StatusCode::kOutOfRange,
       StatusCode::kOutOfRange, StatusCode::kOutOfRange},
      {"candidate out of range", 0, {1, 42}, valid, {},
       StatusCode::kOutOfRange, StatusCode::kOutOfRange,
       StatusCode::kOutOfRange},
      {"candidate is the target", 0, {0}, valid, {},
       StatusCode::kInvalidArgument, StatusCode::kInvalidArgument,
       StatusCode::kInvalidArgument},
      {"zero block size", 0, others, zero_block, {}, StatusCode::kOk,
       StatusCode::kInvalidArgument, StatusCode::kInvalidArgument},
      {"pre-cancelled token", 0, others, valid, pre_cancelled,
       StatusCode::kCancelled, StatusCode::kCancelled,
       StatusCode::kCancelled},
  };
  ThreadPool pool(2);
  for (const Case& c : cases) {
    for (Engine engine :
         {Engine::kSerial, Engine::kBlock, Engine::kBitSliced}) {
      const MonteCarloOptions& options = c.options;
      Result<MonteCarloResult> run =
          engine == Engine::kSerial
              ? MonteCarloSkylineProbability(data, c.target, c.candidates,
                                             model, options, c.budget)
          : engine == Engine::kBlock
              ? BlockMonteCarloSkylineProbability(data, c.target, c.candidates,
                                                  model, pool, options,
                                                  c.budget)
              : BitSlicedMonteCarloSkylineProbability(
                    data, c.target, c.candidates, model, pool, options,
                    c.budget);
      const StatusCode want = engine == Engine::kSerial  ? c.serial
                              : engine == Engine::kBlock ? c.block
                                                         : c.bit_sliced;
      EXPECT_EQ(run.status().code(), want)
          << c.name << ", engine " << static_cast<int>(engine);
    }
  }
}

TEST(BatchSamTest, BitIdenticalAcrossThreadCounts) {
  Dataset data = RandomSmallDataset(23, 20, 3, 4);
  TablePreferenceModel model;
  SolverOptions options;
  options.monte_carlo.samples = 3000;
  options.monte_carlo.block_size = 512;
  options.monte_carlo.seed = 77;

  ThreadPool baseline_pool(0);
  BatchSamStats baseline_stats;
  auto baseline = BatchMonteCarloSkylineProbabilities(
      data, model, baseline_pool, options, &baseline_stats);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_EQ(baseline->size(), data.size());
  EXPECT_EQ(baseline_stats.samples, 3000u);
  EXPECT_FALSE(baseline_stats.truncated);

  for (std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    BatchSamStats stats;
    auto run = BatchMonteCarloSkylineProbabilities(data, model, pool, options,
                                                   &stats);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(*run, *baseline) << "threads=" << threads;
    EXPECT_EQ(stats.pair_draws, baseline_stats.pair_draws)
        << "threads=" << threads;
    EXPECT_EQ(stats.samples, baseline_stats.samples) << "threads=" << threads;
  }
}

TEST(BatchSamTest, MatchesRationalTruthWithinHoeffdingBar) {
  // The rational-referee workload: unanimous-1/2 preferences admit an
  // exact rational answer per target, so every batch estimate can be
  // checked against bit-exact truth at its marginal (epsilon, delta).
  Dataset data = RandomSmallDataset(11, 12, 2, 4);
  RationalPreferenceModel model = UnanimousHalfRational(data);
  SolverOptions options;
  options.monte_carlo.epsilon = 0.05;
  options.monte_carlo.delta = 0.01;
  options.monte_carlo.seed = 2013;
  ThreadPool pool(2);
  auto batch = BatchMonteCarloSkylineProbabilities(data, model, pool, options);
  ASSERT_TRUE(batch.ok()) << batch.status();

  int violations = 0;
  for (ObjectId t = 0; t < data.size(); ++t) {
    auto truth = ExactSkylineProbabilityRational(data, t, model);
    ASSERT_TRUE(truth.ok()) << truth.status();
    if (std::abs((*batch)[t] - truth->ToDouble()) >= 0.05) ++violations;
  }
  // Each of the 12 marginal guarantees fails with probability <= 0.01;
  // allow one unlucky target.
  EXPECT_LE(violations, 1);
}

TEST(BatchSamTest, AgreesWithPerTargetBlockSamAndSharesDraws) {
  Dataset data = RandomSmallDataset(41, 16, 2, 5);
  TablePreferenceModel model;
  SolverOptions options;
  options.monte_carlo.samples = 4096;
  options.monte_carlo.seed = 8;
  ThreadPool pool(2);

  BatchSamStats stats;
  auto batch = BatchMonteCarloSkylineProbabilities(data, model, pool, options,
                                                   &stats);
  ASSERT_TRUE(batch.ok()) << batch.status();

  std::uint64_t per_target_draws = 0;
  for (ObjectId t = 0; t < data.size(); ++t) {
    auto single = BlockMonteCarloSkylineProbability(data, t, model, pool,
                                                    options.monte_carlo);
    ASSERT_TRUE(single.ok()) << single.status();
    per_target_draws += single->pair_draws;
    // Both estimate the same probability from the same world count; with
    // m = 4096 the Hoeffding bar at delta = 0.01 is ~0.025 each, so the
    // estimates must sit within the summed bars of each other.
    double bar = 2.0 * HoeffdingEpsilon(4096, 0.01);
    EXPECT_NEAR((*batch)[t], single->estimate, bar) << "target=" << t;
  }
  // The world-sharing win the batch exists for: one ternary draw serves
  // every target of the world, instead of per-target redraws.
  EXPECT_LT(stats.pair_draws, per_target_draws);
  EXPECT_EQ(stats.samples, 4096u);
  EXPECT_EQ(stats.targets, data.size());
  EXPECT_GT(stats.distinct_pairs, 0u);
}

TEST(BatchSamTest, PreprocessingTogglesAbsorption) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(0);
  SolverOptions with;
  with.monte_carlo.samples = 50000;
  SolverOptions without = with;
  without.preprocess = false;
  BatchSamStats with_stats;
  BatchSamStats without_stats;
  auto a = BatchMonteCarloSkylineProbabilities(data, model, pool, with,
                                               &with_stats);
  auto b = BatchMonteCarloSkylineProbabilities(data, model, pool, without,
                                               &without_stats);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Q1 is absorbed by Q2 for target O; absorption never changes the
  // estimated quantity, only the per-world work.
  EXPECT_GT(with_stats.absorbed, 0u);
  EXPECT_EQ(without_stats.absorbed, 0u);
  EXPECT_NEAR((*a)[0], 3.0 / 16.0, 0.01);
  EXPECT_NEAR((*b)[0], 3.0 / 16.0, 0.01);
}

TEST(BatchSamTest, PreCancelledTokenReturnsCancelled) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  CancelToken token;
  token.RequestCancel();
  SolverOptions options;
  options.monte_carlo.samples = 100;
  options.budget.cancel = &token;
  ThreadPool pool(2);
  EXPECT_EQ(BatchMonteCarloSkylineProbabilities(data, model, pool, options)
                .status()
                .code(),
            StatusCode::kCancelled);
}

TEST(BatchSamTest, SaturatedSampleCountRejected) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(2);
  for (double epsilon : {1e-12, std::numeric_limits<double>::quiet_NaN()}) {
    SolverOptions options;
    options.monte_carlo.epsilon = epsilon;
    EXPECT_EQ(BatchMonteCarloSkylineProbabilities(data, model, pool, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "epsilon=" << epsilon;
  }
}

// The world loop is bit-sliced whatever monte_carlo.engine says, so a
// block must hold whole 64-world chunks.
TEST(BatchSamTest, RejectsBlockSizeNotAMultipleOf64) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(0);
  for (std::uint64_t block_size : {std::uint64_t{0}, std::uint64_t{100}}) {
    SolverOptions options;
    options.monte_carlo.samples = 128;
    options.monte_carlo.block_size = block_size;
    EXPECT_EQ(BatchMonteCarloSkylineProbabilities(data, model, pool, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "block_size=" << block_size;
  }
}

TEST(SolverEngineTest, BlockEngineThroughSolverMatchesDirectCall) {
  Dataset data = RandomSmallDataset(13, 14, 2, 4);
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model);
  ASSERT_TRUE(solver.ok());
  SolverOptions options;
  options.monte_carlo.engine = MonteCarloOptions::Engine::kBlock;
  options.monte_carlo.samples = 2000;
  ThreadPool pool(2);
  // Poolless overload runs the block engine inline; both must agree
  // bit for bit (the engine's thread-count contract, surfaced through
  // the facade).
  auto inline_run = solver->MonteCarlo(0, options);
  auto pooled_run = solver->MonteCarlo(0, options, pool);
  ASSERT_TRUE(inline_run.ok()) << inline_run.status();
  ASSERT_TRUE(pooled_run.ok()) << pooled_run.status();
  EXPECT_DOUBLE_EQ(*inline_run, *pooled_run);

  // The serial engine stays the default and ignores the pool entirely.
  SolverOptions serial;
  serial.monte_carlo.samples = 2000;
  auto serial_a = solver->MonteCarlo(0, serial);
  auto serial_b = solver->MonteCarlo(0, serial, pool);
  ASSERT_TRUE(serial_a.ok());
  ASSERT_TRUE(serial_b.ok());
  EXPECT_DOUBLE_EQ(*serial_a, *serial_b);
}

}  // namespace
}  // namespace skypref

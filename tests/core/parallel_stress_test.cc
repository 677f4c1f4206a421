#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dominance.h"
#include "src/core/parallel.h"
#include "src/core/sam_bitslice.h"
#include "src/core/sam_parallel.h"
#include "test_util.h"

// ThreadSanitizer-targeted determinism tests: the documented contract is
// that every pooled engine seeds its PRNG from the BLOCK (or task) index,
// never the executing thread, so results are bit-identical for any
// thread count including the 0-thread inline pool, and one pool reused
// run after run keeps reproducing them. A data race in the fan-out would
// show up either as a TSan report or as a determinism violation here.
// Run under the `tsan` preset via ctest -L concurrency.

namespace skypref {
namespace {

using skypref::testing::RandomSmallDataset;

using PooledEngine = Result<MonteCarloResult> (*)(
    const Dataset&, ObjectId, std::span<const ObjectId>,
    const PreferenceModel&, ThreadPool&, const MonteCarloOptions&,
    const QueryBudget&);
constexpr PooledEngine kPooledEngines[] = {
    &BlockMonteCarloSkylineProbability, &BitSlicedMonteCarloSkylineProbability};

TEST(ParallelDeterminismStressTest, MonteCarloThreadCountSweep) {
  Dataset data = RandomSmallDataset(91, 12, 3, 4);
  HashedPreferenceModel model(5,
                              HashedPreferenceModel::Style::kSimplexUniform);
  const std::vector<ObjectId> candidates = AllObjectsExcept(data.size(), 0);
  for (PooledEngine engine : kPooledEngines) {
    MonteCarloOptions options;
    options.samples = 4000;
    options.seed = 99;
    options.block_size = 256;  // 16 blocks to fan out

    ThreadPool reference_pool(0);
    auto reference =
        engine(data, 0, candidates, model, reference_pool, options, {});
    ASSERT_TRUE(reference.ok());

    for (std::size_t threads : {1u, 2u, 3u, 5u, 8u}) {
      ThreadPool pool(threads);
      auto run = engine(data, 0, candidates, model, pool, options, {});
      ASSERT_TRUE(run.ok()) << "threads=" << threads;
      EXPECT_EQ(run->skyline_worlds, reference->skyline_worlds)
          << "threads=" << threads;
      EXPECT_EQ(run->samples, reference->samples) << "threads=" << threads;
      EXPECT_EQ(run->estimate, reference->estimate) << "threads=" << threads;
    }
  }
}

TEST(ParallelDeterminismStressTest, MonteCarloRepeatedRunsOnOnePool) {
  // The same pool must reproduce the same estimate run after run: stale
  // batch state (a leftover next_index_ or current_fn_) would break this
  // long before it segfaults.
  Dataset data = RandomSmallDataset(17, 8, 2, 3);
  HashedPreferenceModel model(3, HashedPreferenceModel::Style::kTotalUniform);
  const std::vector<ObjectId> candidates = AllObjectsExcept(data.size(), 1);
  ThreadPool pool(4);
  for (PooledEngine engine : kPooledEngines) {
    MonteCarloOptions options;
    options.samples = 2048;
    options.seed = 7;
    options.block_size = 128;
    auto first = engine(data, 1, candidates, model, pool, options, {});
    ASSERT_TRUE(first.ok());
    for (int round = 0; round < 25; ++round) {
      auto again = engine(data, 1, candidates, model, pool, options, {});
      ASSERT_TRUE(again.ok());
      ASSERT_EQ(again->skyline_worlds, first->skyline_worlds)
          << "round " << round;
      ASSERT_EQ(again->pair_draws, first->pair_draws) << "round " << round;
    }
  }
}

TEST(ParallelDeterminismStressTest, ExactGroupFanOutMatchesInline) {
  Dataset data = RandomSmallDataset(29, 16, 3, 4);
  TablePreferenceModel model;
  ThreadPool inline_pool(0);
  ThreadPool pool(6);
  for (ObjectId target = 0; target < 6; ++target) {
    auto serial =
        ParallelExactSkylineProbability(data, target, model, inline_pool);
    auto parallel = ParallelExactSkylineProbability(data, target, model, pool);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    // Group results multiply in a fixed order, so equality is exact.
    EXPECT_EQ(serial.value(), parallel.value()) << "target " << target;
  }
}

TEST(ParallelDeterminismStressTest, IntraGroupEngineThreadSweep) {
  // One 18-candidate independence group: every candidate shares dim-0
  // value 1 against the target's 0, so the solve runs on the subtree-
  // splitting ParallelExactEngine. Under TSan this exercises the shared
  // budget atomics and the abort flag; determinism-wise the result must
  // be bit-identical for every thread count and every repetition.
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  for (std::uint32_t i = 0; i < 18; ++i) {
    data.Append({1, i + 1}).CheckOK();
  }
  TablePreferenceModel model;
  ThreadPool inline_pool(0);
  auto reference = ParallelExactSkylineProbability(data, 0, model,
                                                   inline_pool);
  ASSERT_TRUE(reference.ok());
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 3; ++round) {
      auto run = ParallelExactSkylineProbability(data, 0, model, pool);
      ASSERT_TRUE(run.ok()) << "threads=" << threads << " round=" << round;
      ASSERT_EQ(run.value(), reference.value())
          << "threads=" << threads << " round=" << round;
    }
  }
}

TEST(ParallelDeterminismStressTest, IntraGroupEngineBudgetRace) {
  // A budget that trips mid-solve: every thread count must agree that
  // the solve fails (the total charged against max_subsets is the same
  // full enumeration count regardless of interleaving).
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  for (std::uint32_t i = 0; i < 18; ++i) {
    data.Append({1, i + 1}).CheckOK();
  }
  TablePreferenceModel model;
  ExactOptions tight;
  tight.max_subsets = (1u << 17);  // half of the 2^18 - 1 subsets
  for (std::size_t threads : {0u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(ParallelExactSkylineProbability(data, 0, model, pool, tight)
                  .status()
                  .code(),
              StatusCode::kResourceExhausted)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismStressTest, BatchSolverThreadSweep) {
  Dataset data = RandomSmallDataset(59, 16, 3, 4);
  TablePreferenceModel model;
  ThreadPool reference_pool(0);
  auto reference =
      BatchExactSkylineProbabilities(data, model, reference_pool);
  ASSERT_TRUE(reference.ok());
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    auto run = BatchExactSkylineProbabilities(data, model, pool);
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    ASSERT_EQ(run.value(), reference.value()) << "threads=" << threads;
  }
}

TEST(ParallelDeterminismStressTest, AllWorldsSweepAndSharedPoolReuse) {
  // All-objects sampling is batch Sam: one stream of shared worlds,
  // bit-identical to the inline pool on every reuse of one pool.
  Dataset data = RandomSmallDataset(53, 14, 2, 4);
  HashedPreferenceModel model(11, HashedPreferenceModel::Style::kTotalUniform);
  ThreadPool pool(4);
  SolverOptions options;
  options.monte_carlo.samples = 3008;
  options.monte_carlo.seed = 21;
  options.monte_carlo.block_size = 256;

  ThreadPool reference_pool(0);
  auto reference =
      BatchMonteCarloSkylineProbabilities(data, model, reference_pool, options);
  ASSERT_TRUE(reference.ok());

  for (int round = 0; round < 5; ++round) {
    auto run = BatchMonteCarloSkylineProbabilities(data, model, pool, options);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(*run, *reference) << "round " << round;
  }
}

}  // namespace
}  // namespace skypref

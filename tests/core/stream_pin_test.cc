// Pins every random stream and every exact value derived from the
// flattened preference-variable tables on one fixed seeded instance.
//
// The single-target instance (internal::BuildFlatInstance) and the batch
// plan are the only two places that intern (dimension, value)
// preference variables; every engine below walks one of them. A change
// to either builder or to a walk that alters the variable order, a
// candidate's requirement order or the number of draws per world moves
// one of these numbers. All sample counts are explicit, so no libm
// result feeds a pinned count (the top-k race's confidence radius is the
// one exception: it is part of that algorithm).

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/all_worlds.h"
#include "src/core/bounds.h"
#include "src/core/dominance.h"
#include "src/core/lineage_dp.h"
#include "src/core/monte_carlo.h"
#include "src/core/sam_bitslice.h"
#include "src/core/sam_parallel.h"
#include "src/core/solver.h"
#include "src/core/tentative_approx.h"
#include "src/core/topk_race.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::StreamPinDataset;
using skypref::testing::StreamPinModel;

constexpr ObjectId kTarget = 0;

std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

// Per-target skyline-world counts behind a vector of estimates.
std::vector<std::uint64_t> Hits(const std::vector<double>& estimates,
                                std::uint64_t samples) {
  std::vector<std::uint64_t> hits;
  for (double e : estimates) {
    hits.push_back(static_cast<std::uint64_t>(
        e * static_cast<double>(samples) + 0.5));
  }
  return hits;
}

TEST(StreamPinTest, SingleTargetSamEngines) {
  const Dataset data = StreamPinDataset();
  const TablePreferenceModel model = StreamPinModel(data);
  const std::vector<ObjectId> candidates =
      AllObjectsExcept(data.size(), kTarget);
  ThreadPool pool(2);
  using Engine = MonteCarloOptions::Engine;
  struct Case {
    Engine engine;
    bool lazy;
    std::uint64_t block_size;
    std::uint64_t skyline_worlds;
    std::uint64_t pair_draws;
  };
  const Case cases[] = {
      {Engine::kSerial, true, 1024, 911, 14083},
      {Engine::kSerial, false, 1024, 935, 27000},
      {Engine::kBlock, true, 256, 893, 14099},
      {Engine::kBlock, false, 256, 853, 27000},
      {Engine::kBitSliced, true, 512, 880, 27648},
  };
  for (const Case& c : cases) {
    MonteCarloOptions options;
    options.lazy = c.lazy;
    options.samples = 3000;
    options.seed = 77;
    options.block_size = c.block_size;
    Result<MonteCarloResult> run =
        c.engine == Engine::kSerial
            ? MonteCarloSkylineProbability(data, kTarget, candidates, model,
                                           options)
        : c.engine == Engine::kBlock
            ? BlockMonteCarloSkylineProbability(data, kTarget, candidates,
                                                model, pool, options)
            : BitSlicedMonteCarloSkylineProbability(data, kTarget, candidates,
                                                    model, pool, options);
    SCOPED_TRACE(&c - cases);  // the failing case's index
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_FALSE(run->truncated);
    EXPECT_EQ(run->samples, 3000u);
    EXPECT_EQ(run->skyline_worlds, c.skyline_worlds);
    EXPECT_EQ(run->pair_draws, c.pair_draws);
  }
}

TEST(StreamPinTest, ExactVariableTables) {
  const Dataset data = StreamPinDataset();
  const TablePreferenceModel model = StreamPinModel(data);
  const std::vector<ObjectId> candidates =
      AllObjectsExcept(data.size(), kTarget);

  LineageDpStats lineage_stats;
  auto lineage = LineageExactSkylineProbability(data, kTarget, candidates,
                                                model, {}, &lineage_stats);
  ASSERT_TRUE(lineage.ok()) << lineage.status();
  EXPECT_EQ(Hex(*lineage), "0x1.3b1b191b75368p-2");
  EXPECT_EQ(lineage_stats.variables, 9u);
  EXPECT_EQ(lineage_stats.states, 33u);

  // Every level: the truncated series is the exact value.
  BoundsOptions all_levels;
  all_levels.max_level = candidates.size();
  auto exact = BoundedSkylineProbability(data, kTarget, candidates, model,
                                         all_levels);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_TRUE(exact->exact);
  EXPECT_EQ(Hex(exact->lower), "0x1.3b1b191b7536fp-2");
  EXPECT_EQ(exact->terms_computed, 8191u);

  // Two levels over five candidates: a proper Bonferroni interval.
  BoundsOptions two_levels;
  two_levels.max_level = 2;
  auto bounds = BoundedSkylineProbability(
      data, kTarget, std::span<const ObjectId>(candidates).first(5), model,
      two_levels);
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  EXPECT_EQ(Hex(bounds->lower), "0x1.24ebd62c1d719p-1");
  EXPECT_EQ(Hex(bounds->upper), "0x1.8d2c1c93322f2p-1");
  EXPECT_EQ(bounds->level, 2u);
  EXPECT_EQ(bounds->terms_computed, 15u);

  // The same level walk, cut mid-level by a term budget.
  auto partial =
      ApproxPartialTerms(data, kTarget, candidates, model, /*term_budget=*/200);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(Hex(partial->estimate), "0x1.41a1aab4e209ep-1");
  EXPECT_EQ(partial->terms_computed, 200u);
  EXPECT_EQ(partial->deepest_level, 2u);
}

TEST(StreamPinTest, BatchSamEngines) {
  const Dataset data = StreamPinDataset();
  const TablePreferenceModel model = StreamPinModel(data);
  ThreadPool pool(2);
  struct Case {
    bool preprocess;
    std::vector<std::uint64_t> hits;
    std::uint64_t pair_draws;
    std::size_t pruned_candidates;
    std::size_t absorbed;
    std::size_t groups;
    std::size_t largest_group;
  };
  const Case cases[] = {
      {true, {590, 764, 1013, 265, 1173, 974, 1916, 270, 488, 728, 726, 546,
              1356, 141},
       36864, 12, 82, 42, 12},
      {false, {582, 767, 1039, 256, 1154, 948, 1905, 264, 450, 714, 683, 540,
               1380, 146},
       36864, 24, 0, 14, 13},
  };
  for (const Case& c : cases) {
    SolverOptions options;
    options.preprocess = c.preprocess;
    // Batch Sam ignores the engine; naming the walk it runs keeps the
    // pin self-describing.
    options.monte_carlo.engine = MonteCarloOptions::Engine::kBitSliced;
    options.monte_carlo.samples = 2000;
    options.monte_carlo.seed = 123;
    options.monte_carlo.block_size = 512;
    BatchSamStats stats;
    auto run =
        BatchMonteCarloSkylineProbabilities(data, model, pool, options, &stats);
    SCOPED_TRACE(&c - cases);  // the failing case's index
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(stats.samples, 2000u);
    EXPECT_EQ(Hits(*run, stats.samples), c.hits);
    EXPECT_EQ(stats.pair_draws, c.pair_draws);
    EXPECT_EQ(stats.distinct_pairs, 18u);
    EXPECT_EQ(stats.pruned_candidates, c.pruned_candidates);
    EXPECT_EQ(stats.targets, data.size());
    EXPECT_EQ(stats.absorbed, c.absorbed);
    EXPECT_EQ(stats.groups, c.groups);
    EXPECT_EQ(stats.largest_group, c.largest_group);
  }
}

TEST(StreamPinTest, SharedWorldEstimators) {
  const Dataset data = StreamPinDataset();
  const TablePreferenceModel model = StreamPinModel(data);

  AllWorldsOptions all_options;
  all_options.samples = 2000;
  all_options.seed = 5;
  auto all = EstimateAllSkylineProbabilities(data, model, all_options);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(Hits(all->estimates, all->samples),
            (std::vector<std::uint64_t>{626, 780, 1037, 254, 1175, 951, 1925,
                                        273, 448, 710, 688, 582, 1412, 170}));
  EXPECT_EQ(all->pair_draws, 36864u);

  TopKRaceOptions race_options;
  race_options.seed = 11;
  race_options.batch = 64;
  race_options.max_worlds = 4096;
  race_options.delta = 0.05;
  race_options.epsilon_floor = 0.05;
  auto race = TopKSkylineRace(data, model, 3, race_options);
  ASSERT_TRUE(race.ok()) << race.status();
  EXPECT_EQ(race->topk, (std::vector<ObjectId>{6, 12, 4}));
  EXPECT_EQ(race->worlds, 3968u);
  EXPECT_EQ(race->evaluations, 13440u);
  EXPECT_TRUE(race->resolved);
}

// Without preprocessing, the shared-world sampler and batch Sam intern
// the same ternary variables and keep the same possible dominators.
TEST(StreamPinTest, SharedWorldSamplerMatchesUnpreprocessedBatchPlan) {
  const Dataset data = StreamPinDataset();
  const TablePreferenceModel model = StreamPinModel(data);
  const std::size_t n = data.size();
  SharedWorldSampler sampler(data, model);

  ThreadPool pool(0);
  SolverOptions options;
  options.preprocess = false;
  options.monte_carlo.samples = 64;
  options.monte_carlo.block_size = 64;
  BatchSamStats stats;
  ASSERT_TRUE(
      BatchMonteCarloSkylineProbabilities(data, model, pool, options, &stats)
          .ok());
  EXPECT_EQ(sampler.pair_count(), stats.distinct_pairs);
  std::size_t candidates = 0;
  for (ObjectId t = 0; t < n; ++t) candidates += sampler.candidate_count(t);
  EXPECT_EQ(candidates, n * (n - 1) - stats.pruned_candidates);
  EXPECT_GT(stats.pruned_candidates, 0u);
}

}  // namespace
}  // namespace skypref

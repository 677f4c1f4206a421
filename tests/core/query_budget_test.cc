/// One budget per query (QueryBudget, src/util/cancel.h), across every
/// public entry point that takes one. Each row runs its entry point on an
/// instance whose query overruns the limit — where the query fans out into
/// independence groups, targets, ladder rungs or skycube cells, through
/// sub-calls that each fit it — and checks that
///
///  * the limited call returns within kLimit + kSlack with the row's
///    outcome: ResourceExhausted, or OK with an answer the budget cut
///    short (a truncated sample, failed batch targets, degraded ladder
///    groups). A limit that restarted per sub-call would overrun the
///    bound, or answer untouched;
///  * a pre-cancelled token returns Cancelled, on the heavy instance and
///    on a target with no candidates at all.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/all_worlds.h"
#include "src/core/exact.h"
#include "src/core/monte_carlo.h"
#include "src/core/parallel.h"
#include "src/core/resilient.h"
#include "src/core/sam_bitslice.h"
#include "src/core/sam_parallel.h"
#include "src/core/solver.h"
#include "src/core/subspace.h"
#include "src/model/preference_model.h"
#include "src/util/cancel.h"
#include "src/util/rational.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::ManyGroupsDataset;

constexpr double kLimit = 0.05;
// The work between the deadline and the first poll that observes it,
// plus what a query still does afterwards without polling (the
// certified-interval rung of every remaining ladder group).
constexpr double kSlack = 0.45;

/// What a call returned: its status and, for an OK answer, whether the
/// budget cut it short.
struct Outcome {
  Status status;
  bool cut = false;
};

template <typename T>
Outcome CutIf(const Result<T>& result, bool cut) {
  return {result.status(), result.ok() && cut};
}

/// A target (0, ..., 0) and \p per_group candidates in \p dims dimensions
/// that share value 1 on dimension 0 and take distinct values elsewhere:
/// every skycube cell holding dimension 0 and another one solves the
/// whole group (2^per_group subsets), every other cell only singletons.
Dataset OneGroupInEveryCell(std::size_t per_group, std::size_t dims) {
  Dataset data(dims);
  std::vector<ValueId> row(dims, 0);
  data.Append(row).CheckOK();
  ValueId next = 1;
  for (std::size_t i = 0; i < per_group; ++i) {
    row[0] = 1;
    for (std::size_t j = 1; j < dims; ++j) row[j] = next++;
    data.Append(row).CheckOK();
  }
  return data;
}

/// Rational preferences under which every other value certainly beats the
/// target's value 0. The DFS then adds and multiplies only 0s and 1s, so
/// the rational engine reaches its every-4096-visits deadline poll about
/// ten times sooner than under 1/2 preferences.
RationalPreferenceModel CertainRational(const Dataset& data) {
  RationalPreferenceModel model;
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    for (ValueId v = 1; v < data.value_bound(j); ++v) {
      model.Set(j, 0, v, Rational(0), Rational(1)).CheckOK();
    }
  }
  return model;
}

struct Row {
  const char* name;
  /// An instance whose query overruns kLimit.
  Dataset heavy;
  /// Whether the limited call fails with ResourceExhausted (otherwise it
  /// answers OK, cut short).
  bool exhausts;
  /// Runs the entry point on target 0 (or on all targets) of the data.
  std::function<Outcome(const Dataset&, const QueryBudget&)> run;
};

TEST(QueryBudgetTest, EveryEntryPointHonorsOneBudgetPerQuery) {
  TablePreferenceModel model;
  ThreadPool pool(2);
  constexpr std::uint64_t kManyWorlds = 100'000'000;

  const std::vector<Row> rows = {
      {"Det", ManyGroupsDataset(1, 24), true,
       [&](const Dataset& data, const QueryBudget& budget) {
         return Outcome{
             ExactSkylineProbability(data, 0, model, {}, nullptr, budget)
                 .status()};
       }},
      {"Det+", ManyGroupsDataset(32, 20), true,
       [&](const Dataset& data, const QueryBudget& budget) {
         SolverOptions options;
         options.budget = budget;
         auto solver = SkylineSolver::Create(data, model).value();
         return Outcome{solver.Exact(0, options).status()};
       }},
      {"parallel Det+", ManyGroupsDataset(32, 20), true,
       [&](const Dataset& data, const QueryBudget& budget) {
         return Outcome{ParallelExactSkylineProbability(data, 0, model, pool,
                                                        {}, {}, nullptr,
                                                        budget)
                            .status()};
       }},
      {"rational Det+", ManyGroupsDataset(40, 13), true,
       [&](const Dataset& data, const QueryBudget& budget) {
         return Outcome{ExactSkylineProbabilityRational(
                            data, 0, CertainRational(data),
                            /*preprocess=*/true, {}, budget)
                            .status()};
       }},
      {"subspace", ManyGroupsDataset(32, 20), true,
       [&](const Dataset& data, const QueryBudget& budget) {
         return Outcome{
             SubspaceSkylineProbability(data, 0, 0b11, model, {}, budget)
                 .status()};
       }},
      {"skycube", OneGroupInEveryCell(20, 6), true,
       [&](const Dataset& data, const QueryBudget& budget) {
         return Outcome{
             ProbabilisticSkycube(data, 0, model, {}, budget).status()};
       }},
      {"batch Det+", ManyGroupsDataset(3, 20), false,
       [&](const Dataset& data, const QueryBudget& budget) {
         SolverOptions options;
         options.budget = budget;
         BatchExactStats stats;
         auto run =
             BatchExactSkylineProbabilities(data, model, pool, options, &stats);
         return CutIf(run, stats.failed_targets > 0);
       }},
      {"expected cardinality", ManyGroupsDataset(3, 20), true,
       [&](const Dataset& data, const QueryBudget& budget) {
         SolverOptions options;
         options.budget = budget;
         return Outcome{
             ExpectedSkylineCardinality(data, model, pool, options).status()};
       }},
      {"Sam", ManyGroupsDataset(1, 20), false,
       [&](const Dataset& data, const QueryBudget& budget) {
         MonteCarloOptions options;
         options.samples = kManyWorlds;
         auto run = MonteCarloSkylineProbability(data, 0, model, options,
                                                 budget);
         return CutIf(run, run.ok() && run->truncated);
       }},
      {"block Sam", ManyGroupsDataset(1, 20), false,
       [&](const Dataset& data, const QueryBudget& budget) {
         MonteCarloOptions options;
         options.samples = kManyWorlds;
         auto run = BlockMonteCarloSkylineProbability(data, 0, model, pool,
                                                      options, budget);
         return CutIf(run, run.ok() && run->truncated);
       }},
      {"bit-sliced Sam", ManyGroupsDataset(1, 20), false,
       [&](const Dataset& data, const QueryBudget& budget) {
         MonteCarloOptions options;
         options.samples = kManyWorlds;
         auto run = BitSlicedMonteCarloSkylineProbability(data, 0, model, pool,
                                                          options, budget);
         return CutIf(run, run.ok() && run->truncated);
       }},
      {"Sam+", ManyGroupsDataset(24, 6), false,
       [&](const Dataset& data, const QueryBudget& budget) {
         SolverOptions options;
         options.monte_carlo.samples = 1'000'000;
         options.budget = budget;
         auto solver = SkylineSolver::Create(data, model).value();
         SolveStats stats;
         auto run = solver.MonteCarlo(0, options, &stats);
         return CutIf(run, stats.samples_drawn < 24 * 1'000'000ULL);
       }},
      {"pooled Sam+", ManyGroupsDataset(24, 6), false,
       [&](const Dataset& data, const QueryBudget& budget) {
         SolverOptions options;
         options.monte_carlo.engine = MonteCarloOptions::Engine::kBitSliced;
         options.monte_carlo.samples = 10'000'000;
         options.budget = budget;
         auto solver = SkylineSolver::Create(data, model).value();
         SolveStats stats;
         auto run = solver.MonteCarlo(0, options, pool, &stats);
         return CutIf(run, stats.samples_drawn < 24 * 10'000'000ULL);
       }},
      {"batch Sam", ManyGroupsDataset(3, 20), false,
       [&](const Dataset& data, const QueryBudget& budget) {
         SolverOptions options;
         options.monte_carlo.samples = 10'000'000;
         options.budget = budget;
         BatchSamStats stats;
         auto run = BatchMonteCarloSkylineProbabilities(data, model, pool,
                                                        options, &stats);
         return CutIf(run, stats.truncated);
       }},
      {"ladder, exact rung", ManyGroupsDataset(32, 20), false,
       [&](const Dataset& data, const QueryBudget& budget) {
         ResilientOptions options;
         options.solver.budget = budget;
         auto run = ResilientSkylineProbability(data, 0, model, pool, options);
         return CutIf(run, run.ok() && !run->fully_exact);
       }},
      {"ladder, sampled rung", ManyGroupsDataset(24, 10), false,
       [&](const Dataset& data, const QueryBudget& budget) {
         ResilientOptions options;
         options.solver.exact.max_subsets = 100;  // every group exhausts
         options.solver.monte_carlo.samples = kManyWorlds;
         options.solver.budget = budget;
         auto run = ResilientSkylineProbability(data, 0, model, pool, options);
         return CutIf(run, run.ok() && !run->fully_exact);
       }},
      {"batch ladder", ManyGroupsDataset(3, 20), false,
       [&](const Dataset& data, const QueryBudget& budget) {
         ResilientOptions options;
         options.solver.budget = budget;
         auto run =
             ResilientBatchSkylineProbabilities(data, model, pool, options);
         return CutIf(run, run.ok() && run->degraded_targets > 0);
       }},
      {"all-worlds estimate", ManyGroupsDataset(3, 20), true,
       [&](const Dataset& data, const QueryBudget& budget) {
         AllWorldsOptions options;
         options.samples = 10'000'000;
         options.budget = budget;
         return Outcome{
             EstimateAllSkylineProbabilities(data, model, options).status()};
       }},
      {"probabilistic skyline", ManyGroupsDataset(3, 20), true,
       [&](const Dataset& data, const QueryBudget& budget) {
         AllWorldsOptions options;
         options.samples = 10'000'000;
         options.budget = budget;
         return Outcome{
             ProbabilisticSkyline(data, model, 0.5, options).status()};
       }},
      {"top-k skyline", ManyGroupsDataset(3, 20), true,
       [&](const Dataset& data, const QueryBudget& budget) {
         AllWorldsOptions options;
         options.samples = 10'000'000;
         options.budget = budget;
         return Outcome{TopKSkyline(data, model, 3, options).status()};
       }},
  };

  Dataset lonely(2);  // target 0 has no candidates
  lonely.Append({0, 0}).CheckOK();
  CancelToken token;
  token.RequestCancel();
  QueryBudget cancelled;
  cancelled.cancel = &token;
  QueryBudget limited;
  limited.time_limit_seconds = kLimit;

  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const auto start = std::chrono::steady_clock::now();
    const Outcome outcome = row.run(row.heavy, limited);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed.count(), kLimit + kSlack);
    if (row.exhausts) {
      EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted)
          << outcome.status;
    } else {
      EXPECT_TRUE(outcome.status.ok()) << outcome.status;
      EXPECT_TRUE(outcome.cut);
    }
    EXPECT_EQ(row.run(row.heavy, cancelled).status.code(),
              StatusCode::kCancelled);
    EXPECT_EQ(row.run(lonely, cancelled).status.code(),
              StatusCode::kCancelled);
  }
}

}  // namespace
}  // namespace skypref

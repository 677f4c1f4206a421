#include "src/core/parallel.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <utility>

#include "src/core/exact.h"
#include "src/util/check.h"
#include "src/util/try_alloc.h"

namespace skypref {

namespace {

/// Group indices sorted by size descending, ties in partition order, so
/// the dynamic ParallelFor dispatch starts the stragglers first.
std::vector<std::size_t> LongestFirstOrder(
    const std::vector<std::vector<ObjectId>>& groups) {
  std::vector<std::size_t> order(groups.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&groups](std::size_t a, std::size_t b) {
                     return groups[a].size() > groups[b].size();
                   });
  return order;
}

}  // namespace

Result<double> ParallelExactSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const ExactOptions& options,
    const ParallelOptions& parallel, SolveStats* stats,
    const QueryBudget& budget) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
#if defined(SKYPREF_ENABLE_DCHECKS) && SKYPREF_ENABLE_DCHECKS
  SKYPREF_RETURN_IF_ERROR(model.Validate(data));
#endif
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  SKYPREF_ASSIGN_OR_RETURN(const QueryBudget resolved, budget.Resolve());
  SolveStats local;
  std::vector<std::vector<ObjectId>> groups =
      CandidateGroups(data, target, /*preprocess=*/true, &local);

  const std::size_t group_count = groups.size();
  DoubleOracle oracle(model);
  std::vector<double> survival(group_count, 1.0);
  std::vector<Status> statuses(group_count);
  std::vector<std::uint64_t> visited(group_count, 0);

  // Groups big enough to dominate the query split into subtree tasks;
  // the rest run serially, one work item per group. Everything goes into
  // a single flat work list — ParallelFor must not nest — dispatched
  // longest-first.
  std::vector<internal::FlatInstance<DoubleOracle>> instances(group_count);
  std::vector<std::unique_ptr<internal::ParallelExactEngine<DoubleOracle>>>
      engines(group_count);
  std::vector<std::function<void()>> work;
  for (std::size_t g : LongestFirstOrder(groups)) {
    const bool split = parallel.exact_tasks > 1 &&
                       groups[g].size() >= parallel.min_split_candidates;
    if (split) {
      auto built = TryAlloc("alloc.exact.flat_instance", [&] {
        return internal::BuildFlatInstance(
            data, target, std::span<const ObjectId>(groups[g]), oracle);
      });
      if (!built.ok()) {
        statuses[g] = built.status();
        continue;
      }
      instances[g] = std::move(built).value();
      engines[g] =
          std::make_unique<internal::ParallelExactEngine<DoubleOracle>>(
              instances[g], options, parallel.exact_tasks, resolved);
      if (engines[g]->BuildTasks()) {
        for (std::size_t k = 0; k < engines[g]->task_count(); ++k) {
          auto* engine = engines[g].get();
          work.push_back([engine, k] { engine->RunTask(k); });
        }
      }
    } else {
      work.push_back([&, g] {
        ExactStats exact_stats;
        auto result = ExactSkylineProbability(
            data, target, std::span<const ObjectId>(groups[g]), oracle, options,
            &exact_stats, resolved);
        visited[g] = exact_stats.subsets_visited;
        if (result.ok()) {
          survival[g] = result.value();
        } else {
          statuses[g] = result.status();
        }
      });
    }
  }
  pool.ParallelFor(work.size(), [&work](std::size_t i) { work[i](); });
  for (std::size_t g = 0; g < group_count; ++g) {
    if (engines[g] == nullptr) continue;
    ExactStats exact_stats;
    auto result = engines[g]->Reduce(&exact_stats);
    visited[g] = exact_stats.subsets_visited;
    if (result.ok()) {
      survival[g] = result.value();
    } else {
      statuses[g] = result.status();
    }
  }

  // Survival factors multiply in partition order (Theorem 4); the first
  // failing group's status wins, also in partition order.
  double product = 1.0;
  for (std::size_t g = 0; g < group_count; ++g) {
    SKYPREF_RETURN_IF_ERROR(statuses[g]);
    SKYPREF_DCHECK_PROB(survival[g]);
    product *= survival[g];
    local.subsets_visited += visited[g];
  }
  if (stats != nullptr) *stats = local;
  SKYPREF_DCHECK_PROB(product);
  return ClampProbability(product);
}

}  // namespace skypref

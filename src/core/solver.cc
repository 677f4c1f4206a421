#include "src/core/solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/core/absorption.h"
#include "src/core/dominance.h"
#include "src/core/independent_baseline.h"
#include "src/core/partition.h"
#include "src/core/sam_bitslice.h"
#include "src/core/sam_internal.h"
#include "src/core/sam_parallel.h"
#include "src/util/cancel.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/util/try_alloc.h"

namespace skypref {

namespace {

/// One Sam solve through the engine options.engine names — the library's
/// one switch on it. The kSerial engine never touches the pool; the
/// pooled engines fan out over \p pool, or an inline pool when the
/// caller has none (bit-identical either way).
Result<MonteCarloResult> RunSamEngine(const Dataset& data, ObjectId target,
                                      std::span<const ObjectId> candidates,
                                      const PreferenceModel& model,
                                      ThreadPool* pool,
                                      const MonteCarloOptions& options,
                                      const QueryBudget& budget) {
  using Engine = MonteCarloOptions::Engine;
  if (options.engine == Engine::kSerial) {
    return MonteCarloSkylineProbability(data, target, candidates, model,
                                        options, budget);
  }
  if (pool == nullptr) {
    ThreadPool inline_pool(0);
    return RunSamEngine(data, target, candidates, model, &inline_pool,
                        options, budget);
  }
  if (options.engine == Engine::kBlock) {
    return BlockMonteCarloSkylineProbability(data, target, candidates, model,
                                             *pool, options, budget);
  }
  return BitSlicedMonteCarloSkylineProbability(data, target, candidates,
                                               model, *pool, options, budget);
}

/// Target t's exact value: the product of its groups' solves (Theorem 4)
/// under the query's resolved \p budget, adding the subsets visited to
/// \p visited. Det+ and batch Det+'s Phase C solve through the model's or
/// the shared cache's oracle, the retry pass through the plain oracle.
template <typename Oracle>
Result<double> SolveTargetGroups(const Dataset& data, ObjectId t,
                                 const internal::TargetGroups& groups,
                                 const Oracle& oracle,
                                 const ExactOptions& exact,
                                 const QueryBudget& budget,
                                 std::uint64_t* visited) {
  double product = 1.0;
  for (const auto& group : groups) {
    ExactStats exact_stats;
    auto result =
        ExactSkylineProbability(data, t, std::span<const ObjectId>(group),
                                oracle, exact, &exact_stats, budget);
    *visited += exact_stats.subsets_visited;
    SKYPREF_RETURN_IF_ERROR(result.status());
    SKYPREF_DCHECK_PROB(result.value());
    product *= result.value();
  }
  SKYPREF_DCHECK_PROB(product);
  return ClampProbability(product);
}

}  // namespace

std::vector<std::vector<ObjectId>> CandidateGroups(const Dataset& data,
                                                   ObjectId target,
                                                   bool preprocess,
                                                   SolveStats* stats) {
  std::vector<ObjectId> candidates = AllObjectsExcept(data.size(), target);
  const std::size_t total = candidates.size();
  std::vector<std::vector<ObjectId>> groups;
  if (preprocess) {
    candidates = AbsorbCandidates(data, target, candidates);
    groups = PartitionCandidates(data, target, candidates);
  } else {
    groups.push_back(std::move(candidates));
  }
  if (stats != nullptr) {
    *stats = SolveStats{};
    stats->candidates = total;
    stats->groups = groups.size();
    for (const auto& group : groups) {
      stats->after_absorption += group.size();
      stats->largest_group = std::max(stats->largest_group, group.size());
      stats->group_sizes.push_back(group.size());
    }
  }
  return groups;
}

Result<SkylineSolver> SkylineSolver::Create(const Dataset& data,
                                            const PreferenceModel& model) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
  // One capped pass over the model's invariants (Pr(a<b)+Pr(b<a) <= 1,
  // orientation symmetry, self ties) before any probability is computed
  // from it; Create runs once per dataset so the cost is negligible.
  SKYPREF_RETURN_IF_ERROR(model.Validate(data));
  return SkylineSolver(data, model);
}

Result<double> SkylineSolver::Exact(ObjectId target,
                                    const SolverOptions& options,
                                    SolveStats* stats) const {
  if (target >= data_->size()) {
    return Status::OutOfRange("target object out of range");
  }
  SKYPREF_ASSIGN_OR_RETURN(const QueryBudget budget, options.budget.Resolve());
  SolveStats local;
  SKYPREF_ASSIGN_OR_RETURN(
      double result,
      SolveTargetGroups(*data_, target,
                        CandidateGroups(*data_, target, options.preprocess,
                                        &local),
                        DoubleOracle(*model_), options.exact, budget,
                        &local.subsets_visited));
  if (stats != nullptr) *stats = local;
  return result;
}

Result<double> SkylineSolver::MonteCarlo(ObjectId target,
                                         const SolverOptions& options,
                                         SolveStats* stats) const {
  return MonteCarloImpl(target, options, nullptr, stats);
}

Result<double> SkylineSolver::MonteCarlo(ObjectId target,
                                         const SolverOptions& options,
                                         ThreadPool& pool,
                                         SolveStats* stats) const {
  return MonteCarloImpl(target, options, &pool, stats);
}

Result<double> SkylineSolver::MonteCarloImpl(ObjectId target,
                                             const SolverOptions& options,
                                             ThreadPool* pool,
                                             SolveStats* stats) const {
  if (target >= data_->size()) {
    return Status::OutOfRange("target object out of range");
  }
  // The engines' own option rule, checked once for the whole query: a
  // query whose groups are all singletons (answered in closed form below)
  // rejects the same options as one that samples. Then the budget, as in
  // Exact: every sampled group truncates against its one deadline.
  SKYPREF_RETURN_IF_ERROR(internal::ResolveSampling(options.monte_carlo,
                                                    options.monte_carlo.engine,
                                                    options.budget)
                              .status());
  SKYPREF_ASSIGN_OR_RETURN(const QueryBudget budget, options.budget.Resolve());
  SolveStats local;
  std::vector<std::vector<ObjectId>> groups =
      CandidateGroups(*data_, target, options.preprocess, &local);

  // Sam+ solves singleton groups exactly for free: Pr(no dominator) =
  // 1 - Pr(e). Plain Sam samples its one group with the caller's seed.
  std::vector<const std::vector<ObjectId>*> sampled_groups;
  double result = 1.0;
  for (const auto& group : groups) {
    if (options.preprocess && group.size() == 1) {
      result *= 1.0 - DominanceProbability(*data_, group[0], target, *model_);
    } else {
      sampled_groups.push_back(&group);
    }
  }

  if (!sampled_groups.empty()) {
    // Split the error budget across the sampled groups (see file comment).
    MonteCarloOptions per_group = options.monte_carlo;
    if (per_group.samples == 0) {
      double share = static_cast<double>(sampled_groups.size());
      per_group.epsilon = options.monte_carlo.epsilon / share;
      per_group.delta = options.monte_carlo.delta / share;
    }
    Rng seeder(options.monte_carlo.seed);
    for (const auto* group : sampled_groups) {
      per_group.seed =
          options.preprocess ? seeder.Fork() : options.monte_carlo.seed;
      SKYPREF_ASSIGN_OR_RETURN(
          MonteCarloResult mc,
          RunSamEngine(*data_, target, *group, *model_, pool, per_group,
                       budget));
      local.samples_drawn += mc.samples;
      local.pair_draws += mc.pair_draws;
      SKYPREF_DCHECK_PROB(mc.estimate);
      result *= mc.estimate;
    }
  }
  if (stats != nullptr) *stats = local;
  SKYPREF_DCHECK_PROB(result);
  return ClampProbability(result);
}

Result<double> SkylineSolver::Independent(ObjectId target) const {
  return IndependentSkylineProbability(*data_, target, *model_);
}

namespace internal {

namespace {

/// Target t's step of Phase A: absorption against the shared postings,
/// then the Theorem-4 partition reusing \p workspace.
TargetGroups AbsorbAndPartition(const Dataset& data, ObjectId t,
                                const ValuePostings& postings,
                                PartitionWorkspace& workspace) {
  std::vector<ObjectId> candidates =
      AbsorbAllCandidatesIndexed(data, t, postings);
  return PartitionCandidates(data, t, std::span<const ObjectId>(candidates),
                             workspace);
}

}  // namespace

BatchGroups PartitionAllTargets(const Dataset& data, ThreadPool& pool,
                                bool preprocess, bool guard_alloc,
                                BatchPreprocessStats& stats) {
  const std::size_t n = data.size();
  BatchGroups out;
  out.groups.resize(n);
  out.status.resize(n);
  if (preprocess) {
    out.postings.emplace(data);
    constexpr std::size_t kChunk = 16;
    const std::size_t chunks = (n + kChunk - 1) / kChunk;
    pool.ParallelFor(chunks, [&](std::size_t c) {
      PartitionWorkspace workspace;
      const std::size_t begin = c * kChunk;
      const std::size_t end = std::min(n, begin + kChunk);
      for (ObjectId t = begin; t < end; ++t) {
        auto step = [&] {
          return AbsorbAndPartition(data, t, *out.postings, workspace);
        };
        if (!guard_alloc) {
          out.groups[t] = step();
          continue;
        }
        auto built = TryAlloc("alloc.batch.partition", step);
        if (built.ok()) {
          out.groups[t] = std::move(built).value();
        } else {
          out.status[t] = built.status();
        }
      }
    });
  } else {
    for (ObjectId t = 0; t < n; ++t) {
      out.groups[t].push_back(AllObjectsExcept(n, t));
    }
  }
  stats.targets = n;
  for (ObjectId t = 0; t < n; ++t) {
    if (!out.status[t].ok()) continue;  // no partition to account for
    std::size_t after = 0;
    for (const auto& group : out.groups[t]) {
      after += group.size();
      stats.largest_group = std::max(stats.largest_group, group.size());
    }
    stats.groups += out.groups[t].size();
    stats.absorbed += (n - 1) - after;
  }
  return out;
}

}  // namespace internal

namespace {

using PairProbCache =
    std::unordered_map<internal::ValuePairKey, double, PairHash>;

/// Oracle reading the shared precomputed probability table. Entries are
/// the exact doubles PreferenceModel::LessEq produced, so solves through
/// this oracle are bit-identical to uncached ones.
///
/// Concurrency contract: the cache is built serially in Phase B and is
/// immutable by the time worker threads read it through this oracle, so
/// it carries no mutex and no SKYPREF_GUARDED_BY — const-shared, not
/// lock-protected.
class CachedDoubleOracle {
 public:
  using NumType = double;

  explicit CachedDoubleOracle(const PairProbCache& cache) : cache_(&cache) {}

  double LessEq(DimensionId dim, ValueId a, ValueId b) const {
    auto it = cache_->find(internal::MakeValuePairKey(dim, a, b));
    SKYPREF_DCHECK(it != cache_->end());
    return it->second;
  }

 private:
  const PairProbCache* cache_;
};

/// Whether a failed target is worth one re-dispatch. Deterministic
/// failures are not: a blown subset budget or expired deadline fails
/// identically on retry (the messages below are the exact engines' fixed
/// strings, src/core/exact.h). Everything else ResourceExhausted —
/// allocation failure, injected scheduler faults — is transient: the
/// memory pressure or fault window that killed the first dispatch has
/// typically passed by the time the batch drains.
bool TransientFailure(const Status& status) {
  if (status.code() != StatusCode::kResourceExhausted) return false;
  const std::string& message = status.message();
  return message.find("subset budget") == std::string::npos &&
         message.find("time limit") == std::string::npos;
}

}  // namespace

Result<std::vector<double>> BatchExactSkylineProbabilities(
    const Dataset& data, const PreferenceModel& model, ThreadPool& pool,
    const SolverOptions& options, BatchExactStats* stats) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
  SKYPREF_RETURN_IF_ERROR(model.Validate(data));
  const std::size_t n = data.size();

  BatchExactStats local;
  SKYPREF_ASSIGN_OR_RETURN(const QueryBudget budget, options.budget.Resolve());

  // Phase A: absorption + partition per target, sharing the global
  // posting lists. A target whose allocation fails keeps its Status in
  // phase_a.status and is stamped NaN in Phase C — groups[t].empty()
  // cannot signal the failure because full absorption legitimately
  // leaves a target with no groups. The postings and phase_a.status
  // outlive Phase A so the retry pass can rebuild a failed target's
  // partition; `statuses` also collects every later failure.
  internal::BatchGroups phase_a = internal::PartitionAllTargets(
      data, pool, options.preprocess, /*guard_alloc=*/true, local);
  std::vector<internal::TargetGroups>& groups = phase_a.groups;
  std::vector<Status> statuses = phase_a.status;

  // Phase B: every distinct Pr(q.j <= o.j) any target's pair table needs,
  // computed once. Serial — these model lookups ARE the work being
  // deduplicated across targets.
  PairProbCache cache;
  DoubleOracle oracle(model);
  for (ObjectId t = 0; t < n; ++t) {
    std::span<const ValueId> o = data.object(t);
    for (const auto& group : groups[t]) {
      for (ObjectId id : group) {
        std::span<const ValueId> q = data.object(id);
        for (DimensionId j = 0; j < data.dimensions(); ++j) {
          if (q[j] == o[j]) continue;
          auto [it, inserted] =
              cache.try_emplace(internal::MakeValuePairKey(j, q[j], o[j]), 0.0);
          if (inserted) it->second = oracle.LessEq(j, q[j], o[j]);
        }
      }
    }
  }
  local.distinct_pair_probs = cache.size();

  // Phase C: per-target solves, largest-work-first so a heavy target
  // cannot serialize the tail. Work ~ sum over groups of 2^|group|; the
  // exponent cap just keeps the weights finite.
  std::vector<double> weight(n, 0.0);
  for (ObjectId t = 0; t < n; ++t) {
    for (const auto& group : groups[t]) {
      // Scheduling heuristic only — never part of a returned probability,
      // so plain summation is fine here.
      // skypref-analyze: allow(kahan-discipline)
      weight[t] += std::ldexp(
          1.0, static_cast<int>(std::min<std::size_t>(group.size(), 512)));
    }
  }
  std::vector<ObjectId> order(n);
  std::iota(order.begin(), order.end(), ObjectId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&weight](ObjectId a, ObjectId b) {
                     return weight[a] > weight[b];
                   });

  CachedDoubleOracle cached(cache);
  // Every slot starts NaN; only a solved target overwrites it.
  std::vector<double> results(n, std::numeric_limits<double>::quiet_NaN());
  std::vector<std::uint64_t> visited(n, 0);
  pool.ParallelFor(n, [&](std::size_t k) {
    const ObjectId t = order[k];
    // The batch-scheduler failpoint and the cancel poll sit at the
    // per-target dispatch boundary: one target fails (or the whole
    // query stops) without touching any other target's solve.
    if (SKYPREF_FAILPOINT("batch.target")) {
      statuses[t] = Status::ResourceExhausted("failpoint batch.target");
      return;
    }
    if (budget.cancelled()) {
      statuses[t] = CancelledStatus();
      return;
    }
    // Phase A could not build this target's partition; an empty
    // groups[t] would silently solve to probability 1.0.
    if (!statuses[t].ok()) return;
    auto solved = SolveTargetGroups(data, t, groups[t], cached, options.exact,
                                    budget, &visited[t]);
    if (solved.ok()) {
      results[t] = *solved;
    } else {
      statuses[t] = solved.status();
    }
  });

  // Retry salvage pass: each target that failed on a TRANSIENT fault
  // gets ONE serial re-dispatch against the remaining shared deadline
  // before being stamped NaN for good. Determinism contract:
  //  * retry order is ascending ObjectId — independent of the
  //    largest-work-first schedule and of thread count;
  //  * a salvaged target's value is bit-identical to its fault-free
  //    value (retries solve through the plain oracle, whose doubles are
  //    by construction the cache's entries — and a target whose Phase A
  //    failed has no entries in the cache at all);
  //  * targets that already succeeded are never touched.
  for (ObjectId t = 0; t < n; ++t) {
    if (statuses[t].ok() || !TransientFailure(statuses[t])) continue;
    if (budget.cancelled() || budget.deadline.Expired()) break;
    ++local.retried_targets;
    // The retry dispatch has its own failpoint so chaos schedules can
    // fail the salvage itself (a double fault must still stamp NaN
    // plus a well-formed Status, never a bogus value).
    if (SKYPREF_FAILPOINT("batch.retry")) {
      statuses[t] = Status::ResourceExhausted("failpoint batch.retry");
      continue;
    }
    if (!phase_a.status[t].ok()) {
      auto rebuilt = TryAlloc("alloc.batch.partition", [&] {
        PartitionWorkspace workspace;
        return internal::AbsorbAndPartition(data, t, *phase_a.postings,
                                            workspace);
      });
      if (!rebuilt.ok()) {
        statuses[t] = rebuilt.status();
        continue;
      }
      groups[t] = std::move(rebuilt).value();
      phase_a.status[t] = Status::OK();
    }
    auto solved = SolveTargetGroups(data, t, groups[t], oracle, options.exact,
                                    budget, &visited[t]);
    if (solved.ok()) {
      results[t] = *solved;
      statuses[t] = Status::OK();
      ++local.salvaged_targets;
    } else {
      statuses[t] = solved.status();
    }
  }

  // A failed target no longer aborts the batch: its slot carries NaN and
  // its Status lands in stats->target_status, while every target that
  // finished keeps its bit-identical value. Only cancellation — the
  // caller abandoning the query — fails the whole call.
  local.target_status = statuses;
  for (ObjectId t = 0; t < n; ++t) {
    if (statuses[t].code() == StatusCode::kCancelled) return statuses[t];
    if (!statuses[t].ok()) ++local.failed_targets;
    local.subsets_visited += visited[t];
  }
  if (stats != nullptr) *stats = local;
  return results;
}

Result<double> ExpectedSkylineCardinality(const Dataset& data,
                                          const PreferenceModel& model,
                                          ThreadPool& pool,
                                          const SolverOptions& options) {
  BatchExactStats batch_stats;
  SKYPREF_ASSIGN_OR_RETURN(
      std::vector<double> skylines,
      BatchExactSkylineProbabilities(data, model, pool, options,
                                     &batch_stats));
  // The cardinality is a sum over ALL targets, so the batch's per-target
  // salvage does not apply here: the first failed target's status (in
  // target order) fails the whole query, matching the pre-salvage
  // behavior.
  for (const Status& status : batch_stats.target_status) {
    SKYPREF_RETURN_IF_ERROR(status);
  }
  // Plain left-to-right sum in target order: the legacy overload summed the
  // per-target results the same way, so the total stays bit-identical.
  double total = 0.0;
  // skypref-analyze: allow(kahan-discipline)
  for (double sky : skylines) total += sky;
  return total;
}

Result<double> ExpectedSkylineCardinality(const Dataset& data,
                                          const PreferenceModel& model,
                                          const SolverOptions& options) {
  ThreadPool pool(0);  // inline execution, no worker threads
  return ExpectedSkylineCardinality(data, model, pool, options);
}

Result<Rational> ExactSkylineProbabilityRational(
    const Dataset& data, ObjectId target, const RationalPreferenceModel& model,
    bool preprocess, const ExactOptions& options, const QueryBudget& budget) {
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  SKYPREF_ASSIGN_OR_RETURN(const QueryBudget resolved, budget.Resolve());
  RationalOracle oracle(model);
  Rational result(1);
  for (const auto& group : CandidateGroups(data, target, preprocess)) {
    SKYPREF_ASSIGN_OR_RETURN(
        Rational group_prob,
        ExactSkylineProbability(data, target, group, oracle, options,
                                /*stats=*/nullptr, resolved));
    result = result * group_prob;
  }
  return result;
}

}  // namespace skypref

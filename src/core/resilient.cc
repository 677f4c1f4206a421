#include "src/core/resilient.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>

#include "src/core/exact.h"
#include "src/core/monte_carlo.h"
#include "src/core/oracles.h"
#include "src/core/sam_bitslice.h"
#include "src/core/sam_internal.h"
#include "src/util/cancel.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace skypref {

namespace {

// Rung-1 outcome of one independence group.
struct ExactAttempt {
  Status status;
  double value = 1.0;
  std::uint64_t subsets_visited = 0;
};

// Runs the exact engine on every group, longest-first over the pool.
// Each attempt is an independent SERIAL solve, so per-group values (and
// therefore the recombined product) are bit-identical to the sequential
// SkylineSolver::Exact loop at every thread count.
std::vector<ExactAttempt> RunExactRung(
    const Dataset& data, ObjectId target,
    const std::vector<std::vector<ObjectId>>& groups,
    const PreferenceModel& model, const ExactOptions& exact_options,
    const QueryBudget& budget, ThreadPool& pool) {
  std::vector<ExactAttempt> attempts(groups.size());
  std::vector<std::size_t> order(groups.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&groups](std::size_t a, std::size_t b) {
                     return groups[a].size() > groups[b].size();
                   });
  pool.ParallelFor(order.size(), [&](std::size_t slot) {
    std::size_t g = order[slot];
    DoubleOracle oracle(model);
    ExactStats stats;
    Result<double> result = ExactSkylineProbability(
        data, target, groups[g], oracle, exact_options, &stats, budget);
    attempts[g].subsets_visited = stats.subsets_visited;
    if (result.ok()) {
      attempts[g].value = *result;
    } else {
      attempts[g].status = result.status();
    }
  });
  return attempts;
}

// Rung 2 for one exhausted group. Runs the bit-sliced engine: a group
// reaches this rung precisely because it is too big for Det+, so its
// world blocks fan out over the pool — and the estimate is bit-identical
// at every thread count, preserving the ladder's determinism contract.
// Returns an error for cancellation and for a failure the engine reports
// (an allocation failure, or a per-group share of epsilon too small to
// count; the caller then falls to rung 3); deadline truncation keeps the
// partial estimate at its widened Hoeffding bar.
Result<GroupReport> RunSampledRung(const Dataset& data, ObjectId target,
                                   const std::vector<ObjectId>& group,
                                   const PreferenceModel& model,
                                   const MonteCarloOptions& mc_options,
                                   const QueryBudget& budget, ThreadPool& pool,
                                   SolveStats& stats) {
  SKYPREF_ASSIGN_OR_RETURN(
      MonteCarloResult mc,
      BitSlicedMonteCarloSkylineProbability(data, target, group, model, pool,
                                            mc_options, budget));
  stats.samples_drawn += mc.samples;
  stats.pair_draws += mc.pair_draws;
  GroupReport report;
  report.quality = GroupQuality::kSampled;
  report.survival = mc.estimate;
  report.delta = mc_options.delta;
  report.samples = mc.samples;
  // An explicit sample count or a truncated run certifies whatever
  // epsilon the achieved draw supports; only a full Hoeffding-derived
  // run earns the requested epsilon.
  if (mc.truncated || mc_options.samples != 0) {
    report.epsilon = HoeffdingEpsilon(mc.samples, mc_options.delta);
  } else {
    report.epsilon = mc_options.epsilon;
  }
  report.lower = ClampProbability(mc.estimate - report.epsilon);
  report.upper = ClampProbability(mc.estimate + report.epsilon);
  return report;
}

// Rung 3: the certified interval. Level 0 is always available, so this
// cannot exhaust.
Result<GroupReport> RunBoundedRung(const Dataset& data, ObjectId target,
                                   const std::vector<ObjectId>& group,
                                   const PreferenceModel& model,
                                   const BoundsOptions& bounds_options) {
  SKYPREF_ASSIGN_OR_RETURN(
      SkylineBounds bounds,
      BoundedSkylineProbability(data, target, group, model, bounds_options));
  GroupReport report;
  report.quality = GroupQuality::kBounded;
  report.lower = bounds.lower;
  report.upper = bounds.upper;
  report.survival = 0.5 * (bounds.lower + bounds.upper);
  report.epsilon = 0.5 * bounds.width();
  return report;
}

// The ladder's entry: the sampled rung's option rule (the bit-sliced
// engine's, InvalidArgument), then the one budget of all three rungs.
Result<QueryBudget> ResolveLadder(const SolverOptions& solver) {
  SKYPREF_RETURN_IF_ERROR(
      internal::ResolveSampling(solver.monte_carlo,
                                MonteCarloOptions::Engine::kBitSliced,
                                solver.budget)
          .status());
  return solver.budget.Resolve();
}

}  // namespace

const char* GroupQualityToString(GroupQuality quality) {
  switch (quality) {
    case GroupQuality::kExact:
      return "exact";
    case GroupQuality::kSampled:
      return "sampled";
    case GroupQuality::kBounded:
      return "bounded";
  }
  return "unknown";
}

Result<ResilientResult> ResilientSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const ResilientOptions& options) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  // ONE budget governs every rung of this query.
  SKYPREF_ASSIGN_OR_RETURN(const QueryBudget budget,
                           ResolveLadder(options.solver));

  ResilientResult result;
  std::vector<std::vector<ObjectId>> groups = CandidateGroups(
      data, target, options.solver.preprocess, &result.stats);

  // Rung 1: exact attempt on every group under the shared budget.
  std::vector<ExactAttempt> attempts = RunExactRung(
      data, target, groups, model, options.solver.exact, budget, pool);

  // Cancellation and genuine errors (bad input) abort the ladder; only
  // ResourceExhausted is degradable. Scanned in partition order so the
  // reported error is deterministic.
  std::size_t exhausted = 0;
  for (const ExactAttempt& attempt : attempts) {
    result.stats.subsets_visited += attempt.subsets_visited;
    if (attempt.status.ok()) continue;
    if (attempt.status.code() == StatusCode::kResourceExhausted) {
      ++exhausted;
    } else {
      return attempt.status;
    }
  }

  // Rungs 2 and 3, in partition order so the forked seeds (and therefore
  // the estimates) are deterministic given the exhaustion set. Each
  // sampled rung internally fans its world blocks out over the pool; the
  // engine keeps the estimate bit-identical per thread count.
  MonteCarloOptions mc_options = options.solver.monte_carlo;
  if (exhausted > 0) {
    if (mc_options.samples == 0) {
      double share = static_cast<double>(exhausted);
      mc_options.epsilon = options.solver.monte_carlo.epsilon / share;
      mc_options.delta = options.solver.monte_carlo.delta / share;
    } else {
      mc_options.delta =
          options.solver.monte_carlo.delta / static_cast<double>(exhausted);
    }
  }
  Rng seeder(options.solver.monte_carlo.seed);

  result.groups.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    GroupReport report;
    report.size = groups[g].size();
    if (attempts[g].status.ok()) {
      report.quality = GroupQuality::kExact;
      report.survival = attempts[g].value;
      report.lower = ClampProbability(attempts[g].value);
      report.upper = report.lower;
    } else {
      if (budget.cancelled()) return CancelledStatus();
      // The sampled rung needs wall time; once the query deadline is
      // spent, go straight to the certified interval (cheap and
      // deterministic). A sampled group the engine fails falls the same
      // way — only cancellation aborts.
      Result<GroupReport> rung = Status::ResourceExhausted("deadline spent");
      if (!budget.deadline.Expired()) {
        MonteCarloOptions per_group = mc_options;
        per_group.seed = seeder.Fork();
        rung = RunSampledRung(data, target, groups[g], model, per_group,
                              budget, pool, result.stats);
        if (rung.status().code() == StatusCode::kCancelled) {
          return rung.status();
        }
      }
      if (!rung.ok()) {
        rung = RunBoundedRung(data, target, groups[g], model, options.bounds);
        SKYPREF_RETURN_IF_ERROR(rung.status());
      }
      report = std::move(rung).value();
      report.size = groups[g].size();
      report.exact_status = attempts[g].status;
      result.fully_exact = false;
    }
    result.groups.push_back(std::move(report));
  }

  // Theorem-4 recombination with the telescoping error bound. The
  // epsilon/delta sums run over a handful of groups in fixed partition
  // order — compensation would change the published bound for nothing.
  double product = 1.0;
  for (const GroupReport& report : result.groups) {
    product *= report.survival;
    result.lower *= report.lower;
    result.upper *= report.upper;
    // skypref-analyze: allow(kahan-discipline)
    result.epsilon += report.epsilon;
    // skypref-analyze: allow(kahan-discipline)
    result.delta += report.delta;
  }
  result.estimate = ClampProbability(product);
  result.lower = ClampProbability(result.lower);
  result.upper = ClampProbability(result.upper);
  result.delta = std::min(result.delta, 1.0);
  SKYPREF_DCHECK(result.lower <= result.upper);
  return result;
}

Result<ResilientResult> ResilientSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    const ResilientOptions& options) {
  ThreadPool pool(0);  // inline execution, no worker threads
  return ResilientSkylineProbability(data, target, model, pool, options);
}

Result<ResilientBatchResult> ResilientBatchSkylineProbabilities(
    const Dataset& data, const PreferenceModel& model, ThreadPool& pool,
    const ResilientOptions& options) {
  // One budget for the batch and every salvage ladder: each call below
  // re-resolves the resolved budget, which keeps its deadline.
  ResilientOptions resolved = options;
  SKYPREF_ASSIGN_OR_RETURN(resolved.solver.budget,
                           ResolveLadder(options.solver));
  ResilientBatchResult batch;
  SKYPREF_ASSIGN_OR_RETURN(
      batch.estimates,
      BatchExactSkylineProbabilities(data, model, pool, resolved.solver,
                                     &batch.batch_stats));
  std::size_t targets = batch.estimates.size();
  batch.quality.assign(targets, GroupQuality::kExact);
  batch.epsilons.assign(targets, 0.0);
  batch.deltas.assign(targets, 0.0);
  for (std::size_t t = 0; t < targets; ++t) {
    if (batch.batch_stats.target_status[t].ok()) continue;
    // Re-answer the failed target through the ladder; groups that fit
    // the budget still resolve exactly, the rest degrade.
    SKYPREF_ASSIGN_OR_RETURN(
        ResilientResult salvaged,
        ResilientSkylineProbability(data, static_cast<ObjectId>(t), model,
                                    pool, resolved));
    batch.estimates[t] = salvaged.estimate;
    batch.epsilons[t] = salvaged.epsilon;
    batch.deltas[t] = salvaged.delta;
    GroupQuality worst = GroupQuality::kExact;
    for (const GroupReport& report : salvaged.groups) {
      worst = std::max(worst, report.quality);
    }
    batch.quality[t] = worst;
    if (!salvaged.fully_exact) ++batch.degraded_targets;
  }
  return batch;
}

}  // namespace skypref

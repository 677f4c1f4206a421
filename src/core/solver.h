#ifndef SKYPREF_CORE_SOLVER_H_
#define SKYPREF_CORE_SOLVER_H_

/// \file
/// The public facade: Det / Det+ / Sam / Sam+ (Table 2 of the paper).
///
/// SkylineSolver composes the building blocks: absorption and partition
/// preprocessing (Section 5) in front of either the exact inclusion-
/// exclusion solver (Algorithm 1) or the Monte-Carlo estimator
/// (Algorithm 2). With preprocessing enabled the solver first drops
/// absorbed candidates, then splits the rest into independent groups and
/// multiplies the per-group results (Theorem 4).
///
/// Error budget under partitioning: if group survival probabilities
/// p_t in [0,1] are each estimated within eps_t, the product is within
/// sum_t eps_t (telescoping |prod a - prod b| <= sum |a_t - b_t|). Sam+
/// therefore splits epsilon and delta evenly across the groups it
/// actually samples; singleton groups are computed exactly for free.
///
/// Time limit and cancellation: every entry point below resolves its
/// QueryBudget (src/util/cancel.h) once, after rejecting invalid
/// arguments, so every group solve, target and retry polls one deadline
/// and token; a pre-cancelled token returns Cancelled.

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/core/absorption.h"
#include "src/core/exact.h"
#include "src/core/monte_carlo.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/cancel.h"
#include "src/util/rational.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace skypref {

struct SolverOptions {
  /// Run absorption + partition first (the "+" algorithm variants).
  bool preprocess = true;
  ExactOptions exact;
  MonteCarloOptions monte_carlo;
  /// The whole query's time limit, deadline and cancel token. Deadline
  /// expiry fails an exact solve with ResourceExhausted and truncates a
  /// sampled one; a tripped token returns Cancelled.
  QueryBudget budget;
};

/// Diagnostics of one solve, for benches and the CLI.
struct SolveStats {
  std::size_t candidates = 0;         ///< before preprocessing
  std::size_t after_absorption = 0;   ///< == candidates when preprocess off
  std::size_t groups = 0;             ///< 1 when preprocess off
  std::size_t largest_group = 0;
  /// Size of every independence group, in partition order; drives the
  /// longest-first scheduling diagnostics of the parallel solvers.
  std::vector<std::size_t> group_sizes;
  std::uint64_t subsets_visited = 0;  ///< exact solves
  std::uint64_t samples_drawn = 0;    ///< Monte-Carlo solves
  std::uint64_t pair_draws = 0;       ///< Monte-Carlo solves
};

/// The candidate groups a single-target solve of \p target runs on:
/// every other object, absorbed and split into Theorem-4 independence
/// groups when \p preprocess is set (the "+" variants), else one group
/// holding all of them. When \p stats is non-null, resets it and fills
/// its preprocessing fields (candidates, after_absorption, groups,
/// largest_group, group_sizes). Requires target < data.size().
std::vector<std::vector<ObjectId>> CandidateGroups(const Dataset& data,
                                                   ObjectId target,
                                                   bool preprocess,
                                                   SolveStats* stats = nullptr);

class SkylineSolver {
 public:
  /// Validates the dataset (non-empty, no duplicate objects) and binds it
  /// with the preference model. Both must outlive the solver.
  static Result<SkylineSolver> Create(const Dataset& data,
                                      const PreferenceModel& model);

  /// Det / Det+: exact sky(target). options.budget bounds the whole
  /// query: one deadline shared by every group solve.
  Result<double> Exact(ObjectId target, const SolverOptions& options = {},
                       SolveStats* stats = nullptr) const;

  /// Sam / Sam+: (epsilon, delta)-approximate sky(target). Dispatches on
  /// options.monte_carlo.engine; the pooled engines run over an inline
  /// pool here (bit-identical to the pool overload at any thread count).
  /// As in Exact, one deadline bounds the whole query; a group it stops
  /// keeps its truncated estimate. options.monte_carlo must pass the
  /// engine's option rule even when no group needs sampling.
  Result<double> MonteCarlo(ObjectId target, const SolverOptions& options = {},
                            SolveStats* stats = nullptr) const;

  /// Sam / Sam+ over \p pool: with a pooled engine (kBlock, kBitSliced)
  /// the per-group world blocks fan out across the pool's workers;
  /// estimates stay bit-identical to the poolless overload at every
  /// thread count (the kSerial engine ignores the pool entirely).
  Result<double> MonteCarlo(ObjectId target, const SolverOptions& options,
                            ThreadPool& pool,
                            SolveStats* stats = nullptr) const;

  /// The independent-dominance baseline ("Sac"), for comparison only.
  Result<double> Independent(ObjectId target) const;

  const Dataset& data() const { return *data_; }
  const PreferenceModel& model() const { return *model_; }

 private:
  SkylineSolver(const Dataset& data, const PreferenceModel& model)
      : data_(&data), model_(&model) {}

  /// Shared Sam body; \p pool is null for the poolless overload (the
  /// pooled engines then run inline).
  Result<double> MonteCarloImpl(ObjectId target, const SolverOptions& options,
                                ThreadPool* pool, SolveStats* stats) const;

  const Dataset* data_;
  const PreferenceModel* model_;
};

/// Preprocessing diagnostics of a batch all-objects solve, exact or
/// sampled.
struct BatchPreprocessStats {
  std::size_t targets = 0;
  std::size_t absorbed = 0;       ///< candidates dropped, summed over targets
  std::size_t groups = 0;         ///< independence groups, summed over targets
  std::size_t largest_group = 0;  ///< across all targets
};

namespace internal {

/// One target's candidate groups, in CandidateGroups' shape.
using TargetGroups = std::vector<std::vector<ObjectId>>;

/// Phase A of both batch solvers (BatchExactSkylineProbabilities and
/// batch Sam, sam_parallel.h).
struct BatchGroups {
  /// The (dim, value) -> objects posting lists driving absorption,
  /// engaged when preprocessing; kept so a target can be rebuilt.
  std::optional<ValuePostings> postings;
  std::vector<TargetGroups> groups;  ///< per target
  /// Per target: OK, or why its groups could not be built.
  std::vector<Status> status;
};

/// Every target's candidate groups. With \p preprocess, builds the shared
/// posting lists once and absorbs + partitions each target against them,
/// in chunks over \p pool so each worker recycles one PartitionWorkspace;
/// without, each target gets one group of every other object. With
/// \p guard_alloc each target's step runs under
/// TryAlloc("alloc.batch.partition") and a failure lands in status[t]
/// (the batch exact solver's per-target fault boundary). Fills \p stats
/// from the targets whose groups were built.
BatchGroups PartitionAllTargets(const Dataset& data, ThreadPool& pool,
                                bool preprocess, bool guard_alloc,
                                BatchPreprocessStats& stats);

/// One (dimension, value, value) preference lookup packed into a hashable
/// key (ValueId is 32-bit, so both values fit one uint64): the batch
/// exact solver's probability cache keys (candidate value, target
/// value), the batch Sam plan its ternary variables (lo, hi).
using ValuePairKey = std::pair<DimensionId, std::uint64_t>;

inline ValuePairKey MakeValuePairKey(DimensionId dim, ValueId a, ValueId b) {
  return {dim, (static_cast<std::uint64_t>(a) << 32) |
                   static_cast<std::uint64_t>(b)};
}

}  // namespace internal

/// Diagnostics of one batch all-objects solve.
struct BatchExactStats : BatchPreprocessStats {
  /// Distinct (dim, value-pair) preference probabilities computed once
  /// and shared by every target's flattened pair table.
  std::size_t distinct_pair_probs = 0;
  std::uint64_t subsets_visited = 0;  ///< summed over all exact solves
  /// Per-target outcome, indexed by ObjectId. A target that exhausted
  /// its budget carries its ResourceExhausted here (and NaN in the
  /// result vector) while every other target keeps its exact value —
  /// one heavy target no longer aborts the whole batch. Size targets
  /// after a successful call.
  std::vector<Status> target_status;
  /// Number of non-OK entries in target_status.
  std::size_t failed_targets = 0;
  /// Targets re-dispatched by the retry salvage pass (transient failures
  /// only; see BatchExactSkylineProbabilities).
  std::size_t retried_targets = 0;
  /// Retried targets whose re-dispatch succeeded; these carry their
  /// bit-identical exact value and an OK target_status, not NaN.
  std::size_t salvaged_targets = 0;
};

/// Exact sky(target) for EVERY object of the dataset (the all-objects
/// query shape of batch skyline-probability evaluation). Shares the
/// preprocessing across targets instead of redoing it per solve:
///
///  * the (dim, value) -> objects posting lists driving absorption are
///    built once (the dominance-candidate adjacency);
///  * the distinct preference probabilities Pr(a <= b) feeding the
///    flattened pair tables are computed once and reused by every
///    target whose table needs them;
///  * per-target solves are scheduled across \p pool largest-work-first
///    so a heavy target cannot serialize the tail.
///
/// Element i of the result is bit-identical to SkylineSolver::Exact(i)
/// with the same options, for every thread count of \p pool.
/// options.exact.max_subsets bounds each group solve as usual, while
/// options.budget bounds the whole batch: one deadline, one token.
///
/// Degradation contract: a target whose solve exhausts its budget or
/// deadline does NOT abort the batch. Its result slot is NaN, its Status
/// is recorded in BatchExactStats::target_status, and every other target
/// still receives its bit-identical exact value (salvage the failures
/// with the resilient ladder, src/core/resilient.h). Before stamping
/// NaN, targets that failed on TRANSIENT faults — allocation failure,
/// injected scheduler faults, anything ResourceExhausted that is not a
/// deterministic budget/deadline exhaustion — get one re-dispatch in
/// ascending ObjectId order against the remaining shared deadline;
/// salvaged values are bit-identical to their fault-free values. The call
/// itself fails only on invalid input or when options.budget.cancel is
/// tripped — cancellation abandons the whole query with
/// Status::Cancelled.
Result<std::vector<double>> BatchExactSkylineProbabilities(
    const Dataset& data, const PreferenceModel& model, ThreadPool& pool,
    const SolverOptions& options = {}, BatchExactStats* stats = nullptr);

/// Sum of every object's exact skyline probability — the expected number
/// of skyline objects under the uncertain preferences (by linearity of
/// expectation). Runs BatchExactSkylineProbabilities over \p pool (see
/// above for budget/deadline semantics).
Result<double> ExpectedSkylineCardinality(const Dataset& data,
                                          const PreferenceModel& model,
                                          ThreadPool& pool,
                                          const SolverOptions& options = {});

/// Single-threaded convenience overload (an inline 0-thread pool);
/// bit-identical to the parallel overload at any thread count.
Result<double> ExpectedSkylineCardinality(const Dataset& data,
                                          const PreferenceModel& model,
                                          const SolverOptions& options = {});

/// Exact sky(target) in rational arithmetic — the bit-exact reference used
/// by the test suite. \p preprocess toggles absorption + partition, whose
/// product recombination is also exact in this mode. As in
/// SkylineSolver::Exact, \p budget bounds the whole query.
Result<Rational> ExactSkylineProbabilityRational(
    const Dataset& data, ObjectId target, const RationalPreferenceModel& model,
    bool preprocess = false, const ExactOptions& options = {},
    const QueryBudget& budget = {});

}  // namespace skypref

#endif  // SKYPREF_CORE_SOLVER_H_

#ifndef SKYPREF_CORE_PARALLEL_H_
#define SKYPREF_CORE_PARALLEL_H_

/// \file
/// The thread-parallel Det+ engine.
///
/// Parallelism follows the algorithm's natural grain:
///
///  * Det+ — the independence groups of Theorem 4 are, by construction,
///    independent subproblems; they solve concurrently and their
///    survival factors multiply. Groups are dispatched longest-first so
///    one straggler group no longer serializes the tail, and a group
///    large enough to dominate the query is itself split into subtree
///    tasks by ParallelExactEngine (see below), so Det+ no longer goes
///    single-threaded when one group holds nearly all candidates.
///  * intra-group DFS — the inclusion-exclusion tree of one flattened
///    instance splits at its top levels into independent subtree tasks.
///    The decomposition is a pure function of the instance and
///    ParallelOptions::exact_tasks (never of the thread count), each task
///    accumulates its subtree with its own compensated accumulator, and
///    the per-task totals are reduced in task-creation order — so the
///    result is bit-identical for every thread count, including an
///    inline 0-thread pool. The task count is part of the numeric
///    contract.
///  * Sam — not here: the block-deterministic engines
///    (BlockMonteCarloSkylineProbability, sam_parallel.h, and
///    BitSlicedMonteCarloSkylineProbability, sam_bitslice.h) seed their
///    fixed-size world blocks from the BLOCK INDEX and reduce them in
///    block order, so estimates are bit-identical for every thread count.
///  * all-objects queries — also not here: batch Sam
///    (BatchMonteCarloSkylineProbabilities, sam_parallel.h) samples one
///    stream of shared worlds under the same block contract, and
///    BatchExactSkylineProbabilities (solver.h) is its exact counterpart.
///
/// Time limits: the query's QueryBudget (src/util/cancel.h) is resolved
/// once at entry and every group solve and subtree task polls that one
/// deadline, so the total wall time honors the limit once — not once per
/// group, which would allow groups x limit overshoot.
///
/// Cancellation: the budget's token is polled at task boundaries and at
/// the same bounded in-task cadence as the deadline. A token
/// cancelled before the solve starts yields Status::Cancelled at every
/// thread count (each task observes it at its boundary); a token
/// cancelled mid-solve aborts every task still running, and the first
/// recorded abort status — the cancel — wins the reduction.
///
/// Failpoints (SKYPREF_FAILPOINTS builds): "parallel.task" fires at a
/// task boundary and aborts the engine the way an organic budget trip
/// does; "exact.dfs" fires inside the serial per-group engines.

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/core/exact.h"
#include "src/core/solver.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace skypref {

struct ParallelOptions {
  /// Target number of subtree tasks when one exact DFS is split across
  /// the pool. The value is part of the numeric contract: results depend
  /// on it (the reduction re-associates the compensated sums at task
  /// boundaries) but never on the thread count.
  std::uint32_t exact_tasks = 64;

  /// Independence groups with at least this many candidates run on the
  /// intra-group parallel DFS; smaller groups solve serially (one task
  /// per group). Also part of the numeric contract.
  std::size_t min_split_candidates = 16;
};

/// Det+ with longest-first parallel group solves and intra-group subtree
/// parallelism for dominating groups. Same preprocessing as
/// SkylineSolver::Exact; per-group survival factors multiply in partition
/// order. Bit-identical for every thread count of \p pool. \p budget
/// bounds the whole query.
Result<double> ParallelExactSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const ExactOptions& options = {},
    const ParallelOptions& parallel = {}, SolveStats* stats = nullptr,
    const QueryBudget& budget = {});

// -------------------------------------------------------------------------
// Implementation: the intra-group parallel DFS engine
// -------------------------------------------------------------------------

namespace internal {

/// Splits one flattened inclusion-exclusion DFS into independent subtree
/// tasks and reduces their totals deterministically.
///
/// Protocol (the three phases may not overlap):
///   1. BuildTasks()          — serial. Expands the top of the DFS tree
///                              breadth-first until ~target_tasks subtree
///                              roots exist, accumulating the expanded
///                              prefixes' own terms in creation order.
///   2. RunTask(k), k < task_count() — thread-compatible; each k exactly
///                              once, any order, any thread. Tasks charge
///                              a shared atomic subset budget and poll
///                              the query's resolved budget.
///   3. Reduce(stats)         — serial. Folds the per-task subtree totals
///                              into the prefix accumulator in task-
///                              creation order and returns the result (or
///                              the first recorded error).
///
/// Determinism: the decomposition depends only on (instance, options,
/// target_tasks); per-task totals are scheduling-independent; the
/// reduction order is fixed. Hence the result is bit-identical for every
/// thread count. Success-vs-ResourceExhausted is deterministic too: the
/// total charged against max_subsets is the same full enumeration count
/// regardless of interleaving.
template <typename Oracle>
class ParallelExactEngine {
 public:
  using Num = typename Oracle::NumType;

  /// The instance must outlive the engine. \p target_tasks >= 1;
  /// \p budget is the query's resolved budget.
  ParallelExactEngine(const FlatInstance<Oracle>& instance,
                      const ExactOptions& options, std::uint32_t target_tasks,
                      const QueryBudget& budget = {})
      : instance_(&instance),
        options_(options),
        budget_(budget),
        target_tasks_(target_tasks > 0 ? target_tasks : 1) {}

  ParallelExactEngine(const ParallelExactEngine&) = delete;
  ParallelExactEngine& operator=(const ParallelExactEngine&) = delete;

  /// Phase 1; returns false when expansion already exhausted the budget
  /// or deadline (Reduce reports the error; tasks are then empty).
  bool BuildTasks() {
    build_status_ = Status::OK();
    prefix_acc_ = Accumulator<Num>();
    prefix_acc_.Add(Num(1));  // the k = 0 term of Eq. 4
    expansion_visited_ = 0;
    const std::size_t m = instance_->candidate_count();
    if (m == 0) return true;

    std::vector<std::uint32_t> counts(instance_->pair_count(), 0);
    std::deque<Task> queue;
    queue.push_back(Task{{}, 0, Num(1), /*positive_sign=*/false});
    while (!queue.empty()) {
      // Keep the state as a task once enough subtree roots exist; the
      // queue is breadth-first, so the biggest subtrees split first.
      if (queue.size() + tasks_.size() >= target_tasks_ ||
          queue.front().next >= m) {
        Task task = std::move(queue.front());
        queue.pop_front();
        if (task.next < m) tasks_.push_back(std::move(task));
        continue;
      }
      Task state = std::move(queue.front());
      queue.pop_front();
      // Replay the prefix multiplicities, then run ONE level of the DFS:
      // accumulate each child's term and queue the child subtree.
      for (std::uint32_t c : state.prefix) {
        for (std::uint32_t p : instance_->pairs_of(c)) ++counts[p];
      }
      for (std::uint32_t i = state.next;
           i < static_cast<std::uint32_t>(m) && build_status_.ok(); ++i) {
        if (!ChargeExpansionVisit()) break;
        Num extended = state.product;
        std::span<const std::uint32_t> pairs = instance_->pairs_of(i);
        for (std::uint32_t p : pairs) {
          if (counts[p]++ == 0) extended = extended * instance_->pair_prob[p];
        }
        prefix_acc_.Add(state.positive_sign ? extended : -extended);
        if (!options_.prune_zero || !(extended == Num(0))) {
          Task child;
          child.prefix = state.prefix;
          child.prefix.push_back(i);
          child.next = i + 1;
          child.product = extended;
          child.positive_sign = !state.positive_sign;
          if (child.next < m) queue.push_back(std::move(child));
        }
        for (std::uint32_t p : pairs) --counts[p];
      }
      for (std::uint32_t c : state.prefix) {
        for (std::uint32_t p : instance_->pairs_of(c)) --counts[p];
      }
      if (!build_status_.ok()) {
        tasks_.clear();
        return false;
      }
    }
    task_values_.resize(tasks_.size());
    task_visited_.assign(tasks_.size(), 0);
    task_statuses_.assign(tasks_.size(), Status::OK());
    charged_.store(expansion_visited_, std::memory_order_relaxed);
    return true;
  }

  std::size_t task_count() const { return tasks_.size(); }

  /// Phase 2: runs subtree task \p k to completion (or until the shared
  /// budget/deadline trips, or cancellation is observed). Thread-
  /// compatible across distinct k. Cancellation is checked here, at the
  /// task boundary, so a pre-cancelled token aborts every task
  /// identically at any thread count.
  void RunTask(std::size_t k) {
    const Task& task = tasks_[k];
    TaskContext ctx;
    if (SKYPREF_FAILPOINT("parallel.task")) {
      Status failed = Status::ResourceExhausted("failpoint parallel.task");
      task_statuses_[k] = failed;
      RecordAbort(failed);
      return;
    }
    if (budget_.cancelled()) {
      Status cancelled = CancelledStatus();
      task_statuses_[k] = cancelled;
      RecordAbort(cancelled);
      return;
    }
    if (Aborted()) {
      task_statuses_[k] = AbortStatus();
      return;
    }
    ctx.counts.assign(instance_->pair_count(), 0);
    for (std::uint32_t c : task.prefix) {
      for (std::uint32_t p : instance_->pairs_of(c)) ++ctx.counts[p];
    }
    TaskDfs(ctx, task.next, task.product, task.positive_sign);
    FlushCharges(ctx);
    task_visited_[k] = ctx.total_visits;
    task_values_[k] = ctx.acc.Value();
    task_statuses_[k] = ctx.status;
  }

  /// Phase 3: deterministic fixed-order reduction.
  Result<Num> Reduce(ExactStats* stats) {
    std::uint64_t visited = expansion_visited_;
    for (std::uint64_t v : task_visited_) visited += v;
    if (stats != nullptr) stats->subsets_visited = visited;
    if (!build_status_.ok()) return build_status_;
    for (const Status& status : task_statuses_) {
      if (!status.ok()) return status;
    }
    Accumulator<Num> total = prefix_acc_;
    for (const Num& value : task_values_) total.Add(value);
    return total.Value();
  }

  /// Convenience: all three phases over \p pool.
  Result<Num> Run(ThreadPool& pool, ExactStats* stats = nullptr) {
    if (BuildTasks()) {
      pool.ParallelFor(tasks_.size(), [this](std::size_t k) { RunTask(k); });
    }
    return Reduce(stats);
  }

 private:
  struct Task {
    std::vector<std::uint32_t> prefix;  // candidate indices forming I
    std::uint32_t next = 0;             // first extension index
    Num product{};                      // Pr(E_I)
    bool positive_sign = false;         // sign of the children's terms
  };

  struct TaskContext {
    std::vector<std::uint32_t> counts;
    Accumulator<Num> acc;
    std::uint64_t total_visits = 0;
    std::uint64_t pending_visits = 0;
    Status status;
  };

  // Charges visits in batches against the shared budget so the atomic is
  // touched every kChargeBatch subsets, not every subset.
  static constexpr std::uint64_t kChargeBatch = 1024;

  void TaskDfs(TaskContext& ctx, std::uint32_t next, const Num& product,
               bool positive_sign) {
    const std::uint32_t m = static_cast<std::uint32_t>(
        instance_->candidate_count());
    for (std::uint32_t i = next; i < m && ctx.status.ok(); ++i) {
      if (!ChargeTaskVisit(ctx)) return;
      Num extended = product;
      std::span<const std::uint32_t> pairs = instance_->pairs_of(i);
      for (std::uint32_t p : pairs) {
        if (ctx.counts[p]++ == 0) {
          extended = extended * instance_->pair_prob[p];
        }
      }
      ctx.acc.Add(positive_sign ? extended : -extended);
      if (!options_.prune_zero || !(extended == Num(0))) {
        TaskDfs(ctx, i + 1, extended, !positive_sign);
      }
      for (std::uint32_t p : pairs) --ctx.counts[p];
    }
  }

  bool ChargeTaskVisit(TaskContext& ctx) {
    ++ctx.total_visits;
    if (++ctx.pending_visits < kChargeBatch) return true;
    FlushCharges(ctx);
    if (!ctx.status.ok()) return false;
    if (Aborted()) {
      ctx.status = AbortStatus();
      return false;
    }
    if (budget_.cancelled()) {
      ctx.status = CancelledStatus();
      RecordAbort(ctx.status);
      return false;
    }
    if (budget_.deadline.Expired()) {
      ctx.status = TimeLimitExhausted();
      RecordAbort(ctx.status);
      return false;
    }
    return true;
  }

  void FlushCharges(TaskContext& ctx) {
    if (ctx.pending_visits == 0) return;
    std::uint64_t total =
        charged_.fetch_add(ctx.pending_visits, std::memory_order_relaxed) +
        ctx.pending_visits;
    ctx.pending_visits = 0;
    if (options_.max_subsets != 0 && total > options_.max_subsets &&
        ctx.status.ok()) {
      ctx.status = SubsetBudgetExhausted(options_.max_subsets);
      RecordAbort(ctx.status);
    }
  }

  bool ChargeExpansionVisit() {
    ++expansion_visited_;
    if (options_.max_subsets != 0 &&
        expansion_visited_ > options_.max_subsets) {
      build_status_ = SubsetBudgetExhausted(options_.max_subsets);
      return false;
    }
    if ((expansion_visited_ & 0xff) == 0) {
      if (budget_.cancelled()) {
        build_status_ = CancelledStatus();
        return false;
      }
      if (budget_.deadline.Expired()) {
        build_status_ = TimeLimitExhausted();
        return false;
      }
    }
    return true;
  }

  bool Aborted() const { return abort_.load(std::memory_order_acquire); }

  void RecordAbort(const Status& status) SKYPREF_EXCLUDES(abort_mutex_) {
    {
      MutexLock lock(abort_mutex_);
      if (abort_status_.ok()) abort_status_ = status;
    }
    abort_.store(true, std::memory_order_release);
  }

  Status AbortStatus() SKYPREF_EXCLUDES(abort_mutex_) {
    MutexLock lock(abort_mutex_);
    return abort_status_.ok()
               ? Status::ResourceExhausted("exact solve aborted")
               : abort_status_;
  }

  const FlatInstance<Oracle>* instance_;
  ExactOptions options_;
  QueryBudget budget_;
  std::uint32_t target_tasks_;

  // Phase 1 state (serial).
  std::vector<Task> tasks_;
  Accumulator<Num> prefix_acc_;
  std::uint64_t expansion_visited_ = 0;
  Status build_status_;

  // Phase 2 state (per-task slots + shared charging).
  std::vector<Num> task_values_;
  std::vector<std::uint64_t> task_visited_;
  std::vector<Status> task_statuses_;
  std::atomic<std::uint64_t> charged_{0};
  std::atomic<bool> abort_{false};
  Mutex abort_mutex_;
  Status abort_status_ SKYPREF_GUARDED_BY(abort_mutex_);
};

}  // namespace internal

}  // namespace skypref

#endif  // SKYPREF_CORE_PARALLEL_H_

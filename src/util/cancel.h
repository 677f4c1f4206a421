#ifndef SKYPREF_UTIL_CANCEL_H_
#define SKYPREF_UTIL_CANCEL_H_

/// \file
/// Cooperative cancellation, the unified deadline type, and the query
/// budget that carries both.
///
/// The solvers are exponential by design (#P-completeness, Theorem 1), so
/// in a serving scenario every long computation must be interruptible.
/// Two orthogonal stop signals exist:
///
///  * Deadline — a fixed point on the steady clock after which the
///    computation should give up. Expiry maps to
///    Status::ResourceExhausted: the result is still wanted, just
///    cheaper — the resilient ladder (src/core/resilient.h) answers with
///    a sampled estimate or a certified interval instead.
///
///  * CancelToken — an external "stop, the answer is no longer wanted"
///    signal (client disconnect, superseded query). Solvers poll the
///    token cooperatively at the SAME bounded intervals as the deadline
///    (every few thousand DFS visits, every task boundary, every sampler
///    batch), so a cancel is observed within microseconds without any
///    per-iteration cost. Cancellation maps to Status::Cancelled and is
///    NOT degraded around: the whole query aborts.
///
/// QueryBudget bundles a time limit, a deadline and a token — the one
/// budget shape of every public entry point (SolverOptions::budget,
/// AllWorldsOptions::budget, or a trailing parameter). An entry point
/// calls Resolve() once and hands the resolved budget to every engine
/// and sub-call, so a query-wide limit is observed once, not once per
/// independence group, target or skycube cell. Resolving is the only
/// place a time limit becomes a deadline, and resolving a resolved
/// budget changes nothing.
///
/// Determinism: cancellation is observed at deterministic work
/// boundaries (visit-count checkpoints, task starts), so a token that is
/// already cancelled when a solve starts yields Status::Cancelled at
/// every thread count — the property the 0/1/2/8-thread tests pin down.
/// A token cancelled asynchronously mid-solve races the solve's own
/// completion, as any cooperative scheme must; once the cancel is
/// observed by any task, the query-level outcome is Cancelled.
///
/// All three types are cheap values. CancelToken copies share one flag
/// (shared_ptr<atomic<bool>>), so a caller keeps one token, points a
/// budget at it, and flips it from any thread.
///
/// Everything here is lock-free on purpose: polls sit on solver hot
/// paths, so there is no mutex and nothing for -Wthread-safety to guard
/// (see src/util/thread_annotations.h for the annotated-lock conventions
/// the rest of the tree follows).

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>

#include "src/util/status.h"

namespace skypref {

/// A fixed point on the steady clock; default-constructed = never.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  /// Never expires.
  Deadline() = default;

  /// Expires at the given absolute steady-clock time.
  static Deadline At(TimePoint tp) { return Deadline(tp); }

  /// Expires \p seconds from now; non-positive seconds = never.
  static Deadline After(double seconds) {
    if (seconds <= 0.0) return Deadline();
    return Deadline(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds)));
  }

  static Deadline Never() { return Deadline(); }

  bool has_value() const { return when_.has_value(); }

  /// True iff a deadline is set and has passed. Calls Clock::now(), so
  /// poll at bounded intervals, not per inner-loop iteration.
  bool Expired() const { return when_.has_value() && Clock::now() > *when_; }

  /// The absolute expiry time; only meaningful when has_value().
  TimePoint when() const { return when_.value(); }

 private:
  explicit Deadline(TimePoint tp) : when_(tp) {}

  std::optional<TimePoint> when_;
};

/// Shared cancellation flag. Copies alias the same flag; a
/// default-constructed token is live (not cancelled) and cancellable.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Requests cancellation; safe from any thread, idempotent.
  void RequestCancel() const { flag_->store(true, std::memory_order_release); }

  /// True once RequestCancel has been called on any copy.
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The Status a solver returns when it observes a cancelled token.
inline Status CancelledStatus() {
  return Status::Cancelled("solve cancelled by caller");
}

/// Convenience poll for solver checkpoints: Cancelled if \p cancel is
/// set and tripped, ResourceExhausted if \p deadline expired, OK
/// otherwise. Cancellation wins — the answer is no longer wanted.
inline Status CheckStop(const CancelToken* cancel, const Deadline& deadline) {
  if (cancel != nullptr && cancel->cancelled()) return CancelledStatus();
  if (deadline.Expired()) {
    return Status::ResourceExhausted("solve exceeded its deadline");
  }
  return Status::OK();
}

/// The stop signals of one query. Set by the caller; every public entry
/// point resolves it once (Resolve) and passes the resolved budget down.
struct QueryBudget {
  /// Wall time for the whole query, counted from the entry point that
  /// resolves the budget; non-positive = unlimited.
  double time_limit_seconds = 0.0;
  /// An absolute deadline; when set it wins over time_limit_seconds.
  Deadline deadline;
  /// Optional cooperative cancellation. Not owned; must outlive the
  /// query. nullptr = not cancellable.
  const CancelToken* cancel = nullptr;

  /// Starts the clock: the resolved budget keeps an explicit deadline,
  /// otherwise its deadline is time_limit_seconds from now; with neither
  /// set no clock is read. Its time limit is spent (zero), so resolving
  /// it again changes nothing. Cancelled when the token is already
  /// tripped.
  Result<QueryBudget> Resolve() const;

  /// True once the token is tripped; engines poll it at the same bounded
  /// cadence as deadline.Expired().
  bool cancelled() const { return cancel != nullptr && cancel->cancelled(); }
};

inline Result<QueryBudget> QueryBudget::Resolve() const {
  if (cancelled()) return CancelledStatus();
  QueryBudget resolved;
  resolved.deadline =
      deadline.has_value() ? deadline : Deadline::After(time_limit_seconds);
  resolved.cancel = cancel;
  return resolved;
}

}  // namespace skypref

#endif  // SKYPREF_UTIL_CANCEL_H_

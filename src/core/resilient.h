#ifndef SKYPREF_CORE_RESILIENT_H_
#define SKYPREF_CORE_RESILIENT_H_

/// \file
/// The resilient solve ladder: exact where affordable, sampled where
/// not, certified bounds as the last rung — never a lost query.
///
/// Exact skyline probability is #P-complete (Theorem 1), so under any
/// real budget the Det+ path WILL exhaust on adversarial independence
/// groups. The plain solvers answer that with ResourceExhausted,
/// discarding the exact factors of every group that did finish. This
/// ladder instead degrades per group, leaning on two guarantees the
/// paper already provides:
///
///  * Theorem 4 — sky(O) is the product of per-group survival factors,
///    so groups can be answered by DIFFERENT algorithms and recombined;
///  * Theorem 2 (Hoeffding) — Sam estimates one group within epsilon at
///    confidence 1 - delta, and the telescoping bound documented in
///    solver.h (|prod a - prod b| <= sum |a_t - b_t| for factors in
///    [0,1]) caps the recombined error by the SUM of per-group epsilons.
///
/// Ladder per independence group, under ONE query budget
/// (solver.budget, resolved once at entry; its deadline and token govern
/// all three rungs):
///
///   rung 1  Det   — the exact engine with the caller's subset budget.
///   rung 2  Sam   — for groups whose exact solve exhausted: the
///                   bit-sliced engine (sam_bitslice.h, whatever
///                   solver.monte_carlo.engine says) with the
///                   (epsilon, delta) budget split evenly over the
///                   exhausted groups. A deadline-truncated sample
///                   keeps its partial estimate at the widened
///                   HoeffdingEpsilon(achieved_samples, delta) bar.
///   rung 3  bounds — when the deadline is already spent (or the engine
///                   fails the group, e.g. on an allocation failure):
///                   the certified Bonferroni interval of bounds.h,
///                   whose midpoint enters the product and whose
///                   half-width enters the error bar. Level 0 ([0, 1])
///                   always exists, so this rung cannot fail.
///
/// solver.monte_carlo must pass the bit-sliced engine's option rule
/// (internal::ResolveSampling: finite epsilon and delta for a derived
/// count, a block_size that is a positive multiple of 64, no saturated
/// count) even when no group exhausts; otherwise the ladder returns
/// InvalidArgument at entry instead of falling to rung 3 without saying
/// why.
///
/// The result annotates every group with the rung that answered it and
/// recombines: estimate = prod survival_t, error bar = sum epsilon_t,
/// overall confidence 1 - sum delta_t. When NO group exhausts, the
/// answer is bit-identical to SkylineSolver::Exact with the same
/// options, at every thread count of the pool — the ladder costs
/// nothing until the moment it is needed.
///
/// Cancellation (solver.budget.cancel, which every rung polls) is
/// different from exhaustion: it means the answer is no longer wanted,
/// aborts the whole ladder, and returns Status::Cancelled.

#include <cstdint>
#include <vector>

#include "src/core/bounds.h"
#include "src/core/solver.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace skypref {

/// Which rung of the ladder answered a group.
enum class GroupQuality : std::uint8_t {
  kExact,    ///< rung 1: exact inclusion-exclusion value
  kSampled,  ///< rung 2: Monte-Carlo estimate, (epsilon, delta) annotated
  kBounded,  ///< rung 3: certified interval, midpoint used
};

/// "exact" / "sampled" / "bounded".
const char* GroupQualityToString(GroupQuality quality);

/// Outcome of one independence group, in partition order.
struct GroupReport {
  std::size_t size = 0;  ///< candidates in the group
  GroupQuality quality = GroupQuality::kExact;
  /// The survival factor entering the Theorem-4 product.
  double survival = 1.0;
  /// Per-group interval: degenerate [survival, survival] for kExact,
  /// survival +/- epsilon (clamped) for kSampled, the certified
  /// Bonferroni interval for kBounded.
  double lower = 1.0;
  double upper = 1.0;
  /// Error bar on this factor: 0 for kExact, the (possibly widened)
  /// Hoeffding epsilon for kSampled, the interval half-width for
  /// kBounded.
  double epsilon = 0.0;
  /// Failure probability of this factor's bar (kSampled only; the other
  /// rungs are certain).
  double delta = 0.0;
  /// Worlds drawn by the kSampled rung (0 otherwise).
  std::uint64_t samples = 0;
  /// Why rung 1 gave up (ResourceExhausted); OK when quality == kExact.
  Status exact_status;
};

/// A finite answer with per-group quality annotations and a recombined
/// error bar.
struct ResilientResult {
  /// Product of per-group survival factors, clamped to [0, 1].
  double estimate = 1.0;
  /// Interval product (monotone for factors in [0, 1]): certain for
  /// exact/bounded groups, holding with probability >= 1 - delta over
  /// the sampled ones.
  double lower = 1.0;
  double upper = 1.0;
  /// Telescoping bound on |estimate - sky(target)|: the SUM of
  /// per-group epsilons. 0 iff fully_exact.
  double epsilon = 0.0;
  /// Union bound over the sampled groups' failure probabilities.
  double delta = 0.0;
  /// True iff every group was answered by rung 1 — then estimate is
  /// bit-identical to SkylineSolver::Exact with the same options.
  bool fully_exact = true;
  std::vector<GroupReport> groups;  ///< partition order
  SolveStats stats;
};

struct ResilientOptions {
  /// Preprocessing toggle, the rung-1 subset budget (solver.exact), the
  /// rung-2 sampling budget (solver.monte_carlo: epsilon and delta are
  /// the TOTAL fallback budget, split evenly over the groups that
  /// exhaust; seed forks per sampled group; its engine field is not
  /// read) and the query budget of all three rungs (solver.budget).
  SolverOptions solver;
  /// Rung 3: the certified-interval budget. The defaults keep the rung
  /// cheap — level <= 2 costs at most |group|^2 / 2 terms.
  BoundsOptions bounds = {.max_level = 2, .term_budget = 1u << 16};
};

/// The ladder over \p pool: group exact solves are dispatched
/// longest-first, fallbacks run after all exact attempts settle.
/// Deterministic given deterministic rung-1 outcomes (a subset budget is
/// deterministic; a wall-clock deadline is not), and bit-identical to
/// SkylineSolver::Exact at every thread count when no group exhausts.
Result<ResilientResult> ResilientSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const ResilientOptions& options = {});

/// Single-threaded convenience overload (an inline 0-thread pool).
Result<ResilientResult> ResilientSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    const ResilientOptions& options = {});

/// All-objects resilient solve: runs BatchExactSkylineProbabilities and
/// re-answers every target the batch had to fail (per its
/// BatchExactStats::target_status) through the ladder. Every target gets
/// a finite estimate; targets the batch solved keep their bit-identical
/// exact values. solver.budget bounds the whole call: the batch and
/// every salvage ladder share its one deadline, so a target salvaged
/// after the deadline answers from the certified interval.
struct ResilientBatchResult {
  std::vector<double> estimates;      ///< finite for every target
  std::vector<GroupQuality> quality;  ///< worst rung used per target
  std::vector<double> epsilons;       ///< recombined bar per target
  std::vector<double> deltas;
  std::size_t degraded_targets = 0;  ///< targets not answered exactly
  BatchExactStats batch_stats;
};

Result<ResilientBatchResult> ResilientBatchSkylineProbabilities(
    const Dataset& data, const PreferenceModel& model, ThreadPool& pool,
    const ResilientOptions& options = {});

}  // namespace skypref

#endif  // SKYPREF_CORE_RESILIENT_H_

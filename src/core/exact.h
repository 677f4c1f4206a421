#ifndef SKYPREF_CORE_EXACT_H_
#define SKYPREF_CORE_EXACT_H_

/// \file
/// Deterministic skyline-probability computation (Algorithm 1, "Det").
///
/// Evaluates the inclusion-exclusion expansion of Eq. 4,
///
///   sky(O) = 1 + sum_{k=1..n} (-1)^k sum_{|I|=k} Pr(E_I),
///   Pr(E_I) = prod_j prod_{v in V_I^j} Pr(v <= O.j)   (distinct values!)
///
/// using the paper's sharing-computation technique: Pr(E_I) is derived
/// from Pr(E_{I \ {i}}) by multiplying in only the value factors that Qi
/// newly contributes, an O(d) step. The paper materializes level k from
/// level k-1, which needs C(n, n/2) memory; walking subsets in DFS order
/// achieves the same O(d)-per-subset sharing with O(nd) memory, because
/// adding/removing one object from the running subset touches at most d
/// per-dimension value counters.
///
/// The walk runs over a flattened instance (FlatInstance, built by
/// BuildFlatInstance): the distinct (dim, value) factors become a dense
/// pair-id table with their Pr(v <= O.j) probabilities precomputed, and
/// each candidate carries a compact index list of the pairs where it
/// differs from the target (CSR layout). The DFS inner loop
/// (FlatExactEngine) is then pure array arithmetic — no model hash
/// lookups, no `q[j] == o[j]` branch, and multiplicity counters indexed
/// by dense pair id. Possible-world enumeration
/// (BruteForceSkylineProbability, brute_force.h) is the independent
/// referee it is checked against, exactly, in rational arithmetic.
///
/// Additional engineering on top of the paper:
///  * zero subtrees are pruned — once Pr(E_I) = 0, every superset of I
///    also has probability 0 and contributes nothing (toggle via
///    ExactOptions::prune_zero for the ablation bench);
///  * a subset budget (ExactOptions::max_subsets) and a QueryBudget
///    (src/util/cancel.h) so benches can report "did not finish" instead
///    of hanging (the problem is #P-complete; Det is exponential by
///    design). The budget's deadline and cancel token are polled every
///    4096 visits; callers that fan one query out over several solves
///    (Det+ groups, batch all-objects) pass every solve the query's one
///    resolved budget, so the total wall time honors the limit once, not
///    once per solve. A token cancelled before the solve starts yields
///    Status::Cancelled deterministically;
///  * a deterministic failpoint in the visit-charging path ("exact.dfs",
///    src/util/failpoint.h, compiled out unless SKYPREF_FAILPOINTS) so
///    tests can force the ResourceExhausted degradation path on the N-th
///    visit.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/dominance.h"
#include "src/core/oracles.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/cancel.h"
#include "src/util/failpoint.h"
#include "src/util/hash.h"
#include "src/util/status.h"
#include "src/util/try_alloc.h"

namespace skypref {

struct ExactOptions {
  /// Abort with ResourceExhausted after visiting this many subsets
  /// (0 = unlimited). Each visited subset costs O(d).
  std::uint64_t max_subsets = 0;

  /// Skip subtrees whose joint probability is exactly zero.
  bool prune_zero = true;
};

/// Statistics of one exact computation, for benches and tests.
struct ExactStats {
  std::uint64_t subsets_visited = 0;
};

/// Computes sky(target) exactly, considering only the dominators listed in
/// \p candidates (callers pass all other objects, or a preprocessed
/// subset). Object values listed in \p candidates must not equal target.
///
/// Numeric-generic: instantiate with DoubleOracle for speed or
/// RationalOracle for bit-exact results. \p budget is resolved at entry:
/// its deadline expiry is ResourceExhausted ("time limit"), its token
/// Cancelled.
template <typename Oracle>
Result<typename Oracle::NumType> ExactSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const Oracle& oracle, const ExactOptions& options = {},
    ExactStats* stats = nullptr, const QueryBudget& budget = {});

/// Convenience wrapper over all objects except \p target, double
/// precision, no preprocessing (the paper's plain "Det").
Result<double> ExactSkylineProbability(const Dataset& data, ObjectId target,
                                       const PreferenceModel& model,
                                       const ExactOptions& options = {},
                                       ExactStats* stats = nullptr,
                                       const QueryBudget& budget = {});

// -------------------------------------------------------------------------
// Implementation
// -------------------------------------------------------------------------

namespace internal {

inline Status SubsetBudgetExhausted(std::uint64_t max_subsets) {
  return Status::ResourceExhausted(
      "exact solver exceeded subset budget of " + std::to_string(max_subsets));
}

inline Status TimeLimitExhausted() {
  return Status::ResourceExhausted("exact solver exceeded its time limit");
}

/// One single-target instance, flattened: the exact DFS, the kSerial and
/// pooled samplers, lineage DP and the level walks below all read it.
///
/// The distinct (dim, value) factors of Eq. 6 — the values where some
/// candidate differs from the target — are assigned dense pair ids in
/// first-encounter order (candidate-major, dimension-minor).
/// `pair_prob[p]` caches Pr(v <= O.j) for pair p; candidate i owns the id
/// slice `pair_ids[offsets[i] .. offsets[i+1])`, listing its differing
/// dimensions in ascending dimension order. Because two candidates
/// sharing a (dim, value) map to the SAME pair id, a multiplicity counter
/// per pair id gives Eq. 4's "distinct values count once" semantics.
template <typename Oracle>
struct FlatInstance {
  using Num = typename Oracle::NumType;

  std::vector<Num> pair_prob;           ///< dense pair id -> Pr(v <= O.j)
  std::vector<std::uint32_t> pair_ids;  ///< concatenated candidate slices
  std::vector<std::uint32_t> offsets;   ///< size candidates+1; CSR offsets

  std::size_t candidate_count() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::size_t pair_count() const { return pair_prob.size(); }

  std::span<const std::uint32_t> pairs_of(std::size_t candidate) const {
    return std::span<const std::uint32_t>(pair_ids.data() + offsets[candidate],
                                          offsets[candidate + 1] -
                                              offsets[candidate]);
  }
};

/// Flattens (data, target, candidates, oracle) into a FlatInstance — the
/// only single-target (dim, value) interner. All oracle lookups for the
/// whole solve happen here, once per distinct (dim, value) pair; the
/// engines afterwards touch only dense arrays.
template <typename Oracle>
FlatInstance<Oracle> BuildFlatInstance(const Dataset& data, ObjectId target,
                                       std::span<const ObjectId> candidates,
                                       const Oracle& oracle) {
  FlatInstance<Oracle> instance;
  std::unordered_map<std::pair<DimensionId, ValueId>, std::uint32_t, PairHash>
      pair_index;
  instance.offsets.reserve(candidates.size() + 1);
  instance.offsets.push_back(0);
  std::span<const ValueId> o = data.object(target);
  for (ObjectId id : candidates) {
    std::span<const ValueId> q = data.object(id);
    for (DimensionId j = 0; j < data.dimensions(); ++j) {
      if (q[j] == o[j]) continue;
      auto [it, inserted] = pair_index.try_emplace(
          {j, q[j]}, static_cast<std::uint32_t>(instance.pair_prob.size()));
      if (inserted) {
        instance.pair_prob.push_back(oracle.LessEq(j, q[j], o[j]));
      }
      instance.pair_ids.push_back(it->second);
    }
    instance.offsets.push_back(
        static_cast<std::uint32_t>(instance.pair_ids.size()));
  }
  return instance;
}

/// Level-ordered inclusion-exclusion over a flattened instance: the
/// k-subsets I of its candidates in lexicographic order, each with its
/// Pr(E_I) of Eq. 4 — a pair several members share is multiplied in once,
/// tracked by per-pair stamps. Serves the Bonferroni bounds (bounds.cc)
/// and the partial-terms approximation (tentative_approx.cc), which stop
/// at a level or term budget instead of walking all 2^n subsets. The
/// instance must outlive the walker.
class LevelTerms {
 public:
  explicit LevelTerms(const FlatInstance<DoubleOracle>& instance)
      : instance_(&instance), seen_(instance.pair_count(), 0) {}

  /// Calls fn(Pr(E_I)) for each subset I of size k (1 <= k <= candidate
  /// count) until fn returns false; returns whether the level completed.
  template <typename Fn>
  bool ForEach(std::size_t k, Fn&& fn) {
    const std::size_t n = instance_->candidate_count();
    std::vector<std::size_t> comb(k);
    for (std::size_t i = 0; i < k; ++i) comb[i] = i;
    while (true) {
      ++term_id_;
      double joint = 1.0;
      for (std::size_t pos : comb) {
        for (std::uint32_t p : instance_->pairs_of(pos)) {
          if (seen_[p] != term_id_) {
            seen_[p] = term_id_;
            joint *= instance_->pair_prob[p];
          }
        }
      }
      if (!fn(joint)) return false;
      std::size_t i = k;
      while (i > 0 && comb[i - 1] == n - k + (i - 1)) --i;
      if (i == 0) return true;
      ++comb[i - 1];
      for (std::size_t t = i; t < k; ++t) comb[t] = comb[t - 1] + 1;
    }
  }

 private:
  const FlatInstance<DoubleOracle>* instance_;
  std::vector<std::uint64_t> seen_;  // pair id -> last term that used it
  std::uint64_t term_id_ = 0;
};

/// The flattened DFS engine: walks the inclusion-exclusion tree over a
/// prebuilt FlatInstance, polling a resolved \p budget. The instance must
/// outlive the engine.
template <typename Oracle>
class FlatExactEngine {
 public:
  using Num = typename Oracle::NumType;

  FlatExactEngine(const FlatInstance<Oracle>& instance,
                  const ExactOptions& options, const QueryBudget& budget = {})
      : instance_(&instance), options_(options), budget_(budget) {
    counts_.assign(instance.pair_count(), 0);
  }

  Result<Num> Run(ExactStats* stats) {
    if (stats != nullptr) stats->subsets_visited = 0;
    status_ = Status::OK();
    accumulator_ = Accumulator<Num>();
    accumulator_.Add(Num(1));  // the k = 0 term of Eq. 4
    visited_ = 0;
    Dfs(0, Num(1), /*positive_sign=*/false);
    if (stats != nullptr) stats->subsets_visited = visited_;
    if (!status_.ok()) return status_;
    return accumulator_.Value();
  }

 private:
  // Extends the current subset with each candidate index >= next in turn.
  // `product` is Pr(E_I) for the current subset I; `positive_sign` is the
  // sign of the NEXT level's terms ((-1)^{|I|+1}).
  void Dfs(std::size_t next, const Num& product, bool positive_sign) {
    const std::size_t m = instance_->candidate_count();
    for (std::size_t i = next; i < m && status_.ok(); ++i) {
      if (!ChargeVisit()) return;
      Num extended = product;
      // Multiply in the factors of pairs the candidate newly contributes
      // (sharing computation: pairs already present in I count once).
      std::span<const std::uint32_t> pairs = instance_->pairs_of(i);
      for (std::uint32_t p : pairs) {
        if (counts_[p]++ == 0) {
          extended = extended * instance_->pair_prob[p];
        }
      }
      accumulator_.Add(positive_sign ? extended : -extended);
      if (!options_.prune_zero || !(extended == Num(0))) {
        Dfs(i + 1, extended, !positive_sign);
      }
      for (std::uint32_t p : pairs) --counts_[p];
    }
  }

  bool ChargeVisit() {
    ++visited_;
    // The failpoint consults on the solve's first visit plus the same
    // amortized cadence as the deadline poll below — a per-visit consult
    // would put an atomic RMW in the DFS hot loop of every
    // failpoints-enabled build. Hit ordinals therefore count (solve
    // entries + poll crossings), and a kSingle n=1 arming still fails
    // the first armed solve.
    if ((visited_ == 1 || (visited_ & 0xfff) == 0) &&
        SKYPREF_FAILPOINT("exact.dfs")) {
      status_ = Status::ResourceExhausted("failpoint exact.dfs");
      return false;
    }
    if (options_.max_subsets != 0 && visited_ > options_.max_subsets) {
      status_ = SubsetBudgetExhausted(options_.max_subsets);
      return false;
    }
    if ((visited_ & 0xfff) == 0) {
      if (budget_.cancelled()) {
        status_ = CancelledStatus();
        return false;
      }
      if (budget_.deadline.Expired()) {
        status_ = TimeLimitExhausted();
        return false;
      }
    }
    return true;
  }

  const FlatInstance<Oracle>* instance_;
  ExactOptions options_;
  QueryBudget budget_;

  std::vector<std::uint32_t> counts_;  // pair id -> multiplicity in I
  Accumulator<Num> accumulator_;
  std::uint64_t visited_ = 0;
  Status status_;
};

}  // namespace internal

template <typename Oracle>
Result<typename Oracle::NumType> ExactSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const Oracle& oracle, const ExactOptions& options, ExactStats* stats,
    const QueryBudget& budget) {
  SKYPREF_RETURN_IF_ERROR(ValidateCandidates(data.size(), target, candidates));
  SKYPREF_ASSIGN_OR_RETURN(const QueryBudget resolved, budget.Resolve());
  // The flattened instance is the solve's one big allocation; through
  // TryAlloc its failure is ResourceExhausted, which degrades through
  // the resilient ladder like a blown budget instead of terminating.
  SKYPREF_ASSIGN_OR_RETURN(
      internal::FlatInstance<Oracle> instance,
      TryAlloc("alloc.exact.flat_instance", [&] {
        return internal::BuildFlatInstance(data, target, candidates, oracle);
      }));
  internal::FlatExactEngine<Oracle> engine(instance, options, resolved);
  return engine.Run(stats);
}

}  // namespace skypref

#endif  // SKYPREF_CORE_EXACT_H_

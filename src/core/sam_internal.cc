#include "src/core/sam_internal.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "src/core/dominance.h"
#include "src/util/check.h"
#include "src/util/hash.h"
#include "src/util/try_alloc.h"

namespace skypref {
namespace internal {

Result<std::uint64_t> ResolveSampling(const MonteCarloOptions& options,
                                      MonteCarloOptions::Engine engine,
                                      const QueryBudget& budget) {
  if (options.samples == 0 &&
      !(std::isfinite(options.epsilon) && std::isfinite(options.delta))) {
    return Status::InvalidArgument(
        "Monte Carlo needs finite epsilon and delta to derive a sample count");
  }
  const std::uint64_t samples =
      options.samples != 0
          ? options.samples
          : HoeffdingSampleSize(options.epsilon, options.delta);
  if (samples == 0) {
    return Status::InvalidArgument(
        "Monte Carlo needs samples > 0 (or valid epsilon/delta)");
  }
  using Engine = MonteCarloOptions::Engine;
  // A count saturated at UINT64_MAX never completes: the pooled engines
  // cannot even count its blocks, and kSerial stops only at a deadline.
  const bool bounded =
      budget.deadline.has_value() || budget.time_limit_seconds > 0.0;
  if (samples == std::numeric_limits<std::uint64_t>::max() &&
      (engine != Engine::kSerial || !bounded)) {
    return Status::InvalidArgument(
        "sample count saturated (epsilon too small); only the kSerial "
        "engine with a deadline can run it");
  }
  if (engine == Engine::kBlock && options.block_size == 0) {
    return Status::InvalidArgument("block engine needs block_size >= 1");
  }
  if (engine == Engine::kBitSliced &&
      (options.block_size == 0 || options.block_size % 64 != 0)) {
    return Status::InvalidArgument(
        "bit-sliced engine needs block_size a positive multiple of 64");
  }
  return samples;
}

namespace {

/// Interns value-pair keys as dense ids 0, 1, 2, ... in first-seen
/// order. Open addressing with linear probing over 4-byte id slots, each
/// key stored once in id order: about 32 bytes per key at the highest
/// load, where a node-based map spends about 60 — and the interning
/// table is the larger part of a plan build's heap peak.
class PairInterner {
 public:
  /// The id of \p key, assigning the next one (and setting \p inserted)
  /// when the key is new.
  std::uint32_t Intern(const ValuePairKey& key, bool& inserted) {
    if (2 * (keys_.size() + 1) > slots_.size()) Rehash(2 * slots_.size());
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = PairHash{}(key) & mask;; s = (s + 1) & mask) {
      if (slots_[s] == kEmpty) {
        slots_[s] = static_cast<std::uint32_t>(keys_.size());
        keys_.push_back(key);
        inserted = true;
        return slots_[s];
      }
      if (keys_[slots_[s]] == key) {
        inserted = false;
        return slots_[s];
      }
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  void Rehash(std::size_t size) {
    slots_.assign(std::max<std::size_t>(size, 64), kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t id = 0; id < keys_.size(); ++id) {
      std::size_t s = PairHash{}(keys_[id]) & mask;
      while (slots_[s] != kEmpty) s = (s + 1) & mask;
      slots_[s] = id;
    }
  }

  std::vector<ValuePairKey> keys_;
  std::vector<std::uint32_t> slots_;
};

}  // namespace

Result<SamRequest> PrepareSamRequest(const Dataset& data, ObjectId target,
                                     std::span<const ObjectId> candidates,
                                     const PreferenceModel& model,
                                     const MonteCarloOptions& options,
                                     MonteCarloOptions::Engine engine,
                                     const QueryBudget& budget) {
  SKYPREF_RETURN_IF_ERROR(ValidateCandidates(data.size(), target, candidates));
  SamRequest request;
  SKYPREF_ASSIGN_OR_RETURN(request.samples,
                           ResolveSampling(options, engine, budget));
  SKYPREF_ASSIGN_OR_RETURN(request.budget, budget.Resolve());

  // Algorithm 2 line 1: sort the checking sequence by dominance
  // probability, once, shared by every world.
  request.ordered.assign(candidates.begin(), candidates.end());
  if (options.sort_by_dominance) {
    std::vector<std::pair<double, ObjectId>> keyed;
    keyed.reserve(request.ordered.size());
    for (ObjectId id : request.ordered) {
      keyed.emplace_back(DominanceProbability(data, id, target, model), id);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (std::size_t i = 0; i < keyed.size(); ++i) {
      request.ordered[i] = keyed[i].second;
    }
  }
  return request;
}

BatchPlan BuildBatchPlan(const Dataset& data, const PreferenceModel& model,
                         std::span<const TargetGroups> groups) {
  // Built serially before any block worker starts; the plan is then
  // read-only shared state across threads (const-shared, no mutex).
  // Serial: this interning IS the work being deduplicated across
  // targets — one global table of ternary variables shared by every
  // target turns targets x worlds x pairs draws into worlds x
  // distinct-pairs.
  const std::size_t n = data.size();
  const DimensionId d = static_cast<DimensionId>(data.dimensions());
  BatchPlan plan;
  PairInterner pair_index;
  // Pass 1 decides each target's possible dominators and their order,
  // interning variables as it meets them; pass 2 writes their
  // requirements. Splitting the two lets `reqs` be allocated once at its
  // exact size — its doubling growth would otherwise set the build's
  // heap peak — and pass 2 needs no model lookups, because pass 1 leaves
  // each slot's candidate id where pass 2 writes the slot's end offset.
  struct Slot {
    double dominance;
    ObjectId candidate;
  };
  std::vector<Slot> slots;
  std::size_t total_reqs = 0;
  plan.target_begin.reserve(n + 1);
  plan.target_begin.push_back(0);
  plan.req_offsets.push_back(0);
  for (ObjectId t = 0; t < n; ++t) {
    slots.clear();
    auto add = [&](ObjectId c) {
      double dominance = 1.0;
      std::size_t reqs = 0;
      for (DimensionId j = 0; j < d; ++j) {
        ValueId vc = data.value(c, j);
        ValueId vt = data.value(t, j);
        if (vc == vt) continue;
        ValueId lo = std::min(vc, vt);
        ValueId hi = std::max(vc, vt);
        PrefPair pair = model.GetPair(j, lo, hi);
        double toward_candidate = vc == lo ? pair.less : pair.greater;
        // Exact-zero test: Pr = 0 means the orientation can never be
        // drawn, so the candidate is pruned from the sampling plan.
        if (toward_candidate == 0.0) {  // skypref-lint: allow(float-eq)
          ++plan.pruned_candidates;
          return;
        }
        dominance *= toward_candidate;
        bool inserted = false;
        pair_index.Intern(MakeValuePairKey(j, lo, hi), inserted);
        if (inserted) {
          SKYPREF_DCHECK_PROB(pair.less);
          SKYPREF_DCHECK_PROB(pair.less + pair.greater);
          plan.cut_lo.push_back(BernoulliThreshold(pair.less));
          plan.cut_hi.push_back(BernoulliThreshold(
              std::min(pair.less + pair.greater, 1.0)));
        }
        ++reqs;
      }
      // A candidate with no differing dimension would duplicate the
      // target; Dataset::Validate guarantees that cannot happen.
      if (reqs > 0) {
        slots.push_back(Slot{dominance, c});
        total_reqs += reqs;
      }
    };
    if (groups.empty()) {
      for (ObjectId c = 0; c < n; ++c) {
        if (c != t) add(c);
      }
    } else {
      for (const auto& group : groups[t]) {
        for (ObjectId c : group) add(c);
      }
    }
    // Algorithm 2 line 1 per target: most probable dominators first.
    std::stable_sort(slots.begin(), slots.end(),
                     [](const Slot& a, const Slot& b) {
                       return a.dominance > b.dominance;
                     });
    for (const Slot& slot : slots) {
      plan.req_offsets.push_back(static_cast<std::uint32_t>(slot.candidate));
    }
    plan.target_begin.push_back(
        static_cast<std::uint32_t>(plan.req_offsets.size() - 1));
  }

  // Pass 2: every variable is interned already.
  plan.reqs.reserve(total_reqs);
  for (ObjectId t = 0; t < n; ++t) {
    for (std::uint32_t slot = plan.target_begin[t];
         slot < plan.target_begin[t + 1]; ++slot) {
      const ObjectId c = plan.req_offsets[slot + 1];
      for (DimensionId j = 0; j < d; ++j) {
        ValueId vc = data.value(c, j);
        ValueId vt = data.value(t, j);
        if (vc == vt) continue;
        ValueId lo = std::min(vc, vt);
        ValueId hi = std::max(vc, vt);
        bool inserted = false;
        const std::uint32_t id =
            pair_index.Intern(MakeValuePairKey(j, lo, hi), inserted);
        SKYPREF_DCHECK(!inserted);
        plan.reqs.push_back((id << 1) | (vc == hi ? 1u : 0u));
      }
      plan.req_offsets[slot + 1] = static_cast<std::uint32_t>(plan.reqs.size());
    }
  }
  return plan;
}

Result<BatchSamRun> PrepareBatchSam(const Dataset& data,
                                    const PreferenceModel& model,
                                    ThreadPool& pool,
                                    const SolverOptions& options) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
  SKYPREF_RETURN_IF_ERROR(model.Validate(data));
  BatchSamRun run;
  SKYPREF_ASSIGN_OR_RETURN(
      run.samples,
      ResolveSampling(options.monte_carlo,
                      MonteCarloOptions::Engine::kBitSliced, options.budget));
  SKYPREF_ASSIGN_OR_RETURN(run.budget, options.budget.Resolve());
  run.stats.requested_samples = run.samples;
  // Absorption is pure win for the sampler too — an absorbed candidate's
  // dominance event is contained in its absorber's, so dropping it
  // changes no world's verdict.
  SKYPREF_ASSIGN_OR_RETURN(run.plan, TryAlloc("alloc.sam.batch_plan", [&] {
                             BatchGroups phase_a = PartitionAllTargets(
                                 data, pool, options.preprocess,
                                 /*guard_alloc=*/false, run.stats);
                             return BuildBatchPlan(data, model, phase_a.groups);
                           }));
  run.stats.distinct_pairs = run.plan.pair_count();
  run.stats.pruned_candidates = run.plan.pruned_candidates;
  return run;
}

}  // namespace internal
}  // namespace skypref

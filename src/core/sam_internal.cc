#include "src/core/sam_internal.h"

#include <cstddef>
#include <unordered_map>
#include <utility>

#include "src/core/absorption.h"
#include "src/core/dominance.h"
#include "src/core/partition.h"
#include "src/util/check.h"
#include "src/util/hash.h"
#include "src/util/try_alloc.h"

namespace skypref {
namespace internal {

namespace {

/// The sample count, block-size rule, deadline and pre-cancel check that
/// the single-target and batch front ends share.
Status ResolveSampling(const MonteCarloOptions& options,
                       MonteCarloOptions::Engine engine,
                       std::uint64_t& samples, Deadline& deadline) {
  samples = options.samples != 0
                ? options.samples
                : HoeffdingSampleSize(options.epsilon, options.delta);
  if (samples == 0) {
    return Status::InvalidArgument(
        "Monte Carlo needs samples > 0 (or valid epsilon/delta)");
  }
  using Engine = MonteCarloOptions::Engine;
  if (engine == Engine::kBlock && options.block_size == 0) {
    return Status::InvalidArgument("block engine needs block_size >= 1");
  }
  if (engine == Engine::kBitSliced &&
      (options.block_size == 0 || options.block_size % 64 != 0)) {
    return Status::InvalidArgument(
        "bit-sliced engine needs block_size a positive multiple of 64");
  }
  deadline = options.deadline.has_value()
                 ? options.deadline
                 : Deadline::After(options.time_limit_seconds);
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    return CancelledStatus();
  }
  return Status::OK();
}

}  // namespace

Result<SamRequest> PrepareSamRequest(const Dataset& data, ObjectId target,
                                     std::span<const ObjectId> candidates,
                                     const PreferenceModel& model,
                                     const MonteCarloOptions& options,
                                     MonteCarloOptions::Engine engine) {
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  for (ObjectId id : candidates) {
    if (id >= data.size()) {
      return Status::OutOfRange("candidate object out of range");
    }
    if (id == target) {
      return Status::InvalidArgument(
          "candidate list must not contain the target object");
    }
  }
  SamRequest request;
  SKYPREF_RETURN_IF_ERROR(
      ResolveSampling(options, engine, request.samples, request.deadline));

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

FlatSamInstance BuildFlatSamInstance(const Dataset& data, ObjectId target,
                                     std::span<const ObjectId> candidates,
                                     const PreferenceModel& model) {
  // Built serially before any block worker starts; the instance is then
  // read-only shared state across threads (const-shared, no mutex).
  const DimensionId d = static_cast<DimensionId>(data.dimensions());
  FlatSamInstance inst;
  std::unordered_map<std::pair<DimensionId, ValueId>, std::uint32_t, PairHash>
      pair_index;
  inst.offsets.reserve(candidates.size() + 1);
  inst.offsets.push_back(0);
  for (ObjectId id : candidates) {
    for (DimensionId j = 0; j < d; ++j) {
      ValueId v = data.value(id, j);
      ValueId o = data.value(target, j);
      if (v == o) continue;
      auto [it, inserted] = pair_index.try_emplace(
          {j, v}, static_cast<std::uint32_t>(inst.thresholds.size()));
      if (inserted) {
        double less_eq = model.LessEq(j, v, o);
        // Every threshold the sampler will ever compare against encodes a
        // model probability; catch a broken model before it skews
        // thousands of worlds.
        SKYPREF_DCHECK_PROB(less_eq);
        inst.thresholds.push_back(BernoulliThreshold(less_eq));
      }
      inst.pair_ids.push_back(it->second);
    }
    inst.offsets.push_back(static_cast<std::uint32_t>(inst.pair_ids.size()));
  }
  return inst;
}

namespace {

struct TernaryPairKey {
  DimensionId dim;
  ValueId lo;
  ValueId hi;
  bool operator==(const TernaryPairKey& o) const {
    return dim == o.dim && lo == o.lo && hi == o.hi;
  }
};

struct TernaryPairKeyHash {
  std::size_t operator()(const TernaryPairKey& k) const {
    std::size_t h = HashCombine(std::size_t{0x5a3ba7c4}, k.dim);
    h = HashCombine(h, k.lo);
    return HashCombine(h, k.hi);
  }
};

/// Phases A+B of both batch samplers; fills the preprocessing fields of
/// \p stats.
BatchPlan BuildBatchPlan(const Dataset& data, const PreferenceModel& model,
                         ThreadPool& pool, const SolverOptions& options,
                         BatchSamStats& stats) {
  const std::size_t n = data.size();
  stats.targets = n;

  // Phase A: absorption + partition per target, sharing the global
  // posting lists, exactly as in the batch exact solver. Absorption is
  // pure win for the sampler too — an absorbed candidate's dominance
  // event is contained in its absorber's, so dropping it changes no
  // world's verdict.
  std::vector<std::vector<std::vector<ObjectId>>> groups(n);
  if (options.preprocess) {
    ValuePostings postings(data);
    constexpr std::size_t kChunk = 16;
    const std::size_t chunks = (n + kChunk - 1) / kChunk;
    pool.ParallelFor(chunks, [&](std::size_t c) {
      PartitionWorkspace workspace;
      const std::size_t begin = c * kChunk;
      const std::size_t end = std::min(n, begin + kChunk);
      for (ObjectId t = begin; t < end; ++t) {
        std::vector<ObjectId> candidates =
            AbsorbAllCandidatesIndexed(data, t, postings);
        groups[t] = PartitionCandidates(
            data, t, std::span<const ObjectId>(candidates), workspace);
      }
    });
  } else {
    for (ObjectId t = 0; t < n; ++t) {
      groups[t].push_back(AllObjectsExcept(n, t));
    }
  }
  for (ObjectId t = 0; t < n; ++t) {
    std::size_t after = 0;
    for (const auto& group : groups[t]) {
      after += group.size();
      stats.largest_group = std::max(stats.largest_group, group.size());
    }
    stats.groups += groups[t].size();
    stats.absorbed += (n - 1) - after;
  }

  // Phase B: one global table of ternary orientation variables, interned
  // by canonical (dim, lo, hi), shared by every target's plan — the
  // world-sharing that turns targets x worlds x pairs draws into
  // worlds x distinct-pairs. Serial: this interning IS the work being
  // deduplicated across targets.
  const DimensionId d = static_cast<DimensionId>(data.dimensions());
  BatchPlan plan;
  std::unordered_map<TernaryPairKey, std::uint32_t, TernaryPairKeyHash>
      pair_index;
  plan.target_begin.reserve(n + 1);
  plan.target_begin.push_back(0);
  plan.req_offsets.push_back(0);
  struct PlanCandidate {
    double dominance = 1.0;
    std::vector<std::uint32_t> reqs;
  };
  std::vector<PlanCandidate> per_target;
  for (ObjectId t = 0; t < n; ++t) {
    per_target.clear();
    for (const auto& group : groups[t]) {
      for (ObjectId c : group) {
        PlanCandidate cand;
        bool possible = true;
        for (DimensionId j = 0; j < d && possible; ++j) {
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
            possible = false;
            break;
          }
          cand.dominance *= toward_candidate;
          auto [it, inserted] = pair_index.try_emplace(
              TernaryPairKey{j, lo, hi},
              static_cast<std::uint32_t>(plan.cut_lo.size()));
          if (inserted) {
            SKYPREF_DCHECK_PROB(pair.less);
            SKYPREF_DCHECK_PROB(pair.less + pair.greater);
            plan.cut_lo.push_back(BernoulliThreshold(pair.less));
            plan.cut_hi.push_back(BernoulliThreshold(
                std::min(pair.less + pair.greater, 1.0)));
          }
          cand.reqs.push_back((it->second << 1) |
                              (vc == hi ? 1u : 0u));
        }
        if (!possible) {
          ++stats.pruned_candidates;
          continue;
        }
        // A candidate with no differing dimension would duplicate the
        // target; Dataset::Validate guarantees that cannot happen.
        if (!cand.reqs.empty()) per_target.push_back(std::move(cand));
      }
    }
    // Algorithm 2 line 1 per target: most probable dominators first.
    std::stable_sort(per_target.begin(), per_target.end(),
                     [](const PlanCandidate& a, const PlanCandidate& b) {
                       return a.dominance > b.dominance;
                     });
    for (PlanCandidate& cand : per_target) {
      plan.reqs.insert(plan.reqs.end(), cand.reqs.begin(), cand.reqs.end());
      plan.req_offsets.push_back(static_cast<std::uint32_t>(plan.reqs.size()));
    }
    plan.target_begin.push_back(
        static_cast<std::uint32_t>(plan.req_offsets.size() - 1));
  }
  stats.distinct_pairs = plan.pair_count();
  return plan;
}

}  // namespace

Result<BatchSamRun> PrepareBatchSam(const Dataset& data,
                                    const PreferenceModel& model,
                                    ThreadPool& pool,
                                    const SolverOptions& options,
                                    MonteCarloOptions::Engine engine) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
  SKYPREF_RETURN_IF_ERROR(model.Validate(data));
  BatchSamRun run;
  SKYPREF_RETURN_IF_ERROR(ResolveSampling(options.monte_carlo, engine,
                                          run.samples, run.deadline));
  run.stats.requested_samples = run.samples;
  SKYPREF_ASSIGN_OR_RETURN(run.plan, TryAlloc("alloc.sam.batch_plan", [&] {
                             return BuildBatchPlan(data, model, pool, options,
                                                   run.stats);
                           }));
  return run;
}

}  // namespace internal
}  // namespace skypref

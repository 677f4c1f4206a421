#include "src/core/sam_parallel.h"

#include <cstddef>

#include "src/core/dominance.h"
#include "src/core/sam_bitslice.h"
#include "src/core/sam_internal.h"
#include "src/util/random.h"
#include "src/util/try_alloc.h"

namespace skypref {

namespace {

using internal::BatchPlan;
using internal::FlatSamInstance;

// -------------------------------------------------------------------------
// Layer 1: the flat sampler (instance built by sam_internal.cc)
// -------------------------------------------------------------------------

/// Per-block mutable sampling state: pair outcomes memoized per world
/// with epoch stamps (no per-world clearing). Each block owns its state —
/// worlds never share outcomes across blocks.
struct SamWorldState {
  explicit SamWorldState(std::size_t pairs)
      : epoch_mark(pairs, 0), outcome(pairs, 0) {}

  std::vector<std::uint64_t> epoch_mark;
  std::vector<std::uint8_t> outcome;
  std::uint64_t epoch = 0;
};

/// Samples one world; returns true iff the target survives. Lazy mode
/// draws pair outcomes on demand and abandons the world at the first
/// dominator, exactly like the serial WorldSampler.
bool SampleFlatWorld(const FlatSamInstance& inst, SamWorldState& state,
                     Rng& rng, bool lazy, std::uint64_t* pair_draws) {
  ++state.epoch;
  if (!lazy) {
    for (std::uint32_t p = 0; p < inst.thresholds.size(); ++p) {
      state.outcome[p] =
          internal::ThresholdHit(rng.NextUint64(), inst.thresholds[p]) ? 1 : 0;
      state.epoch_mark[p] = state.epoch;
      ++*pair_draws;
    }
  }
  const std::size_t count = inst.candidate_count();
  for (std::size_t c = 0; c < count; ++c) {
    const std::uint32_t begin = inst.offsets[c];
    const std::uint32_t end = inst.offsets[c + 1];
    bool dominates = true;
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t p = inst.pair_ids[i];
      if (state.epoch_mark[p] != state.epoch) {
        state.epoch_mark[p] = state.epoch;
        state.outcome[p] =
            internal::ThresholdHit(rng.NextUint64(), inst.thresholds[p]) ? 1
                                                                         : 0;
        ++*pair_draws;
      }
      if (state.outcome[p] == 0) {
        dominates = false;
        break;
      }
    }
    // A candidate with no differing dimension would be a duplicate of the
    // target; Dataset::Validate rejects those, but be conservative.
    if (dominates && end > begin) return false;
  }
  return true;
}

}  // namespace

// -------------------------------------------------------------------------
// Single-target block engine
// -------------------------------------------------------------------------

Result<MonteCarloResult> BlockMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, ThreadPool& pool,
    const MonteCarloOptions& options) {
  SKYPREF_ASSIGN_OR_RETURN(
      internal::SamRequest request,
      internal::PrepareSamRequest(data, target, candidates, model, options,
                                  MonteCarloOptions::Engine::kBlock));
  SKYPREF_ASSIGN_OR_RETURN(FlatSamInstance inst,
                           TryAlloc("alloc.sam.instance", [&] {
                             return internal::BuildFlatSamInstance(
                                 data, target, request.ordered, model);
                           }));
  const bool lazy = options.lazy;
  return internal::RunSamBlocks(pool, request, options, /*chunk=*/1, [&] {
    return [&inst, lazy, state = SamWorldState(inst.pair_count())](
               Rng& rng, std::uint64_t step,
               std::uint64_t* draws) mutable -> std::uint64_t {
      (void)step;  // chunk = 1: exactly one world per call
      return SampleFlatWorld(inst, state, rng, lazy, draws) ? 1 : 0;
    };
  });
}

Result<MonteCarloResult> BlockMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const MonteCarloOptions& options) {
  return BlockMonteCarloSkylineProbability(
      data, target, AllObjectsExcept(data.size(), target), model, pool,
      options);
}

Result<MonteCarloResult> PooledMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, ThreadPool& pool,
    const MonteCarloOptions& options) {
  if (options.engine == MonteCarloOptions::Engine::kBitSliced) {
    return BitSlicedMonteCarloSkylineProbability(data, target, candidates,
                                                 model, pool, options);
  }
  return BlockMonteCarloSkylineProbability(data, target, candidates, model,
                                           pool, options);
}

// -------------------------------------------------------------------------
// Layer 3: batch Sam (plan built by sam_internal.cc)
// -------------------------------------------------------------------------

namespace {

/// Per-block mutable state of the scalar batch sampler.
struct BatchWorldState {
  explicit BatchWorldState(std::size_t pairs)
      : epoch_mark(pairs, 0), outcome(pairs, internal::kIncomparable) {}

  std::vector<std::uint64_t> epoch_mark;
  std::vector<std::uint8_t> outcome;
  std::uint64_t epoch = 0;
};

/// True iff \p target survives the current world. Orientations are drawn
/// lazily and memoized per world, so every target of the world sees the
/// same sampled preference — the consistency that makes shared worlds
/// valid (all_worlds.h).
bool BatchSurvives(const BatchPlan& plan, BatchWorldState& state,
                   ObjectId target, Rng& rng, std::uint64_t* pair_draws) {
  const std::uint32_t begin = plan.target_begin[target];
  const std::uint32_t end = plan.target_begin[target + 1];
  for (std::uint32_t slot = begin; slot < end; ++slot) {
    bool dominates = true;
    const std::uint32_t rb = plan.req_offsets[slot];
    const std::uint32_t re = plan.req_offsets[slot + 1];
    for (std::uint32_t r = rb; r < re; ++r) {
      const std::uint32_t packed = plan.reqs[r];
      const std::uint32_t p = packed >> 1;
      const std::uint8_t want = static_cast<std::uint8_t>(packed & 1);
      if (state.epoch_mark[p] != state.epoch) {
        state.epoch_mark[p] = state.epoch;
        const std::uint64_t u = rng.NextUint64();
        state.outcome[p] = internal::ThresholdHit(u, plan.cut_lo[p])
                               ? internal::kLoPreferred
                               : (internal::ThresholdHit(u, plan.cut_hi[p])
                                      ? internal::kHiPreferred
                                      : internal::kIncomparable);
        ++*pair_draws;
      }
      if (state.outcome[p] != want) {
        dominates = false;
        break;
      }
    }
    if (dominates) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<double>> BatchMonteCarloSkylineProbabilities(
    const Dataset& data, const PreferenceModel& model, ThreadPool& pool,
    const SolverOptions& options, BatchSamStats* stats) {
  // Both engines share the plan-building front end; the bit-sliced one
  // swaps the world loop below for mask words.
  const bool sliced =
      options.monte_carlo.engine == MonteCarloOptions::Engine::kBitSliced;
  SKYPREF_ASSIGN_OR_RETURN(
      internal::BatchSamRun run,
      internal::PrepareBatchSam(data, model, pool, options,
                                sliced ? MonteCarloOptions::Engine::kBitSliced
                                       : MonteCarloOptions::Engine::kBlock));
  if (sliced) {
    return internal::RunBitSlicedBatch(pool, run, options.monte_carlo, stats);
  }

  // Phase C: the shared world stream, fanned out in deterministic blocks
  // (same runner, same "sampler.block" failpoint, same truncation
  // contract as the single-target engine). Each block owns its memo
  // state and its per-target counters; the reduce sums the counted block
  // prefix in index order.
  const BatchPlan& plan = run.plan;
  const std::size_t n = data.size();
  return internal::RunBatchSamBlocks(
      pool, run, options.monte_carlo, /*chunk=*/1, stats,
      [&](std::uint64_t* counts) {
        return [&plan, counts, n, state = BatchWorldState(plan.pair_count())](
                   Rng& rng, std::uint64_t step, std::uint64_t* draws) mutable {
          (void)step;  // chunk = 1: exactly one world per call
          ++state.epoch;
          for (ObjectId t = 0; t < n; ++t) {
            if (BatchSurvives(plan, state, t, rng, draws)) ++counts[t];
          }
        };
      });
}

}  // namespace skypref

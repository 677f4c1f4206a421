#include "src/core/sam_bitslice.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/dominance.h"
#include "src/core/sam_internal.h"
#include "src/util/random.h"
#include "src/util/try_alloc.h"

namespace skypref {

namespace {

using internal::FlatSamInstance;
using internal::ValidLanes;

/// Drops candidates that can dominate in NO world — some required pair
/// has probability exactly zero — and compacts the pair table to the
/// survivors. The scalar engines skip this (their lazy first-draw
/// abandon makes impossible candidates nearly free, and their streams
/// are pinned); here every candidate alive in the chunk loop costs mask
/// words until all 64 lanes are covered, so impossible ones would
/// dominate the per-chunk cost on workloads with many incomparable
/// pairs (e.g. block-local models). Removing them changes no world's
/// verdict, only the stream — which this engine owns.
FlatSamInstance PruneImpossible(const FlatSamInstance& inst) {
  constexpr std::uint32_t kUnmapped = ~std::uint32_t{0};
  FlatSamInstance out;
  std::vector<std::uint32_t> remap(inst.pair_count(), kUnmapped);
  out.offsets.push_back(0);
  const std::size_t count = inst.candidate_count();
  for (std::size_t c = 0; c < count; ++c) {
    const std::uint32_t begin = inst.offsets[c];
    const std::uint32_t end = inst.offsets[c + 1];
    bool possible = true;
    for (std::uint32_t i = begin; i < end; ++i) {
      if (inst.pair_prob[inst.pair_ids[i]] == 0) {
        possible = false;
        break;
      }
    }
    if (!possible) continue;
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t p = inst.pair_ids[i];
      if (remap[p] == kUnmapped) {
        remap[p] = static_cast<std::uint32_t>(out.pair_prob.size());
        out.pair_prob.push_back(inst.pair_prob[p]);
      }
      out.pair_ids.push_back(remap[p]);
    }
    out.offsets.push_back(static_cast<std::uint32_t>(out.pair_ids.size()));
  }
  return out;
}

// -------------------------------------------------------------------------
// Single-target chunk state
// -------------------------------------------------------------------------

/// Chunks whose pair masks are drawn together: NextBernoulliWords8
/// produces one pair's masks for eight consecutive chunks per call, so
/// the memo granularity is the 512-world SUPERCHUNK, not the chunk.
constexpr std::uint64_t kChunksPerGroup = 8;

/// Per-block mask memo of the single-target engine: per distinct pair,
/// eight Bernoulli mask words (one per chunk of the current superchunk)
/// drawn in a single wide call, epoch-stamped so a new superchunk
/// invalidates every pair without clearing. The eight-lane generator is
/// seeded from the block's own Rng on first use, preserving the
/// block-seeding contract (the stream is a function of the block index
/// alone).
struct SliceState {
  explicit SliceState(std::size_t pairs)
      : epoch_mark(pairs, 0), mask(pairs * kChunksPerGroup) {}

  std::vector<std::uint64_t> epoch_mark;
  std::vector<std::uint64_t> mask;  // mask[p * kChunksPerGroup + lane]
  std::uint64_t epoch = 0;  // superchunk epoch
  std::uint64_t chunk = 0;  // chunk index within the block
  std::optional<OctoRng> oct;
};

/// Evaluates one 64-world chunk; returns the word of surviving lanes
/// (restricted to \p valid). Lazy mode generates a pair's masks only
/// when some candidate still dominating somewhere first touches the
/// pair during the superchunk, and abandons a candidate as soon as its
/// accumulated AND dies — the word-level analog of the scalar engine's
/// first-dominator abandon. A trailing superchunk shorter than eight
/// chunks simply leaves its unused lanes undrained (pair_draws counts
/// GENERATED lane draws, 512 per wide call).
std::uint64_t SampleChunk(const FlatSamInstance& inst, SliceState& state,
                          Rng& rng, bool lazy, std::uint64_t valid,
                          std::uint64_t* pair_draws) {
  const std::uint64_t lane = state.chunk % kChunksPerGroup;
  ++state.chunk;
  if (lane == 0) {
    ++state.epoch;  // new superchunk: every pair's masks are stale
    if (!state.oct.has_value()) state.oct.emplace(rng);
  }
  OctoRng& oct = *state.oct;
  if (!lazy && lane == 0) {
    for (std::size_t p = 0; p < inst.pair_count(); ++p) {
      NextBernoulliWords8(oct, inst.pair_prob[p],
                          &state.mask[p * kChunksPerGroup]);
      state.epoch_mark[p] = state.epoch;
      *pair_draws += 64 * kChunksPerGroup;
    }
  }
  std::uint64_t dominated = 0;
  const std::size_t count = inst.candidate_count();
  for (std::size_t c = 0; c < count; ++c) {
    const std::uint32_t begin = inst.offsets[c];
    const std::uint32_t end = inst.offsets[c + 1];
    if (begin == end) continue;  // would duplicate the target; be safe
    std::uint64_t acc = ~0ULL;
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t p = inst.pair_ids[i];
      if (state.epoch_mark[p] != state.epoch) {
        state.epoch_mark[p] = state.epoch;
        NextBernoulliWords8(oct, inst.pair_prob[p],
                            &state.mask[p * kChunksPerGroup]);
        *pair_draws += 64 * kChunksPerGroup;
      }
      acc &= state.mask[p * kChunksPerGroup + lane];
      if (acc == 0) break;  // candidate dominates in no world of the chunk
    }
    dominated |= acc;
    if ((dominated & valid) == valid) break;  // every lane already dominated
  }
  return ~dominated & valid;
}

}  // namespace

// -------------------------------------------------------------------------
// Single-target engine
// -------------------------------------------------------------------------

Result<MonteCarloResult> BitSlicedMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, ThreadPool& pool,
    const MonteCarloOptions& options, const QueryBudget& budget) {
  SKYPREF_ASSIGN_OR_RETURN(
      internal::SamRequest request,
      internal::PrepareSamRequest(data, target, candidates, model, options,
                                  MonteCarloOptions::Engine::kBitSliced,
                                  budget));
  SKYPREF_ASSIGN_OR_RETURN(
      FlatSamInstance inst, TryAlloc("alloc.sam.instance", [&] {
        return PruneImpossible(internal::BuildFlatInstance(
            data, target, std::span<const ObjectId>(request.ordered),
            internal::CutOracle(model)));
      }));
  // The per-block mask-memo arenas are allocated inside worker dispatch,
  // where no Status can surface; probe the allocation once up front so
  // an injected (or organic) arena failure lands here deterministically.
  {
    auto probe = TryAlloc("alloc.sam.slice_arena",
                          [&] { return SliceState(inst.pair_count()); });
    SKYPREF_RETURN_IF_ERROR(probe.status());
  }
  const bool lazy = options.lazy;
  return internal::RunSamBlocks(pool, request, options, /*chunk=*/64, [&] {
    return [&inst, lazy, state = SliceState(inst.pair_count())](
               Rng& rng, std::uint64_t step,
               std::uint64_t* draws) mutable -> std::uint64_t {
      return static_cast<std::uint64_t>(std::popcount(
          SampleChunk(inst, state, rng, lazy, ValidLanes(step), draws)));
    };
  });
}

Result<MonteCarloResult> BitSlicedMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const MonteCarloOptions& options,
    const QueryBudget& budget) {
  return BitSlicedMonteCarloSkylineProbability(
      data, target, AllObjectsExcept(data.size(), target), model, pool,
      options, budget);
}

// -------------------------------------------------------------------------
// Batch Sam (sam_parallel.h layer 3; plan built by sam_internal.cc)
// -------------------------------------------------------------------------

Result<std::vector<double>> BatchMonteCarloSkylineProbabilities(
    const Dataset& data, const PreferenceModel& model, ThreadPool& pool,
    const SolverOptions& options, BatchSamStats* stats) {
  SKYPREF_ASSIGN_OR_RETURN(
      internal::BatchSamRun run,
      internal::PrepareBatchSam(data, model, pool, options));
  const internal::BatchPlan& plan = run.plan;
  const MonteCarloOptions& mc = options.monte_carlo;
  // The per-block mask-memo arenas are allocated inside worker dispatch,
  // where no Status can surface; probe the allocation once up front so
  // an injected (or organic) arena failure lands here deterministically.
  {
    auto probe = TryAlloc("alloc.sam.slice_arena", [&] {
      return internal::BatchSliceState(plan.pair_count());
    });
    SKYPREF_RETURN_IF_ERROR(probe.status());
  }

  // Phase C: the shared world stream, 64 worlds per chunk, fanned out in
  // deterministic blocks (same runner, same "sampler.block" failpoint,
  // same truncation contract as the single-target engines). Each block
  // owns its mask memo and its per-target counters; the reduce sums the
  // counted block prefix in index order.
  const std::size_t n = run.stats.targets;
  std::vector<std::vector<std::uint64_t>> survived(
      internal::BlockCount(run.samples, mc.block_size),
      std::vector<std::uint64_t>(n, 0));
  std::vector<internal::BlockOutcome> outcomes;
  SKYPREF_RETURN_IF_ERROR(internal::RunDeterministicBlocks(
      pool, run.samples, mc.block_size, /*chunk=*/64, mc.seed, run.budget,
      outcomes, [&](std::uint64_t b) {
        return [&plan, counts = survived[b].data(), n,
                state = internal::BatchSliceState(plan.pair_count())](
                   Rng& rng, std::uint64_t step, std::uint64_t* draws) mutable {
          ++state.epoch;
          const std::uint64_t valid = internal::ValidLanes(step);
          for (ObjectId t = 0; t < n; ++t) {
            counts[t] += static_cast<std::uint64_t>(
                std::popcount(internal::BatchChunkSurvivors(plan, state, t, rng,
                                                            valid, draws)));
          }
        };
      }));

  const internal::BlockPrefix prefix = internal::CountedPrefix(outcomes);
  run.stats.truncated = prefix.truncated;
  for (std::uint64_t b = 0; b < prefix.end; ++b) {
    run.stats.samples += outcomes[b].achieved;
    run.stats.pair_draws += outcomes[b].draws;
  }
  std::vector<double> estimates(n, 0.0);
  for (ObjectId t = 0; t < n; ++t) {
    std::uint64_t hits = 0;
    for (std::uint64_t b = 0; b < prefix.end; ++b) hits += survived[b][t];
    estimates[t] =
        static_cast<double>(hits) / static_cast<double>(run.stats.samples);
    SKYPREF_DCHECK_PROB(estimates[t]);
  }
  if (stats != nullptr) *stats = run.stats;
  return estimates;
}

}  // namespace skypref

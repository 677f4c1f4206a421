#ifndef SKYPREF_CORE_SAM_INTERNAL_H_
#define SKYPREF_CORE_SAM_INTERNAL_H_

/// \file
/// Shared plumbing of the Monte-Carlo engines (kSerial in monte_carlo.cc,
/// kBlock in sam_parallel.cc, kBitSliced in sam_bitslice.cc, and the
/// shared-world estimators of all_worlds.cc): the one request front end
/// every engine starts from, the scalar single-target world walk over
/// internal::BuildFlatInstance's instance, the interned ternary batch
/// plan with its 64-world mask walk, and the block-deterministic runner
/// and block-prefix reduction that give the pooled engines the same
/// seeding/truncation contract.
///
/// Everything here is an implementation detail exposed only so the
/// engine translation units (and their tests) can share one copy of the
/// request handling and the numeric contract instead of drifting apart.
/// The determinism rules are documented on the public headers
/// (sam_parallel.h, sam_bitslice.h).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/exact.h"
#include "src/core/monte_carlo.h"
#include "src/core/sam_parallel.h"
#include "src/core/solver.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/cancel.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/random.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace skypref {
namespace internal {

/// Poll cadence of every engine's world loop: every 64 worlds or every
/// this many pair draws, whichever comes first.
inline constexpr std::uint64_t kPairDrawPollStride = 8192;

// -------------------------------------------------------------------------
// Request handling
// -------------------------------------------------------------------------

/// A validated single-target Sam request.
struct SamRequest {
  std::uint64_t samples = 0;       // options.samples, or the Hoeffding count
  std::vector<ObjectId> ordered;   // checking sequence (Algorithm 2 line 1)
  QueryBudget budget;              // resolved at the engine's entry
};

/// The option rule every Sam engine applies, under \p engine's name: the
/// sample count and the engine's block-size rule (InvalidArgument: a
/// derived count needs finite epsilon and delta; kBlock needs
/// block_size >= 1, kBitSliced a positive multiple of 64, and both a
/// finite count — a count saturated at UINT64_MAX only the kSerial loop
/// can run, and only when \p budget has a deadline or time limit to stop
/// it). Returns the sample count. Shared by both front ends below, by
/// Sam+'s facade, which checks a query once even when no group needs
/// sampling, and by the resilient ladder, which checks its sampled rung
/// at entry.
Result<std::uint64_t> ResolveSampling(const MonteCarloOptions& options,
                                      MonteCarloOptions::Engine engine,
                                      const QueryBudget& budget);

/// The front end of the three single-target engines, each naming itself
/// as \p engine: ValidateCandidates (dominance.h), ResolveSampling, the
/// budget's Resolve (Cancelled), then the dominance-sorted checking
/// sequence.
Result<SamRequest> PrepareSamRequest(const Dataset& data, ObjectId target,
                                     std::span<const ObjectId> candidates,
                                     const PreferenceModel& model,
                                     const MonteCarloOptions& options,
                                     MonteCarloOptions::Engine engine,
                                     const QueryBudget& budget);

// -------------------------------------------------------------------------
// The single-target world walk
// -------------------------------------------------------------------------

/// Oracle whose "probability" is the 64-bit Bernoulli cut of
/// Pr(v <= O.j): BuildFlatInstance over it yields the pooled engines'
/// integer-threshold instance, whose pair_prob[p] is the cut of pair p.
class CutOracle {
 public:
  using NumType = std::uint64_t;

  explicit CutOracle(const PreferenceModel& model) : model_(&model) {}

  std::uint64_t LessEq(DimensionId dim, ValueId a, ValueId b) const {
    const double less_eq = model_->LessEq(dim, a, b);
    // Every cut the sampler will ever compare against encodes a model
    // probability; catch a broken model before it skews thousands of
    // worlds.
    SKYPREF_DCHECK_PROB(less_eq);
    return BernoulliThreshold(less_eq);
  }

 private:
  const PreferenceModel* model_;
};

/// The kBlock/kBitSliced instance: candidates in checking-sequence order.
using FlatSamInstance = FlatInstance<CutOracle>;

/// One preference draw of the scalar walk. kSerial draws
/// Rng::NextBernoulli on the double Pr(v <= O.j) (no draw at p = 0 or 1);
/// kBlock compares one 64-bit draw with the integer cut.
inline bool DrawPair(Rng& rng, double p) { return rng.NextBernoulli(p); }
inline bool DrawPair(Rng& rng, std::uint64_t cut) {
  return ThresholdHit(rng.NextUint64(), cut);
}

/// Pair outcomes memoized per world with epoch stamps (no per-world
/// clearing). Each sampler (kSerial's one stream, each kBlock block)
/// owns one; worlds never share outcomes across memos.
struct WorldMemo {
  explicit WorldMemo(std::size_t pairs)
      : epoch_mark(pairs, 0), outcome(pairs, 0) {}

  std::vector<std::uint64_t> epoch_mark;
  std::vector<std::uint8_t> outcome;
  std::uint64_t epoch = 0;
};

/// Samples one world of \p inst (Algorithm 2's loop body); returns true
/// iff the target survives. Lazy mode draws a pair's outcome when a
/// candidate first needs it and abandons the world at the first
/// dominator; eager mode draws every pair up front, in pair-id order.
template <typename Oracle>
bool SampleWorld(const FlatInstance<Oracle>& inst, WorldMemo& memo, Rng& rng,
                 bool lazy, std::uint64_t* pair_draws) {
  ++memo.epoch;
  auto draw = [&](std::uint32_t p) {
    memo.epoch_mark[p] = memo.epoch;
    memo.outcome[p] = DrawPair(rng, inst.pair_prob[p]) ? 1 : 0;
    ++*pair_draws;
  };
  if (!lazy) {
    for (std::uint32_t p = 0; p < inst.pair_count(); ++p) draw(p);
  }
  const std::size_t count = inst.candidate_count();
  for (std::size_t c = 0; c < count; ++c) {
    const std::span<const std::uint32_t> pairs = inst.pairs_of(c);
    bool dominates = true;
    for (std::uint32_t p : pairs) {
      if (memo.epoch_mark[p] != memo.epoch) draw(p);
      if (memo.outcome[p] == 0) {
        dominates = false;
        break;
      }
    }
    // A candidate with no differing dimension would be a duplicate of the
    // target; Dataset::Validate rejects those, but be conservative.
    if (dominates && !pairs.empty()) return false;
  }
  return true;
}

// -------------------------------------------------------------------------
// The interned ternary batch plan
// -------------------------------------------------------------------------

/// The whole batch flattened: a global table of ternary orientation
/// variables plus a two-level CSR — per target a slice of candidate
/// slots, per slot a slice of packed requirements (pair_index << 1 |
/// want_hi). Each variable is two integer cuts: a draw below cut_lo
/// means lo preferred, else below cut_hi means hi preferred, else
/// incomparable. Candidates are in descending dominance-probability
/// order per target.
struct BatchPlan {
  std::vector<std::uint64_t> cut_lo;  // cut of Pr(lo < hi)
  std::vector<std::uint64_t> cut_hi;  // cut of Pr(lo < hi) + Pr(hi < lo)
  std::vector<std::uint32_t> reqs;
  std::vector<std::uint32_t> req_offsets;   // per candidate slot, slots+1
  std::vector<std::uint32_t> target_begin;  // per target, n+1, slot indices
  /// Possible dominators dropped: some required orientation has
  /// probability exactly zero.
  std::size_t pruned_candidates = 0;

  std::size_t pair_count() const { return cut_lo.size(); }
};

/// Phase B of batch Sam: interns the ternary variables of every target's
/// candidates by their (dim, lo, hi) value-pair key, in target, candidate,
/// dimension order, and lays out the plan. \p groups holds each target's
/// candidate groups (Phase A, PartitionAllTargets); when it is empty
/// every other object is a candidate, visited in ascending order without
/// materializing the n lists — the plan SharedWorldSampler views, equal
/// to the one built from unpreprocessed groups.
BatchPlan BuildBatchPlan(const Dataset& data, const PreferenceModel& model,
                         std::span<const TargetGroups> groups);

/// Lanes [0, step) of a possibly-partial trailing 64-world chunk.
inline std::uint64_t ValidLanes(std::uint64_t step) {
  return step >= 64 ? ~0ULL : ((1ULL << step) - 1);
}

/// Mask memo of the 64-world walk: per distinct ternary pair, TWO
/// mutually exclusive masks per chunk (lo-beats-hi, hi-beats-lo) drawn
/// jointly by NextTernaryWords and shared by every target. Bumping
/// `epoch` starts a new chunk: every pair's masks go stale without
/// clearing.
struct BatchSliceState {
  explicit BatchSliceState(std::size_t pairs)
      : epoch_mark(pairs, 0), lo_mask(pairs), hi_mask(pairs) {}

  std::vector<std::uint64_t> epoch_mark;
  std::vector<std::uint64_t> lo_mask;
  std::vector<std::uint64_t> hi_mask;
  std::uint64_t epoch = 0;
};

/// Worlds of the current chunk in which \p target survives, restricted
/// to \p valid: bit k is world k of the chunk. Orientation masks are
/// drawn lazily on first touch and memoized for the rest of the chunk,
/// so all targets see the same 64 sampled worlds. A candidate is
/// abandoned once its accumulated AND dies, and the target once every
/// valid lane is dominated — so \p valid decides which masks get drawn.
inline std::uint64_t BatchChunkSurvivors(const BatchPlan& plan,
                                         BatchSliceState& state,
                                         ObjectId target, Rng& rng,
                                         std::uint64_t valid,
                                         std::uint64_t* pair_draws) {
  std::uint64_t dominated = 0;
  const std::uint32_t begin = plan.target_begin[target];
  const std::uint32_t end = plan.target_begin[target + 1];
  for (std::uint32_t slot = begin; slot < end; ++slot) {
    std::uint64_t acc = ~0ULL;
    const std::uint32_t rb = plan.req_offsets[slot];
    const std::uint32_t re = plan.req_offsets[slot + 1];
    for (std::uint32_t r = rb; r < re; ++r) {
      const std::uint32_t packed = plan.reqs[r];
      const std::uint32_t p = packed >> 1;
      if (state.epoch_mark[p] != state.epoch) {
        state.epoch_mark[p] = state.epoch;
        NextTernaryWords(rng, plan.cut_lo[p], plan.cut_hi[p],
                         &state.lo_mask[p], &state.hi_mask[p]);
        *pair_draws += 64;
      }
      acc &= (packed & 1) != 0 ? state.hi_mask[p] : state.lo_mask[p];
      if (acc == 0) break;
    }
    dominated |= acc;
    if ((dominated & valid) == valid) break;
  }
  return ~dominated & valid;
}

/// A validated and planned batch Sam query, ready for its world loop.
struct BatchSamRun {
  std::uint64_t samples = 0;
  QueryBudget budget;  // options.budget, resolved before the plan
  BatchPlan plan;
  BatchSamStats stats;  // preprocessing fields and requested_samples
};

/// The front end of batch Sam: data and model validation,
/// ResolveSampling under kBitSliced's rules, options.budget's Resolve,
/// then the plan — Phase A over \p pool (PartitionAllTargets, honoring
/// options.preprocess) and BuildBatchPlan.
Result<BatchSamRun> PrepareBatchSam(const Dataset& data,
                                    const PreferenceModel& model,
                                    ThreadPool& pool,
                                    const SolverOptions& options);

// -------------------------------------------------------------------------
// The block-deterministic runner
// -------------------------------------------------------------------------

/// What one block reported. `achieved`/`draws` of an incomplete block
/// are nonzero only for block 0 (which keeps its partial prefix); every
/// other stopped block discards its partial work so that the reduced
/// estimate is a pure function of the counted block prefix.
struct BlockOutcome {
  std::uint64_t achieved = 0;
  std::uint64_t draws = 0;
  bool complete = false;
};

/// The counted block prefix [0, end) and whether truncation happened.
struct BlockPrefix {
  std::uint64_t end = 0;
  bool truncated = false;
};

/// Applies the truncation contract: T = first incomplete block; blocks
/// past T never count, even when they finished. T == 0 still counts
/// block 0's kept partial prefix (a truncated run always carries at
/// least one world).
inline BlockPrefix CountedPrefix(const std::vector<BlockOutcome>& outcomes) {
  std::uint64_t t = outcomes.size();
  for (std::uint64_t b = 0; b < outcomes.size(); ++b) {
    if (!outcomes[b].complete) {
      t = b;
      break;
    }
  }
  if (t == outcomes.size()) return {t, false};
  return {std::max<std::uint64_t>(t, 1), true};
}

/// Blocks of `block_size` worlds covering `samples`, rounded up without
/// overflowing near UINT64_MAX.
inline std::uint64_t BlockCount(std::uint64_t samples,
                                std::uint64_t block_size) {
  return samples / block_size + (samples % block_size != 0 ? 1 : 0);
}

/// Fans `samples` worlds out over `pool` in fixed blocks of `block_size`.
/// `make_block(b)` builds block b's world closure (owning any per-block
/// state); the closure is then called with (rng, step, &draws) — asked
/// for `step` consecutive worlds at a time, at most `chunk` per call —
/// against block b's private SplitSeed(seed, b) Rng. kBlock passes
/// chunk = 1 (one world per call, polls at the serial cadence after
/// every world); the bit-sliced walks, single-target and batch, pass
/// chunk = 64 (one mask word per call, polls after every word).
/// Deterministic per (seed, block_size, chunk) at every thread count; see
/// sam_parallel.h for the truncation contract. \p budget is the query's
/// resolved budget; returns Cancelled when any block observes its
/// tripped token.
template <typename MakeBlockFn>
Status RunDeterministicBlocks(ThreadPool& pool, std::uint64_t samples,
                              std::uint64_t block_size, std::uint64_t chunk,
                              std::uint64_t seed, const QueryBudget& budget,
                              std::vector<BlockOutcome>& outcomes,
                              MakeBlockFn&& make_block) {
  const std::uint64_t num_blocks = BlockCount(samples, block_size);
  outcomes.assign(num_blocks, BlockOutcome{});

  // The "sampler.block" failpoint is consumed SERIALLY over the block
  // indices before dispatch, so "fires on hit k" poisons block k at every
  // thread count (the deterministic-checkpoint placement rule of
  // failpoint.h). Block 0 is exempt: the reduced estimate always keeps at
  // least block 0's prefix.
  std::uint64_t poisoned = num_blocks;
  for (std::uint64_t b = 1; b < num_blocks; ++b) {
    if (SKYPREF_FAILPOINT("sampler.block")) {
      poisoned = b;
      break;
    }
  }

  // First block known to be stopped or poisoned. Later blocks use it to
  // skip work the prefix rule would discard anyway; skipping never
  // changes the counted prefix, because a skipped block is strictly
  // after the first stopped one.
  std::atomic<std::uint64_t> first_stop(poisoned);
  std::atomic<bool> cancelled(false);

  pool.ParallelFor(static_cast<std::size_t>(num_blocks), [&](std::size_t bi) {
    const std::uint64_t b = static_cast<std::uint64_t>(bi);
    if (b > 0 && b >= first_stop.load(std::memory_order_relaxed)) return;
    const std::uint64_t begin = b * block_size;
    const std::uint64_t want = std::min(block_size, samples - begin);
    Rng rng(SplitSeed(seed, b));
    auto world = make_block(b);
    BlockOutcome& out = outcomes[b];
    std::uint64_t draws_at_last_poll = 0;
    while (out.achieved < want) {
      const std::uint64_t step = std::min(chunk, want - out.achieved);
      world(rng, step, &out.draws);
      out.achieved += step;
      // Poll after sampling (serial cadence), so block 0's kept prefix is
      // never empty and a cheap block never pays a clock read per world.
      if (((out.achieved & 63) == 0 ||
           out.draws - draws_at_last_poll >= kPairDrawPollStride) &&
          out.achieved < want) {
        draws_at_last_poll = out.draws;
        if (budget.cancelled()) {
          cancelled.store(true, std::memory_order_relaxed);
          return;
        }
        if (budget.deadline.Expired()) {
          std::uint64_t cur = first_stop.load(std::memory_order_relaxed);
          while (b < cur && !first_stop.compare_exchange_weak(
                                cur, b, std::memory_order_relaxed)) {
          }
          if (b > 0) {
            // A mid-block partial of a later block is timing-dependent;
            // discard it entirely — the prefix rule drops block b anyway.
            out.achieved = 0;
            out.draws = 0;
          }
          return;
        }
      }
    }
    out.complete = true;
  });

  if (cancelled.load(std::memory_order_relaxed)) return CancelledStatus();
  return Status::OK();
}

/// Runs a prepared single-target request over \p pool in deterministic
/// blocks and reduces the counted prefix. `make_world()` builds one
/// block's world closure, called as (rng, step, &draws) and returning
/// how many of the `step` worlds it just sampled the target survived.
template <typename MakeWorldFn>
Result<MonteCarloResult> RunSamBlocks(ThreadPool& pool,
                                      const SamRequest& request,
                                      const MonteCarloOptions& options,
                                      std::uint64_t chunk,
                                      MakeWorldFn&& make_world) {
  std::vector<std::uint64_t> survived(
      BlockCount(request.samples, options.block_size), 0);
  std::vector<BlockOutcome> outcomes;
  SKYPREF_RETURN_IF_ERROR(RunDeterministicBlocks(
      pool, request.samples, options.block_size, chunk, options.seed,
      request.budget, outcomes, [&](std::uint64_t b) {
        return [world = make_world(), hits = &survived[b]](
                   Rng& rng, std::uint64_t step,
                   std::uint64_t* draws) mutable {
          *hits += world(rng, step, draws);
        };
      }));

  const BlockPrefix prefix = CountedPrefix(outcomes);
  MonteCarloResult result;
  result.requested_samples = request.samples;
  result.truncated = prefix.truncated;
  for (std::uint64_t b = 0; b < prefix.end; ++b) {
    result.samples += outcomes[b].achieved;
    result.pair_draws += outcomes[b].draws;
    result.skyline_worlds += survived[b];
  }
  result.estimate = static_cast<double>(result.skyline_worlds) /
                    static_cast<double>(result.samples);
  SKYPREF_DCHECK(result.skyline_worlds <= result.samples);
  SKYPREF_DCHECK_PROB(result.estimate);
  return result;
}

}  // namespace internal
}  // namespace skypref

#endif  // SKYPREF_CORE_SAM_INTERNAL_H_

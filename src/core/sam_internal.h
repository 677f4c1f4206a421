#ifndef SKYPREF_CORE_SAM_INTERNAL_H_
#define SKYPREF_CORE_SAM_INTERNAL_H_

/// \file
/// Shared plumbing of the Monte-Carlo engines (kSerial in monte_carlo.cc,
/// kBlock in sam_parallel.cc, kBitSliced in sam_bitslice.cc): the one
/// request front end every engine starts from, the flattened
/// single-target instance, the interned ternary batch plan, and the
/// block-deterministic runner and block-prefix reductions that give the
/// pooled engines the same seeding/truncation contract.
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
  Deadline deadline;               // one deadline for the whole estimate
};

/// The front end of the three single-target engines, each naming itself
/// as \p engine. In order: target and candidate checks (OutOfRange;
/// InvalidArgument for the target itself), the sample count and the
/// engine's block-size rule (InvalidArgument; kBlock needs >= 1,
/// kBitSliced a positive multiple of 64), the deadline, the pre-cancel
/// check (Cancelled), then the dominance-sorted checking sequence.
Result<SamRequest> PrepareSamRequest(const Dataset& data, ObjectId target,
                                     std::span<const ObjectId> candidates,
                                     const PreferenceModel& model,
                                     const MonteCarloOptions& options,
                                     MonteCarloOptions::Engine engine);

// -------------------------------------------------------------------------
// The flattened single-target instance
// -------------------------------------------------------------------------

/// The single-target instance flattened for the world loop, mirroring the
/// exact engine's FlatInstance: distinct (dim, value) preference pairs
/// become integer Bernoulli thresholds and each candidate owns a CSR
/// slice of pair ids, in checking-sequence order.
struct FlatSamInstance {
  std::vector<std::uint64_t> thresholds;  // per distinct pair
  std::vector<std::uint32_t> pair_ids;    // CSR payload
  std::vector<std::uint32_t> offsets;     // per candidate, size count+1

  std::size_t candidate_count() const { return offsets.size() - 1; }
  std::size_t pair_count() const { return thresholds.size(); }
};

FlatSamInstance BuildFlatSamInstance(const Dataset& data, ObjectId target,
                                     std::span<const ObjectId> candidates,
                                     const PreferenceModel& model);

// -------------------------------------------------------------------------
// The interned ternary batch plan
// -------------------------------------------------------------------------

/// Ternary orientation outcomes, stored per pair per world by the scalar
/// batch sampler (the bit-sliced one stores a mask pair instead).
inline constexpr std::uint8_t kLoPreferred = 0;
inline constexpr std::uint8_t kHiPreferred = 1;
inline constexpr std::uint8_t kIncomparable = 2;

/// The whole batch flattened: a global table of ternary orientation
/// variables (two integer cuts each: draw below cut_lo means lo
/// preferred, else below cut_hi means hi preferred, else incomparable)
/// plus a two-level CSR — per target a slice of candidate slots, per
/// slot a slice of packed requirements (pair_index << 1 | want_hi).
/// Candidates are in descending dominance-probability order per target.
struct BatchPlan {
  std::vector<std::uint64_t> cut_lo;
  std::vector<std::uint64_t> cut_hi;
  std::vector<std::uint32_t> reqs;
  std::vector<std::uint32_t> req_offsets;   // per candidate slot, slots+1
  std::vector<std::uint32_t> target_begin;  // per target, n+1, slot indices

  std::size_t pair_count() const { return cut_lo.size(); }
};

/// A validated and planned batch Sam query, ready for its world loop.
struct BatchSamRun {
  std::uint64_t samples = 0;
  Deadline deadline;
  BatchPlan plan;
  BatchSamStats stats;  // preprocessing fields and requested_samples
};

/// The front end of both batch engines: data and model validation, the
/// checks of PrepareSamRequest from the sample count on, then the plan —
/// absorption + partition per target over \p pool (honoring
/// options.preprocess) and the serial interning of the shared ternary
/// pair table.
Result<BatchSamRun> PrepareBatchSam(const Dataset& data,
                                    const PreferenceModel& model,
                                    ThreadPool& pool,
                                    const SolverOptions& options,
                                    MonteCarloOptions::Engine engine);

/// The bit-sliced batch world loop (sam_bitslice.cc) over a prepared run.
Result<std::vector<double>> RunBitSlicedBatch(ThreadPool& pool,
                                              BatchSamRun& run,
                                              const MonteCarloOptions& mc,
                                              BatchSamStats* stats);

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

/// Fans `samples` worlds out over `pool` in fixed blocks of `block_size`.
/// `make_block(b)` builds block b's world closure (owning any per-block
/// state); the closure is then called with (rng, step, &draws) — asked
/// for `step` consecutive worlds at a time, at most `chunk` per call —
/// against block b's private SplitSeed(seed, b) Rng. The scalar engines
/// pass chunk = 1 (one world per call, polls at the serial cadence after
/// every world); the bit-sliced engine passes chunk = 64 (one mask word
/// per call, polls after every word). Deterministic per (seed,
/// block_size, chunk) at every thread count; see sam_parallel.h for the
/// truncation contract. Returns Cancelled when any block observes a
/// tripped token.
template <typename MakeBlockFn>
Status RunDeterministicBlocks(ThreadPool& pool, std::uint64_t samples,
                              std::uint64_t block_size, std::uint64_t chunk,
                              std::uint64_t seed, const Deadline& deadline,
                              const CancelToken* cancel,
                              std::vector<BlockOutcome>& outcomes,
                              MakeBlockFn&& make_block) {
  const std::uint64_t num_blocks = (samples + block_size - 1) / block_size;
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
        if (cancel != nullptr && cancel->cancelled()) {
          cancelled.store(true, std::memory_order_relaxed);
          return;
        }
        if (deadline.Expired()) {
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
  const std::uint64_t num_blocks =
      (request.samples + options.block_size - 1) / options.block_size;
  std::vector<std::uint64_t> survived(num_blocks, 0);
  std::vector<BlockOutcome> outcomes;
  SKYPREF_RETURN_IF_ERROR(RunDeterministicBlocks(
      pool, request.samples, options.block_size, chunk, options.seed,
      request.deadline, options.cancel, outcomes, [&](std::uint64_t b) {
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

/// Runs a prepared batch over \p pool in deterministic blocks and
/// reduces the counted prefix into per-target estimates (run.stats,
/// copied to \p stats when non-null). `make_world(counts)` builds one
/// block's world closure, called as (rng, step, &draws), which adds each
/// target's surviving worlds among the `step` just sampled to
/// counts[target].
template <typename MakeWorldFn>
Result<std::vector<double>> RunBatchSamBlocks(ThreadPool& pool,
                                              BatchSamRun& run,
                                              const MonteCarloOptions& mc,
                                              std::uint64_t chunk,
                                              BatchSamStats* stats,
                                              MakeWorldFn&& make_world) {
  const std::size_t n = run.stats.targets;
  const std::uint64_t num_blocks =
      (run.samples + mc.block_size - 1) / mc.block_size;
  std::vector<std::vector<std::uint64_t>> survived(
      num_blocks, std::vector<std::uint64_t>(n, 0));
  std::vector<BlockOutcome> outcomes;
  SKYPREF_RETURN_IF_ERROR(RunDeterministicBlocks(
      pool, run.samples, mc.block_size, chunk, mc.seed, run.deadline,
      mc.cancel, outcomes,
      [&](std::uint64_t b) { return make_world(survived[b].data()); }));

  const BlockPrefix prefix = CountedPrefix(outcomes);
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

}  // namespace internal
}  // namespace skypref

#endif  // SKYPREF_CORE_SAM_INTERNAL_H_

#ifndef SKYPREF_CORE_SAM_BITSLICE_H_
#define SKYPREF_CORE_SAM_BITSLICE_H_

/// \file
/// The bit-sliced Monte-Carlo engine: 64 possible worlds per machine
/// word (MonteCarloOptions::Engine::kBitSliced).
///
/// Layout. The kBlock engine (sam_parallel.h) evaluates worlds one at a
/// time: per world, per candidate, a branchy walk over the candidate's
/// CSR pair slice with one Bernoulli draw per first-touched pair. This
/// engine transposes that loop. Per CHUNK of 64 worlds it materializes,
/// for each distinct preference pair p, one 64-bit mask M_p whose bit w
/// encodes "the sampled orientation of p favors the candidate in world
/// w" (for the single-target instance: "Qi.j <= O.j holds in world w").
/// A candidate's dominance event across all 64 worlds is then the AND
/// of its pair masks, the worlds where the target is dominated are the
/// OR of the candidate masks, and the target survives in
/// popcount(~dominated & valid) worlds. The branchy per-world inner
/// loop disappears: one word op decides 64 worlds at once.
///
/// Sampling. Single-target masks are drawn by NextBernoulliWords8
/// (src/util/random.h): iid Bernoulli(p) bits at the EXACT
/// integer-threshold precision of the scalar engines, via binary
/// expansion of the 64-bit cut, eight mask words per call from eight
/// independent Xoshiro lanes (AVX-512 on capable x86-64, with a
/// bit-identical portable fallback). One call covers a pair for a
/// SUPERCHUNK of eight consecutive chunks, so the memo granularity is
/// 512 worlds: masks carry superchunk epoch stamps (the word-level
/// analog of the scalar engines' per-world memoization — candidates
/// sharing a value pair see the same sampled orientation in every
/// world) and, in lazy mode, a pair's eight masks are generated only
/// when a candidate whose accumulated AND is still alive first touches
/// the pair during the superchunk. Batch Sam
/// (BatchMonteCarloSkylineProbabilities, sam_parallel.h) runs the same
/// layout over its interned ternary plan: each variable is drawn as two
/// mutually exclusive masks per chunk (NextTernaryWords), shared by
/// every target. pair_draws counts 64 per mask GENERATED (512 per wide
/// call, even
/// for a trailing superchunk that uses fewer chunks): the number of
/// world-pair outcomes materialized, comparable with the scalar
/// engines' per-draw count.
///
/// Determinism. Same block contract as kBlock: block b samples from
/// Rng(SplitSeed(seed, b)), blocks reduce in index order, deadline
/// truncation keeps a deterministic block prefix (sam_parallel.h). The
/// engine consumes the stream in whole 64-world chunks, so estimates
/// are bit-identical at every thread count and under truncation, but
/// NOT equal to kBlock's (each engine defines its own stream). The
/// block_size must be a multiple of 64 so chunks never straddle a block
/// boundary; a trailing partial chunk (samples not a multiple of 64)
/// masks the invalid lanes out of the survivor count but still spends
/// whole mask words.

#include <span>
#include <vector>

#include "src/core/monte_carlo.h"
#include "src/core/sam_parallel.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace skypref {

/// Sam over \p pool with the bit-sliced engine described above.
/// Bit-identical for every thread count of \p pool (including an inline
/// 0-thread pool), per (options.seed, options.block_size). Requires
/// options.block_size >= 64 and a multiple of 64; options.engine is
/// ignored (this IS the kBitSliced engine). \p budget is resolved at
/// entry, as in MonteCarloSkylineProbability.
Result<MonteCarloResult> BitSlicedMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, ThreadPool& pool,
    const MonteCarloOptions& options = {}, const QueryBudget& budget = {});

/// Convenience wrapper: all objects but the target.
Result<MonteCarloResult> BitSlicedMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const MonteCarloOptions& options = {},
    const QueryBudget& budget = {});

}  // namespace skypref

#endif  // SKYPREF_CORE_SAM_BITSLICE_H_

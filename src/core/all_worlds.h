#ifndef SKYPREF_CORE_ALL_WORLDS_H_
#define SKYPREF_CORE_ALL_WORLDS_H_

/// \file
/// Shared-world estimation of EVERY object's skyline probability.
///
/// The paper's concluding section leaves "probabilistic skyline over
/// uncertain preferences" (all objects at once) as future work, noting
/// that the naive approach runs Algorithm 2 once per object. This module
/// implements the natural improvement: one stream of sampled worlds is
/// shared by all objects — each world yields a skyline-membership bit for
/// every object simultaneously, so n estimates cost one world stream
/// instead of n.
///
/// Unlike the single-target estimator, dominance checks here run between
/// arbitrary object pairs, so a sampled preference must carry its full
/// ternary outcome (a preferred / b preferred / incomparable) and be
/// shared consistently across all checks in the world. Note that sampled
/// preference worlds need not be transitive (the model only constrains
/// pairs), so sort-based skyline shortcuts are invalid and membership is
/// decided by direct dominator search with early exit.
///
/// By Hoeffding plus a union bound over the n objects, m =
/// ln(2n/delta) / (2 epsilon^2) worlds bound every estimate's error by
/// epsilon simultaneously with confidence 1 - delta.
///
/// The estimators are one query each: AllWorldsOptions::budget is
/// resolved once at entry and polled once per 64-world chunk. No partial
/// result is returned, so deadline expiry is ResourceExhausted and a
/// tripped token Cancelled.

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/sam_internal.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/cancel.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace skypref {

struct AllWorldsOptions {
  double epsilon = 0.02;
  double delta = 0.05;
  /// Explicit world count; 0 derives it from epsilon/delta with the union
  /// bound over all objects.
  std::uint64_t samples = 0;
  std::uint64_t seed = 0xa11c0e5ULL;
  /// The estimate's time limit, deadline and cancel token; expiry ->
  /// ResourceExhausted, cancellation -> Cancelled.
  QueryBudget budget;
};

struct AllWorldsResult {
  /// estimates[i] approximates sky(object i).
  std::vector<double> estimates;
  std::uint64_t samples = 0;
  /// Ternary preference draws, counted 64 per mask word as in the
  /// bit-sliced engines: every chunk draws full 64-world words, also for
  /// lanes past `samples`.
  std::uint64_t pair_draws = 0;
};

/// Worlds needed for simultaneous epsilon/delta guarantees over n objects:
/// ceil(ln(2n/delta) / (2 epsilon^2)), saturating at UINT64_MAX like
/// HoeffdingSampleSize (NaN epsilon or delta, or epsilon below about
/// 1e-10); 0 when epsilon/delta are invalid or n == 0. The estimators
/// below reject a saturated count.
std::uint64_t AllWorldsSampleSize(double epsilon, double delta, std::size_t n);

/// Shared-world sampler: a view over the batch Sam plan built without
/// preprocessing (internal::BuildBatchPlan) — a global table of ternary
/// preference variables plus, per object, its possible dominators sorted
/// by dominance probability (the Algorithm-2 checking-sequence idea
/// applied to every target). Candidates with dominance probability
/// exactly zero are dropped — they can never dominate in any world.
///
/// Worlds come in 64-world chunks: world h is lane h % 64 of chunk
/// h / 64. Per chunk, each preference variable is drawn as two mutually
/// exclusive mask words (lo preferred, hi preferred) by NextTernaryWords
/// from the caller's Rng, lazily on first touch and shared by every
/// target, so two targets querying the same value pair see the same
/// orientation in every world. A target's survivor word for the chunk
/// comes from batch Sam's bit-sliced walk (internal::BatchChunkSurvivors)
/// over all 64 lanes, at the first request, and is memoized until the
/// chunk ends. The draws therefore depend only on the order in which
/// targets first ask within each chunk, never on which world asks:
/// looping NextWorld/Survives over targets in ascending order draws
/// exactly what EstimateAllSkylineProbabilities draws. Powers
/// EstimateAllSkylineProbabilities and the top-k race
/// (src/core/topk_race.h).
class SharedWorldSampler {
 public:
  SharedWorldSampler(const Dataset& data, const PreferenceModel& model);

  /// Number of distinct ternary preference variables discovered.
  std::size_t pair_count() const { return plan_.pair_count(); }

  /// Possible dominators of \p target (after zero-probability filtering).
  std::size_t candidate_count(ObjectId target) const {
    return plan_.target_begin[target + 1] - plan_.target_begin[target];
  }

  /// Advances to the next world; the first call enters world 0. Every
  /// 64th world starts a fresh chunk.
  void NextWorld() {
    if ((++world_ & 63) == 0) ++slice_.epoch;
  }

  /// Advances to the first world of the next chunk; the first call
  /// enters world 0.
  void NextChunk() {
    world_ = (world_ | 63) + 1;
    ++slice_.epoch;
  }

  /// Survivor word of \p target over the current world's chunk c: bit k
  /// is set iff the target survives world 64c + k. Masks are drawn on
  /// demand from \p rng, 64 draws per mask word added to \p pair_draws.
  /// Precondition (checked): NextWorld or NextChunk was called.
  std::uint64_t ChunkSurvivors(ObjectId target, Rng& rng,
                               std::uint64_t* pair_draws);

  /// True iff \p target survives (is undominated in) the current world:
  /// its lane of ChunkSurvivors. Same precondition.
  bool Survives(ObjectId target, Rng& rng, std::uint64_t* pair_draws) {
    return ((ChunkSurvivors(target, rng, pair_draws) >> (world_ & 63)) & 1) !=
           0;
  }

 private:
  /// Before the first NextWorld/NextChunk; the first advance wraps to 0.
  static constexpr std::uint64_t kNoWorld = ~std::uint64_t{0};

  internal::BatchPlan plan_;
  internal::BatchSliceState slice_;
  /// Per target: the survivor word of chunk epoch word_epoch_[t].
  std::vector<std::uint64_t> word_;
  std::vector<std::uint64_t> word_epoch_;
  std::uint64_t world_ = kNoWorld;
};

/// Estimates sky() of every object by shared-world sampling.
Result<AllWorldsResult> EstimateAllSkylineProbabilities(
    const Dataset& data, const PreferenceModel& model,
    const AllWorldsOptions& options = {});

/// Probabilistic skyline query: objects whose estimated skyline
/// probability is at least \p tau, in increasing object order.
Result<std::vector<ObjectId>> ProbabilisticSkyline(
    const Dataset& data, const PreferenceModel& model, double tau,
    const AllWorldsOptions& options = {});

/// Top-k objects by estimated skyline probability (ties broken by object
/// id), highest first.
Result<std::vector<std::pair<ObjectId, double>>> TopKSkyline(
    const Dataset& data, const PreferenceModel& model, std::size_t k,
    const AllWorldsOptions& options = {});

}  // namespace skypref

#endif  // SKYPREF_CORE_ALL_WORLDS_H_

#ifndef SKYPREF_CORE_ABSORPTION_H_
#define SKYPREF_CORE_ABSORPTION_H_

/// \file
/// The "absorption" preprocessing technique (Section 5, Theorem 3,
/// Algorithm 3).
///
/// Candidate Qj is absorbed by candidate Qi when Qj matches Qi on every
/// dimension where Qi differs from the target O. In any possible world
/// where Qj dominates O, Qi also dominates O (on the differing dimensions
/// Qi's values ARE Qj's values; elsewhere Qi equals O), so the event
/// "Qj dominates O" is contained in "Qi dominates O" and Qj contributes
/// nothing to sky(O) = Pr(no candidate dominates O). Absorption is
/// transitive (Corollary 1), so one pass in arbitrary order suffices.
///
/// Both entry points below run the same pass (absorption.cc): candidates
/// in list order, each surviving candidate scanning the shortest posting
/// list among its differing dimensions for the candidates it absorbs.
/// They differ only in where the postings come from — built per call over
/// the candidate list, or shared by every target of an all-objects query.
/// Under assumption A3 (no duplicate objects) two distinct objects cannot
/// absorb each other, so the survivor set does not depend on list order.
///
/// Complexity: posting lists per (dimension, value) make the scan roughly
/// O(n d) for the value distributions of the evaluation; the degenerate
/// worst case (everything collides) is O(n^2 d) like the paper's one-pass
/// description.

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/model/dataset.h"
#include "src/model/types.h"
#include "src/util/hash.h"

namespace skypref {

struct AbsorptionStats {
  std::size_t input_candidates = 0;
  std::size_t absorbed = 0;
};

/// Posting lists: (dimension, value) -> the objects using that value.
/// Immutable after construction, so concurrent lookups are safe.
class ValuePostings {
 public:
  /// Every object of \p data, in ascending ObjectId order: built once,
  /// then shared by every target of an all-objects query.
  explicit ValuePostings(const Dataset& data);

  /// Only \p candidates, in list order.
  ValuePostings(const Dataset& data, std::span<const ObjectId> candidates);

  /// Objects whose value on \p dim is \p value; empty when unused.
  std::span<const ObjectId> list(DimensionId dim, ValueId value) const {
    auto it = postings_.find({dim, value});
    if (it == postings_.end()) return {};
    return it->second;
  }

 private:
  void Add(const Dataset& data, ObjectId id);

  std::unordered_map<std::pair<DimensionId, ValueId>, std::vector<ObjectId>,
                     PairHash>
      postings_;
};

/// Returns the candidates that survive absorption, in their input order.
/// Candidates equal to the target on every dimension (duplicates) are
/// dropped as well — they can never strictly dominate. Builds postings
/// over \p candidates for the call.
std::vector<ObjectId> AbsorbCandidates(const Dataset& data, ObjectId target,
                                       std::span<const ObjectId> candidates,
                                       AbsorptionStats* stats = nullptr);

/// AbsorbCandidates over ALL objects except \p target, in ascending
/// ObjectId order, driven by the shared \p postings (ValuePostings(data))
/// instead of per-call ones: the same pass, so the same survivor list.
/// A shared list may name objects outside the candidate list (only the
/// target here), which the pass treats as already removed.
std::vector<ObjectId> AbsorbAllCandidatesIndexed(const Dataset& data,
                                                 ObjectId target,
                                                 const ValuePostings& postings,
                                                 AbsorptionStats* stats =
                                                     nullptr);

/// True iff \p absorbed is absorbed by \p absorber with respect to
/// \p target, i.e. they match on every dimension where the absorber
/// differs from the target (and the absorber does differ somewhere).
bool Absorbs(const Dataset& data, ObjectId target, ObjectId absorber,
             ObjectId absorbed);

}  // namespace skypref

#endif  // SKYPREF_CORE_ABSORPTION_H_

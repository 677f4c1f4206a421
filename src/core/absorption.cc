#include "src/core/absorption.h"

#include <ranges>

namespace skypref {

// Defined ahead of the scan so the compiler can inline it there: the
// call sits in the pass's innermost loop.
bool Absorbs(const Dataset& data, ObjectId target, ObjectId absorber,
             ObjectId absorbed) {
  if (absorber == absorbed) return false;
  bool differs_somewhere = false;
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    if (data.value(absorber, j) == data.value(target, j)) continue;
    differs_somewhere = true;
    if (data.value(absorbed, j) != data.value(absorber, j)) return false;
  }
  return differs_somewhere;
}

ValuePostings::ValuePostings(const Dataset& data) {
  for (ObjectId id = 0; id < data.size(); ++id) Add(data, id);
}

ValuePostings::ValuePostings(const Dataset& data,
                             std::span<const ObjectId> candidates) {
  for (ObjectId id : candidates) Add(data, id);
}

void ValuePostings::Add(const Dataset& data, ObjectId id) {
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    postings_[{j, data.value(id, j)}].push_back(id);
  }
}

namespace {

/// Algorithm 3's one pass, scanning \p ids in order: the candidates, and
/// possibly the target, which starts out removed. \p candidates counts
/// the candidates among \p ids. \p postings must list every candidate
/// under each of its values; any other object it lists only costs scan
/// time, since only candidates absorb and only candidates are reported.
template <typename Ids>
std::vector<ObjectId> AbsorbScan(const Dataset& data, ObjectId target,
                                 const Ids& ids, std::size_t candidates,
                                 const ValuePostings& postings,
                                 AbsorptionStats* stats) {
  const DimensionId d = static_cast<DimensionId>(data.dimensions());
  std::vector<bool> removed(data.size(), false);
  removed[target] = true;  // the target is never its own candidate

  for (ObjectId absorber : ids) {
    if (removed[absorber]) continue;  // absorbed candidates absorb nothing

    // Gamma = dimensions where the absorber differs from the target; the
    // shortest posting list among them drives the scan, since anything
    // the absorber absorbs shares its value on every one of them.
    std::span<const ObjectId> best;
    bool differs_somewhere = false;
    for (DimensionId j = 0; j < d; ++j) {
      const ValueId v = data.value(absorber, j);
      if (v == data.value(target, j)) continue;
      std::span<const ObjectId> list = postings.list(j, v);
      if (!differs_somewhere || list.size() < best.size()) best = list;
      differs_somewhere = true;
    }
    if (!differs_somewhere) {
      // The candidate duplicates the target on all dimensions; it cannot
      // strictly dominate and is dropped outright.
      removed[absorber] = true;
      continue;
    }

    for (ObjectId other : best) {
      if (other == absorber || removed[other]) continue;
      if (Absorbs(data, target, absorber, other)) removed[other] = true;
    }
  }

  std::vector<ObjectId> survivors;
  survivors.reserve(candidates);
  for (ObjectId id : ids) {
    if (!removed[id]) survivors.push_back(id);
  }
  if (stats != nullptr) {
    stats->input_candidates = candidates;
    stats->absorbed = candidates - survivors.size();
  }
  return survivors;
}

}  // namespace

std::vector<ObjectId> AbsorbCandidates(const Dataset& data, ObjectId target,
                                       std::span<const ObjectId> candidates,
                                       AbsorptionStats* stats) {
  return AbsorbScan(data, target, candidates, candidates.size(),
                    ValuePostings(data, candidates), stats);
}

std::vector<ObjectId> AbsorbAllCandidatesIndexed(const Dataset& data,
                                                 ObjectId target,
                                                 const ValuePostings& postings,
                                                 AbsorptionStats* stats) {
  // Every object in ascending id order, the target included: it starts
  // out removed, so it neither absorbs nor survives.
  return AbsorbScan(data, target, std::views::iota(ObjectId{0}, data.size()),
                    data.size() - 1, postings, stats);
}

}  // namespace skypref

#ifndef SKYPREF_CORE_BRUTE_FORCE_H_
#define SKYPREF_CORE_BRUTE_FORCE_H_

/// \file
/// Naive possible-world enumeration (the paper's second "naive approach",
/// Section 1 and Eq. 8) — the correctness oracle of this library.
///
/// sky(O) only depends, per relevant value pair (v, O.j), on whether v is
/// preferred to O.j; the distinction between "O.j preferred to v" and
/// "incomparable" never changes O's skyline status. The enumeration is
/// therefore over binary outcomes of the DISTINCT pairs (dim, v) with
/// v = Qi.j != O.j — sharing a value across candidates collapses to one
/// enumeration variable, which is exactly the dependence that breaks the
/// independent-dominance shortcut.
///
/// Cost: O(2^k) worlds for k distinct pairs. Only suitable for small
/// instances; pair it with ExactSkylineProbability in property tests.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/dominance.h"
#include "src/core/oracles.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/hash.h"
#include "src/util/status.h"

namespace skypref {

struct BruteForceOptions {
  /// Abort with ResourceExhausted when the enumeration would exceed this
  /// many worlds (0 = unlimited). Zero-probability branches are skipped
  /// and do not count.
  std::uint64_t max_worlds = std::uint64_t{1} << 24;
};

struct BruteForceStats {
  /// Number of distinct (dimension, value) preference variables.
  std::size_t pair_count = 0;
  /// Number of enumerated (non-skipped) worlds.
  std::uint64_t worlds_visited = 0;
};

namespace internal {

template <typename Oracle>
class BruteForceEngine {
 public:
  using Num = typename Oracle::NumType;

  BruteForceEngine(const Dataset& data, ObjectId target,
                   std::span<const ObjectId> candidates, const Oracle& oracle,
                   const BruteForceOptions& options)
      : options_(options) {
    // Collect the distinct (dim, value) pairs and each candidate's pair
    // index list.
    std::vector<std::vector<std::size_t>> per_candidate;
    std::unordered_map<std::pair<DimensionId, ValueId>, std::size_t, PairHash>
        pair_index;
    for (ObjectId id : candidates) {
      std::vector<std::size_t> needs;
      for (DimensionId j = 0; j < data.dimensions(); ++j) {
        ValueId v = data.value(id, j);
        ValueId o = data.value(target, j);
        if (v == o) continue;
        auto [it, inserted] = pair_index.try_emplace({j, v}, probs_.size());
        if (inserted) probs_.push_back(oracle.LessEq(j, v, o));
        needs.push_back(it->second);
      }
      // A candidate identical to O would dominate never (duplicate objects
      // are excluded by Dataset::Validate); an empty `needs` would mean a
      // duplicate, which we treat as "never dominates".
      if (!needs.empty()) candidate_pairs_.push_back(std::move(needs));
    }
    outcome_.assign(probs_.size(), false);
  }

  Result<Num> Run(BruteForceStats* stats) {
    status_ = Status::OK();
    total_ = Num(0);
    worlds_ = 0;
    Enumerate(0, Num(1));
    if (stats != nullptr) {
      stats->pair_count = probs_.size();
      stats->worlds_visited = worlds_;
    }
    if (!status_.ok()) return status_;
    return total_;
  }

 private:
  void Enumerate(std::size_t pair, const Num& weight) {
    if (!status_.ok()) return;
    if (pair == probs_.size()) {
      if (++worlds_ > options_.max_worlds && options_.max_worlds != 0) {
        status_ = Status::ResourceExhausted(
            "brute force exceeded world budget of " +
            std::to_string(options_.max_worlds));
        return;
      }
      if (!Dominated()) total_ = total_ + weight;
      return;
    }
    const Num& p = probs_[pair];
    const Num not_p = Num(1) - p;
    if (!(p == Num(0))) {
      outcome_[pair] = true;
      Enumerate(pair + 1, weight * p);
    }
    if (!(not_p == Num(0))) {
      outcome_[pair] = false;
      Enumerate(pair + 1, weight * not_p);
    }
    outcome_[pair] = false;
  }

  bool Dominated() const {
    for (const auto& needs : candidate_pairs_) {
      bool all = true;
      for (std::size_t idx : needs) {
        if (!outcome_[idx]) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
    return false;
  }

  BruteForceOptions options_;
  std::vector<Num> probs_;                           // Pr(v < O.j) per pair
  std::vector<std::vector<std::size_t>> candidate_pairs_;
  std::vector<bool> outcome_;
  Num total_{};
  std::uint64_t worlds_ = 0;
  Status status_;
};

}  // namespace internal

/// Computes sky(target) by possible-world enumeration over the candidates.
template <typename Oracle>
Result<typename Oracle::NumType> BruteForceSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const Oracle& oracle, const BruteForceOptions& options = {},
    BruteForceStats* stats = nullptr) {
  SKYPREF_RETURN_IF_ERROR(ValidateCandidates(data.size(), target, candidates));
  internal::BruteForceEngine<Oracle> engine(data, target, candidates, oracle,
                                            options);
  return engine.Run(stats);
}

/// Convenience wrapper: all objects but the target, double precision.
Result<double> BruteForceSkylineProbability(const Dataset& data,
                                            ObjectId target,
                                            const PreferenceModel& model,
                                            const BruteForceOptions& options = {},
                                            BruteForceStats* stats = nullptr);

}  // namespace skypref

#endif  // SKYPREF_CORE_BRUTE_FORCE_H_

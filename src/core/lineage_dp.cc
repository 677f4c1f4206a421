#include "src/core/lineage_dp.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <vector>

#include "src/core/dominance.h"
#include "src/core/exact.h"
#include "src/core/solver.h"
#include "src/util/hash.h"

namespace skypref {

namespace {

struct Variable {
  double probability;      // Pr(v < O.j)
  std::uint64_t requires_mask;  // candidates whose domination needs it
};

class LineageEngine {
 public:
  LineageEngine(std::vector<Variable> variables,
                const LineageDpOptions& options)
      : variables_(std::move(variables)), options_(options) {
    // Order variables by how many candidates they touch, descending:
    // deciding a widely shared variable first either kills many
    // candidates at once (false branch) or keeps the state aligned
    // across prefixes, both of which shrink the reachable state space.
    std::stable_sort(variables_.begin(), variables_.end(),
                     [](const Variable& a, const Variable& b) {
                       return std::popcount(a.requires_mask) >
                              std::popcount(b.requires_mask);
                     });
    // suffix_union_[i] = candidates with at least one requirement among
    // variables i..end; an alive candidate outside it is fully satisfied.
    suffix_union_.assign(variables_.size() + 1, 0);
    for (std::size_t i = variables_.size(); i-- > 0;) {
      suffix_union_[i] = suffix_union_[i + 1] | variables_[i].requires_mask;
    }
  }

  Result<double> Run(std::uint64_t initial_alive, LineageDpStats* stats) {
    status_ = Status::OK();
    double survival = Solve(0, initial_alive);
    if (stats != nullptr) {
      stats->variables = variables_.size();
      stats->states = static_cast<std::uint64_t>(memo_.size());
      stats->memo_hits = memo_hits_;
    }
    if (!status_.ok()) return status_;
    return survival;
  }

 private:
  double Solve(std::uint32_t index, std::uint64_t alive) {
    if (!status_.ok()) return 0.0;
    // Some alive candidate has no pending requirement: fully satisfied,
    // O is dominated on every world of this branch.
    if ((alive & ~suffix_union_[index]) != 0) return 0.0;
    // Nobody can dominate anymore; the remaining variables integrate to 1.
    if (alive == 0) return 1.0;

    const std::pair<std::uint64_t, std::uint32_t> key{alive, index};
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++memo_hits_;
      return it->second;
    }
    if (options_.max_states != 0 && memo_.size() >= options_.max_states) {
      status_ = Status::ResourceExhausted(
          "lineage DP exceeded state budget of " +
          std::to_string(options_.max_states));
      return 0.0;
    }

    const Variable& var = variables_[index];
    double p = var.probability;
    double value = 0.0;
    if (p > 0.0) {
      value += p * Solve(index + 1, alive);  // satisfied: all stay alive
    }
    if (p < 1.0) {
      value += (1.0 - p) * Solve(index + 1, alive & ~var.requires_mask);
    }
    memo_.emplace(key, value);
    return value;
  }

  std::vector<Variable> variables_;
  LineageDpOptions options_;
  std::vector<std::uint64_t> suffix_union_;
  std::unordered_map<std::pair<std::uint64_t, std::uint32_t>, double,
                     PairHash>
      memo_;
  std::uint64_t memo_hits_ = 0;
  Status status_;
};

}  // namespace

Result<double> LineageExactSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, const LineageDpOptions& options,
    LineageDpStats* stats) {
  SKYPREF_RETURN_IF_ERROR(ValidateCandidates(data.size(), target, candidates));
  if (candidates.size() > 64) {
    return Status::ResourceExhausted(
        "lineage DP supports at most 64 candidates per call; run "
        "absorption + partition first");
  }

  // The distinct variables are the flattened instance's pairs; each
  // candidate requires the pairs of its slice.
  const internal::FlatInstance<DoubleOracle> instance =
      internal::BuildFlatInstance(data, target, candidates,
                                  DoubleOracle(model));
  std::vector<Variable> variables;
  variables.reserve(instance.pair_count());
  for (double p : instance.pair_prob) variables.push_back(Variable{p, 0});
  std::uint64_t initial_alive = 0;
  for (std::size_t c = 0; c < instance.candidate_count(); ++c) {
    const std::uint64_t bit = std::uint64_t{1} << c;
    for (std::uint32_t p : instance.pairs_of(c)) {
      variables[p].requires_mask |= bit;
    }
    // A duplicate of the target can never dominate; leave it dead.
    if (!instance.pairs_of(c).empty()) initial_alive |= bit;
  }

  LineageEngine engine(std::move(variables), options);
  return engine.Run(initial_alive, stats);
}

Result<double> LineageExactWithPreprocessing(const Dataset& data,
                                             ObjectId target,
                                             const PreferenceModel& model,
                                             const LineageDpOptions& options,
                                             LineageDpStats* stats) {
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  double product = 1.0;
  LineageDpStats combined;
  for (const auto& group :
       CandidateGroups(data, target, /*preprocess=*/true)) {
    LineageDpStats group_stats;
    SKYPREF_ASSIGN_OR_RETURN(
        double survival,
        LineageExactSkylineProbability(data, target, group, model, options,
                                       &group_stats));
    product *= survival;
    combined.variables += group_stats.variables;
    combined.states += group_stats.states;
    combined.memo_hits += group_stats.memo_hits;
  }
  if (stats != nullptr) *stats = combined;
  return product;
}

}  // namespace skypref

#ifndef SKYPREF_BENCH_BENCH_UTIL_H_
#define SKYPREF_BENCH_BENCH_UTIL_H_

/// \file
/// Shared plumbing for the per-figure benchmark binaries.
///
/// Every binary regenerates one table/figure of the paper's evaluation
/// section (see DESIGN.md for the index and EXPERIMENTS.md for measured
/// results). By default the benches run at "quick" scale — the same
/// workloads as the paper with cardinalities and cutoffs reduced so the
/// whole suite finishes in minutes; set SKYPREF_BENCH_SCALE=full to run
/// the paper's 10^5-object configurations with 10^4-second-style cutoffs.

#include <cstdlib>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/skypref.h"
#include "src/util/random.h"

namespace skypref::bench {

/// Keeps a computed value alive without benchmark::DoNotOptimize: the
/// installed google-benchmark's "+m,r"-constraint inline asm miscompiles
/// under GCC -O3 and corrupts the operand (upstream issue #1340 family —
/// observed here as denormal garbage in otherwise exact 0/1 arithmetic).
/// An input-only operand with a memory clobber is safe.
template <typename T>
inline void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// True when SKYPREF_BENCH_SCALE=full.
inline bool FullScale() {
  const char* scale = std::getenv("SKYPREF_BENCH_SCALE");
  return scale != nullptr && std::string(scale) == "full";
}

/// Wall-clock cutoff for exact solvers (the paper used 10^4 seconds).
inline double ExactCutoffSeconds() { return FullScale() ? 600.0 : 10.0; }

/// Number of target objects to average over (the paper averages over up
/// to 1000 objects; the shapes stabilize with far fewer).
inline std::size_t TargetCount(std::size_t dataset_size) {
  std::size_t budget = FullScale() ? 50 : 8;
  return dataset_size < budget ? dataset_size : budget;
}

/// Deterministic sample of distinct target objects.
inline std::vector<ObjectId> SampleTargets(std::size_t dataset_size,
                                           std::size_t count,
                                           std::uint64_t seed = 0x7a26e75) {
  Rng rng(seed);
  std::vector<ObjectId> targets;
  if (count >= dataset_size) {
    for (ObjectId i = 0; i < dataset_size; ++i) targets.push_back(i);
    return targets;
  }
  // Floyd's algorithm would be fancier; rejection is fine at this scale.
  std::vector<bool> chosen(dataset_size, false);
  while (targets.size() < count) {
    ObjectId id = static_cast<ObjectId>(rng.NextBounded(dataset_size));
    if (!chosen[id]) {
      chosen[id] = true;
      targets.push_back(id);
    }
  }
  return targets;
}

/// The paper's synthetic preference setup: probabilities drawn uniformly
/// from [0,1], one independent draw per value pair, O(1) memory.
inline HashedPreferenceModel PaperPreferences(std::uint64_t seed = 2013) {
  return HashedPreferenceModel(seed,
                               HashedPreferenceModel::Style::kTotalUniform);
}

/// Standard block-zipf configuration used across the figures (Table 1:
/// zipf parameter 1; block geometry chosen so that Det+ has per-block
/// subproblems, as in the paper's 10^5-object runs).
inline constexpr ValueId kBlockValues = 6;

inline BlockZipfOptions BlockZipfConfig(std::size_t objects,
                                        std::size_t dimensions) {
  BlockZipfOptions options;
  options.objects = objects;
  options.dimensions = dimensions;
  options.block_size = 12;
  options.values_per_block = kBlockValues;
  options.theta = 1.0;
  options.seed = 7;
  return options;
}

/// Block-zipf preference semantics: random [0,1] preferences within a
/// block, incomparable across blocks (see BlockLocalPreferenceModel).
inline BlockLocalPreferenceModel BlockPrefs(const PreferenceModel& base) {
  return BlockLocalPreferenceModel(base, kBlockValues);
}

/// The figure benches run Det and Det+ exactly as published (Algorithm 1
/// with the sharing technique only); the zero-subtree pruning this
/// library adds on top is measured separately in bench_ablation. Their
/// per-query cutoff goes into SolverOptions::budget, for the Det and
/// Det+ series only.
inline ExactOptions PaperExactOptions() {
  ExactOptions options;
  options.prune_zero = false;
  return options;
}

/// Standard uniform configuration (Table 1: n in 10..50, d in 2..5).
inline UniformOptions UniformConfig(std::size_t objects,
                                    std::size_t dimensions) {
  UniformOptions options;
  options.objects = objects;
  options.dimensions = dimensions;
  options.values_per_dimension = 10;
  options.seed = 7;
  return options;
}

}  // namespace skypref::bench

#endif  // SKYPREF_BENCH_BENCH_UTIL_H_

// Extension bench — the lineage (Shannon-expansion) exact engine vs
// Algorithm 1's subset enumeration on dense uniform data.
//
// Algorithm 1 is exponential in the CANDIDATE count; the lineage DP is
// bounded by the reachable (variable, alive-set) states, which dense
// value sharing keeps small. On uniform 5-d data with 10 values per
// dimension the variable count is at most 45 regardless of n, so the DP
// computes exactly what Figure 9a declares hopeless beyond n ~ 25.
// The flip side is shown too: on block-zipf groups (little sharing,
// variables ~ n*d) the classic subset DFS remains the right tool.

#include <chrono>

#include "bench_util.h"

namespace {

using namespace skypref;
using namespace skypref::bench;

void BM_Lineage_Uniform(benchmark::State& state) {
  Dataset data = GenerateUniform(
                     UniformConfig(static_cast<std::size_t>(state.range(0)), 5))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  std::vector<ObjectId> targets = SampleTargets(data.size(), 8);

  double elapsed_ms = 0.0;
  LineageDpStats stats;
  std::uint64_t total_states = 0;
  for (auto _ : state) {
    for (ObjectId target : targets) {
      auto start = std::chrono::steady_clock::now();
      auto sky = LineageExactWithPreprocessing(data, target, prefs, {},
                                               &stats);
      elapsed_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      if (!sky.ok()) {
        state.SkipWithError(sky.status().ToString().c_str());
        return;
      }
      total_states += stats.states;
      Keep(sky.value());
    }
  }
  state.counters["per_target_ms"] =
      elapsed_ms / static_cast<double>(targets.size());
  state.counters["dp_states_per_target"] =
      static_cast<double>(total_states) /
      static_cast<double>(targets.size());
}

void BM_SubsetDfs_Uniform(benchmark::State& state) {
  // The same instances through Algorithm 1 (Det+, published form), with
  // the usual cutoff — expected to DNF beyond n ~ 25.
  Dataset data = GenerateUniform(
                     UniformConfig(static_cast<std::size_t>(state.range(0)), 5))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  auto solver = SkylineSolver::Create(data, prefs).value();
  std::vector<ObjectId> targets = SampleTargets(data.size(), 8);
  SolverOptions options;
  options.exact = PaperExactOptions();
  options.budget.time_limit_seconds =
      ExactCutoffSeconds() / static_cast<double>(targets.size());
  double elapsed_ms = 0.0;
  for (auto _ : state) {
    for (ObjectId target : targets) {
      auto start = std::chrono::steady_clock::now();
      auto sky = solver.Exact(target, options);
      elapsed_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      if (!sky.ok()) {
        state.counters["dnf"] = 1;
        state.SkipWithError(("cutoff: " + sky.status().ToString()).c_str());
        return;
      }
      Keep(sky.value());
    }
  }
  state.counters["per_target_ms"] =
      elapsed_ms / static_cast<double>(targets.size());
}

void BM_Lineage_BlockZipfGroups(benchmark::State& state) {
  // Little value sharing: the DP's state space approaches 2^(group size)
  // and the subset DFS is just as good — the honest complementary case.
  Dataset data = GenerateBlockZipf(BlockZipfConfig(
                     static_cast<std::size_t>(state.range(0)), 5))
                     .value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  std::vector<ObjectId> targets = SampleTargets(data.size(), 8);
  double elapsed_ms = 0.0;
  for (auto _ : state) {
    for (ObjectId target : targets) {
      auto start = std::chrono::steady_clock::now();
      auto sky = LineageExactWithPreprocessing(data, target, prefs);
      elapsed_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      if (!sky.ok()) {
        state.SkipWithError(sky.status().ToString().c_str());
        return;
      }
      Keep(sky.value());
    }
  }
  state.counters["per_target_ms"] =
      elapsed_ms / static_cast<double>(targets.size());
}

BENCHMARK(BM_Lineage_Uniform)
    ->Arg(20)->Arg(30)->Arg(40)->Arg(50)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_SubsetDfs_Uniform)
    ->Arg(20)->Arg(30)->Arg(40)->Arg(50)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Lineage_BlockZipfGroups)
    ->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Extension: lineage (Shannon-expansion) exact engine vs "
              "Algorithm 1 on dense uniform data ==\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Figure 10 — efficiency of the exact algorithms while varying
// dimensionality.
//
//   (a) Uniform, n = 50, d = 2..5: Det and Det+ (cutoff-limited, like the
//       paper's 10^4 s budget). Det+ shines at low d, where absorption
//       removes many candidates (fewer dimensions -> more full profile
//       matches).
//   (b) Block-zipf, n = 10k, d = 2..5: only Det+ is reported — the paper
//       notes Det cannot finish any of these within the budget; we still
//       attempt Det at d=2 to document the DNF.

#include <chrono>

#include "bench_util.h"

namespace {

using namespace skypref;
using namespace skypref::bench;

void RunExact(benchmark::State& state, const Dataset& data,
              const PreferenceModel& prefs, bool preprocess) {
  auto solver = SkylineSolver::Create(data, prefs).value();
  std::vector<ObjectId> targets =
      SampleTargets(data.size(), TargetCount(data.size()));
  SolverOptions options;
  options.preprocess = preprocess;
  options.exact = PaperExactOptions();
  options.budget.time_limit_seconds =
      ExactCutoffSeconds() / static_cast<double>(targets.size());

  double elapsed_ms = 0.0;
  std::uint64_t solves = 0;
  std::size_t absorbed_to = 0;
  for (auto _ : state) {
    for (ObjectId target : targets) {
      SolveStats stats;
      auto start = std::chrono::steady_clock::now();
      auto sky = solver.Exact(target, options, &stats);
      elapsed_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      ++solves;
      absorbed_to += stats.after_absorption;
      if (!sky.ok()) {
        state.counters["dnf"] = 1;
        state.SkipWithError(("cutoff: " + sky.status().ToString()).c_str());
        return;
      }
      Keep(sky.value());
    }
  }
  state.counters["per_target_ms"] = elapsed_ms / static_cast<double>(solves);
  state.counters["avg_candidates_after_absorption"] =
      static_cast<double>(absorbed_to) / static_cast<double>(solves);
}

void BM_Fig10a_Det_Uniform(benchmark::State& state) {
  Dataset data = GenerateUniform(
                     UniformConfig(50, static_cast<std::size_t>(state.range(0))))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  RunExact(state, data, prefs, /*preprocess=*/false);
}

void BM_Fig10a_DetPlus_Uniform(benchmark::State& state) {
  Dataset data = GenerateUniform(
                     UniformConfig(50, static_cast<std::size_t>(state.range(0))))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  RunExact(state, data, prefs, /*preprocess=*/true);
}

void BM_Fig10b_Det_BlockZipf(benchmark::State& state) {
  Dataset data =
      GenerateBlockZipf(
          BlockZipfConfig(10000, static_cast<std::size_t>(state.range(0))))
          .value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  RunExact(state, data, prefs, /*preprocess=*/false);
}

void BM_Fig10b_DetPlus_BlockZipf(benchmark::State& state) {
  Dataset data =
      GenerateBlockZipf(
          BlockZipfConfig(10000, static_cast<std::size_t>(state.range(0))))
          .value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  RunExact(state, data, prefs, /*preprocess=*/true);
}

BENCHMARK(BM_Fig10a_Det_Uniform)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig10a_DetPlus_Uniform)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig10b_Det_BlockZipf)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig10b_DetPlus_BlockZipf)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Figure 10: exact algorithms, running time vs d "
              "(uniform n=50; block-zipf n=10k; cutoff %.0fs) ==\n",
              skypref::bench::ExactCutoffSeconds());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

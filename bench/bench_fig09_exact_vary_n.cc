// Figure 9 — efficiency of the exact algorithms while varying the number
// of objects.
//
//   (a) Uniform, 5-d, n = 10..50: both Det and Det+ are exponential; the
//       paper reports neither finishes n > 50 within 10^4 s. Runs that
//       exceed the cutoff report the counter dnf=1 (did-not-finish) and
//       are skipped, mirroring the paper's missing points.
//   (b) Block-zipf, 5-d, n = 10..100k: Det dies early, but absorption +
//       partition let Det+ solve 10^5 objects (quick scale: 2*10^4).
//
// Reported per_target_ms is the wall time per target object, averaged
// over a fixed sample of targets — the paper's methodology (averages
// over up to 1000 objects).

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

  std::uint64_t subsets = 0;
  double elapsed_ms = 0.0;
  std::uint64_t solves = 0;
  for (auto _ : state) {
    for (ObjectId target : targets) {
      SolveStats stats;
      auto start = std::chrono::steady_clock::now();
      auto sky = solver.Exact(target, options, &stats);
      elapsed_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      subsets += stats.subsets_visited;
      ++solves;
      if (!sky.ok()) {
        state.counters["dnf"] = 1;
        state.SkipWithError(("cutoff: " + sky.status().ToString()).c_str());
        return;
      }
      Keep(sky.value());
    }
  }
  state.counters["targets"] = static_cast<double>(targets.size());
  state.counters["per_target_ms"] = elapsed_ms / static_cast<double>(solves);
  state.counters["subsets_per_target"] =
      static_cast<double>(subsets) / static_cast<double>(solves);
}

void BM_Fig09a_Det_Uniform(benchmark::State& state) {
  Dataset data = GenerateUniform(
                     UniformConfig(static_cast<std::size_t>(state.range(0)), 5))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  RunExact(state, data, prefs, /*preprocess=*/false);
}

void BM_Fig09a_DetPlus_Uniform(benchmark::State& state) {
  Dataset data = GenerateUniform(
                     UniformConfig(static_cast<std::size_t>(state.range(0)), 5))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  RunExact(state, data, prefs, /*preprocess=*/true);
}

void BM_Fig09b_Det_BlockZipf(benchmark::State& state) {
  Dataset data =
      GenerateBlockZipf(
          BlockZipfConfig(static_cast<std::size_t>(state.range(0)), 5))
          .value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  RunExact(state, data, prefs, /*preprocess=*/false);
}

void BM_Fig09b_DetPlus_BlockZipf(benchmark::State& state) {
  Dataset data =
      GenerateBlockZipf(
          BlockZipfConfig(static_cast<std::size_t>(state.range(0)), 5))
          .value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  RunExact(state, data, prefs, /*preprocess=*/true);
}

BENCHMARK(BM_Fig09a_Det_Uniform)
    ->Arg(10)->Arg(20)->Arg(30)->Arg(40)->Arg(50)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig09a_DetPlus_Uniform)
    ->Arg(10)->Arg(20)->Arg(30)->Arg(40)->Arg(50)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig09b_Det_BlockZipf)
    ->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig09b_DetPlus_BlockZipf)
    ->Arg(10)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Figure 9: exact algorithms, running time vs n "
              "(5-d; cutoff %.0fs per series point) ==\n",
              skypref::bench::ExactCutoffSeconds());
  // The largest block-zipf point scales with SKYPREF_BENCH_SCALE.
  benchmark::RegisterBenchmark("BM_Fig09b_DetPlus_BlockZipf_Max",
                               &BM_Fig09b_DetPlus_BlockZipf)
      ->Arg(skypref::bench::FullScale() ? 100000 : 20000)
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

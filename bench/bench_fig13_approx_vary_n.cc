// Figure 13 — efficiency of the approximate algorithms while varying the
// number of objects, with Det+ included as the reference series.
//
//   (a) Uniform, 5-d, n = 10..50: on small/dense data Det+ can beat the
//       sampling algorithms (a paper observation), since sampling always
//       pays the fixed 3000-world cost.
//   (b) Block-zipf, 5-d, n = 1k..100k (quick: 20k): sampling scales
//       linearly and wins as n grows.

#include <chrono>

#include "bench_util.h"

namespace {

using namespace skypref;
using namespace skypref::bench;

enum class Algo { kDetPlus, kSam, kSamPlus };

void RunTimed(benchmark::State& state, const Dataset& data,
              const PreferenceModel& prefs, Algo algo) {
  auto solver = SkylineSolver::Create(data, prefs).value();
  std::vector<ObjectId> targets =
      SampleTargets(data.size(), TargetCount(data.size()));

  SolverOptions options;
  options.preprocess = algo != Algo::kSam;
  options.monte_carlo.samples = 3000;
  options.exact = PaperExactOptions();
  // The cutoff bounds the Det+ series only; Sam and Sam+ run unbounded.
  if (algo == Algo::kDetPlus) {
    options.budget.time_limit_seconds =
        ExactCutoffSeconds() / static_cast<double>(targets.size());
  }

  double elapsed_ms = 0.0;
  std::uint64_t solves = 0;
  for (auto _ : state) {
    std::size_t i = 0;
    for (ObjectId target : targets) {
      options.monte_carlo.seed = 17 * i++ + 3;
      auto start = std::chrono::steady_clock::now();
      Result<double> sky = algo == Algo::kDetPlus
                               ? solver.Exact(target, options)
                               : solver.MonteCarlo(target, options);
      elapsed_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      ++solves;
      if (!sky.ok()) {
        state.counters["dnf"] = 1;
        state.SkipWithError(("cutoff: " + sky.status().ToString()).c_str());
        return;
      }
      Keep(sky.value());
    }
  }
  state.counters["per_target_ms"] = elapsed_ms / static_cast<double>(solves);
}

void BM_Fig13a_DetPlus_Uniform(benchmark::State& state) {
  Dataset data = GenerateUniform(
                     UniformConfig(static_cast<std::size_t>(state.range(0)), 5))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  RunTimed(state, data, prefs, Algo::kDetPlus);
}
void BM_Fig13a_Sam_Uniform(benchmark::State& state) {
  Dataset data = GenerateUniform(
                     UniformConfig(static_cast<std::size_t>(state.range(0)), 5))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  RunTimed(state, data, prefs, Algo::kSam);
}
void BM_Fig13a_SamPlus_Uniform(benchmark::State& state) {
  Dataset data = GenerateUniform(
                     UniformConfig(static_cast<std::size_t>(state.range(0)), 5))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  RunTimed(state, data, prefs, Algo::kSamPlus);
}

void BM_Fig13b_DetPlus_BlockZipf(benchmark::State& state) {
  Dataset data =
      GenerateBlockZipf(
          BlockZipfConfig(static_cast<std::size_t>(state.range(0)), 5))
          .value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  RunTimed(state, data, prefs, Algo::kDetPlus);
}
void BM_Fig13b_Sam_BlockZipf(benchmark::State& state) {
  Dataset data =
      GenerateBlockZipf(
          BlockZipfConfig(static_cast<std::size_t>(state.range(0)), 5))
          .value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  RunTimed(state, data, prefs, Algo::kSam);
}
void BM_Fig13b_SamPlus_BlockZipf(benchmark::State& state) {
  Dataset data =
      GenerateBlockZipf(
          BlockZipfConfig(static_cast<std::size_t>(state.range(0)), 5))
          .value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  RunTimed(state, data, prefs, Algo::kSamPlus);
}

BENCHMARK(BM_Fig13a_DetPlus_Uniform)
    ->Arg(10)->Arg(20)->Arg(30)->Arg(40)->Arg(50)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig13a_Sam_Uniform)
    ->Arg(10)->Arg(20)->Arg(30)->Arg(40)->Arg(50)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig13a_SamPlus_Uniform)
    ->Arg(10)->Arg(20)->Arg(30)->Arg(40)->Arg(50)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Figure 13: approximate algorithms (+ Det+ reference), "
              "running time vs n (5-d, 3000 samples) ==\n");
  const std::int64_t max_n = skypref::bench::FullScale() ? 100000 : 20000;
  for (auto [name, fn] :
       {std::pair<const char*, void (*)(benchmark::State&)>{
            "BM_Fig13b_DetPlus_BlockZipf", &BM_Fig13b_DetPlus_BlockZipf},
        {"BM_Fig13b_Sam_BlockZipf", &BM_Fig13b_Sam_BlockZipf},
        {"BM_Fig13b_SamPlus_BlockZipf", &BM_Fig13b_SamPlus_BlockZipf}}) {
    benchmark::RegisterBenchmark(name, fn)
        ->Arg(1000)->Arg(10000)->Arg(max_n)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

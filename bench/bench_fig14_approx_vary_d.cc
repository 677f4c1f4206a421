// Figure 14 — efficiency of the approximate algorithms (+ Det+ as the
// reference series) while varying dimensionality.
//
//   (a) Uniform, n = 50, d = 2..5
//   (b) Block-zipf, n = 10k, d = 2..5

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
      options.monte_carlo.seed = 13 * i++ + 5;
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

void BM_Fig14a_DetPlus_Uniform(benchmark::State& state) {
  Dataset data = GenerateUniform(
                     UniformConfig(50, static_cast<std::size_t>(state.range(0))))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  RunTimed(state, data, prefs, Algo::kDetPlus);
}
void BM_Fig14a_Sam_Uniform(benchmark::State& state) {
  Dataset data = GenerateUniform(
                     UniformConfig(50, static_cast<std::size_t>(state.range(0))))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  RunTimed(state, data, prefs, Algo::kSam);
}
void BM_Fig14a_SamPlus_Uniform(benchmark::State& state) {
  Dataset data = GenerateUniform(
                     UniformConfig(50, static_cast<std::size_t>(state.range(0))))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  RunTimed(state, data, prefs, Algo::kSamPlus);
}

void BM_Fig14b_DetPlus_BlockZipf(benchmark::State& state) {
  Dataset data =
      GenerateBlockZipf(
          BlockZipfConfig(10000, static_cast<std::size_t>(state.range(0))))
          .value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  RunTimed(state, data, prefs, Algo::kDetPlus);
}
void BM_Fig14b_Sam_BlockZipf(benchmark::State& state) {
  Dataset data =
      GenerateBlockZipf(
          BlockZipfConfig(10000, static_cast<std::size_t>(state.range(0))))
          .value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  RunTimed(state, data, prefs, Algo::kSam);
}
void BM_Fig14b_SamPlus_BlockZipf(benchmark::State& state) {
  Dataset data =
      GenerateBlockZipf(
          BlockZipfConfig(10000, static_cast<std::size_t>(state.range(0))))
          .value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  RunTimed(state, data, prefs, Algo::kSamPlus);
}

BENCHMARK(BM_Fig14a_DetPlus_Uniform)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig14a_Sam_Uniform)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig14a_SamPlus_Uniform)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig14b_DetPlus_BlockZipf)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig14b_Sam_BlockZipf)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig14b_SamPlus_BlockZipf)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Figure 14: approximate algorithms (+ Det+ reference), "
              "running time vs d (3000 samples) ==\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

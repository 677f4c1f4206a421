// Ablations of the engineering choices documented in DESIGN.md — not
// paper figures, but validation that each knob earns its place.
//
//   1. Zero-subtree pruning in the exact solver. With certain (0/1)
//      preferences many joint probabilities vanish; pruning skips their
//      supersets. Measured by subsets visited and time.
//   2. The sorted checking sequence in the Monte-Carlo estimator
//      (Algorithm 2 line 1): checking likely dominators first refutes
//      non-skyline worlds after fewer preference draws.
//   3. Lazy vs eager world sampling: lazy draws only the preferences a
//      world actually needs.
//   4. All-objects exact answers: a per-target Det+ loop against
//      BatchExactSkylineProbabilities (shared postings and pair-probability
//      table), both single-threaded; the two must agree bit for bit.
//   5. The single-target Sam engines (kSerial, kBlock, kBitSliced) on the
//      perfbench sam_uniform instance shape: Sam+ at epsilon = delta =
//      0.01 on 30 uniform objects, d = 5, inline and on a 3-worker pool.

#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_util.h"

namespace {

using namespace skypref;
using namespace skypref::bench;

void BM_Ablation_ExactPruning(benchmark::State& state) {
  const bool prune = state.range(0) != 0;
  Dataset data = GenerateUniform(UniformConfig(22, 4)).value();
  // Certain preferences: every pair is 0/1, so zero factors abound.
  HashedPreferenceModel prefs(11,
                              HashedPreferenceModel::Style::kCertainOrder);
  std::vector<ObjectId> candidates;
  for (ObjectId i = 1; i < data.size(); ++i) candidates.push_back(i);

  ExactOptions options;
  options.prune_zero = prune;
  ExactStats stats;
  double sky = 0.0;
  for (auto _ : state) {
    sky = ExactSkylineProbability(data, 0, candidates, DoubleOracle(prefs),
                                  options, &stats)
              .value();
    Keep(sky);
  }
  state.counters["subsets_visited"] =
      static_cast<double>(stats.subsets_visited);
  state.counters["sky"] = sky;
}

void RunSamKnob(benchmark::State& state, bool sorted, bool lazy) {
  Dataset data = GenerateBlockZipf(BlockZipfConfig(5000, 5)).value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  std::vector<ObjectId> targets = SampleTargets(data.size(), 4);

  MonteCarloOptions options;
  options.samples = 2000;
  options.sort_by_dominance = sorted;
  options.lazy = lazy;

  std::uint64_t pair_draws = 0;
  for (auto _ : state) {
    pair_draws = 0;
    std::size_t i = 0;
    for (ObjectId target : targets) {
      options.seed = 7 * i++ + 1;
      auto result =
          MonteCarloSkylineProbability(data, target, prefs, options).value();
      pair_draws += result.pair_draws;
      Keep(result.estimate);
    }
  }
  state.counters["pair_draws_per_world"] =
      static_cast<double>(pair_draws) /
      static_cast<double>(options.samples * targets.size());
}

void BM_Ablation_SamSorting(benchmark::State& state) {
  RunSamKnob(state, /*sorted=*/state.range(0) != 0, /*lazy=*/true);
}

void BM_Ablation_SamLaziness(benchmark::State& state) {
  RunSamKnob(state, /*sorted=*/true, /*lazy=*/state.range(0) != 0);
}

void BM_Ablation_BatchExact(benchmark::State& state) {
  const bool batch = state.range(0) != 0;
  Dataset data = GenerateBlockZipf(BlockZipfConfig(400, 3)).value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  SkylineSolver solver = SkylineSolver::Create(data, prefs).value();
  ThreadPool inline_pool(0);
  auto per_target = [&] {
    std::vector<double> out(data.size());
    for (ObjectId t = 0; t < data.size(); ++t) out[t] = solver.Exact(t).value();
    return out;
  };
  std::vector<double> answers;
  for (auto _ : state) {
    answers = batch ? BatchExactSkylineProbabilities(data, prefs, inline_pool)
                          .value()
                    : per_target();
    Keep(answers);
  }
  // Outside the timed loop: the batch must reproduce Det+ bit for bit.
  if (batch && answers != per_target()) {
    state.SkipWithError("batch answers differ from the per-target loop");
  }
  state.counters["targets_per_s"] =
      benchmark::Counter(static_cast<double>(data.size()),
                         benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Ablation_SamEngines(benchmark::State& state) {
  const auto engine = static_cast<MonteCarloOptions::Engine>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  Dataset data = GenerateUniform(UniformConfig(30, 5)).value();
  HashedPreferenceModel prefs = PaperPreferences();
  SkylineSolver solver = SkylineSolver::Create(data, prefs).value();
  ThreadPool pool(threads);
  SolverOptions options;
  options.monte_carlo.epsilon = 0.01;
  options.monte_carlo.delta = 0.01;
  options.monte_carlo.engine = engine;
  double mean = 0.0;
  for (auto _ : state) {
    mean = 0.0;
    for (ObjectId target = 0; target < data.size(); ++target) {
      options.monte_carlo.seed = target + 1;
      mean += solver.MonteCarlo(target, options, pool).value();
    }
    mean /= static_cast<double>(data.size());
    Keep(mean);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["queries_per_s"] =
      benchmark::Counter(static_cast<double>(data.size()),
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["mean_estimate"] = mean;
}

BENCHMARK(BM_Ablation_ExactPruning)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Ablation_SamSorting)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Ablation_SamLaziness)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Ablation_BatchExact)
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
// Args: engine (0 kSerial, 1 kBlock, 2 kBitSliced), pool workers.
BENCHMARK(BM_Ablation_SamEngines)
    ->ArgsProduct({{0, 1, 2}, {0, 3}})
    ->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Ablations: exact-solver pruning (arg=1 on), Sam sorted "
              "checking sequence, Sam lazy sampling, batch vs per-target "
              "exact (arg=1 batch), Sam engines (engine, pool workers) ==\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

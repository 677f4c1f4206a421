// Figure 15 — evaluation on the real data set (UCI Nursery, regenerated
// as the full Cartesian product it is; see DESIGN.md §5).
//
//   (a) running time of Det+, Sam, Sam+ at d = 4 and d = 8
//   (b) absolute error of Sam and Sam+ against Det+
//
// The paper's observations reproduced here: Det is hopeless (omitted
// there, DNF'd here), while Det+ remains fast despite the exponential
// worst case because absorption collapses the full-product dataset to a
// handful of per-dimension rivals.

#include <chrono>
#include <cmath>

#include "bench_util.h"

namespace {

using namespace skypref;
using namespace skypref::bench;

enum class Algo { kDet, kDetPlus, kSam, kSamPlus };

void RunNursery(benchmark::State& state, Algo algo) {
  NurseryVariant nursery =
      GenerateNurseryProjection(static_cast<std::size_t>(state.range(0)))
          .value();
  const Dataset& data = nursery.dataset;
  HashedPreferenceModel prefs = PaperPreferences();
  auto solver = SkylineSolver::Create(data, prefs).value();
  std::vector<ObjectId> targets =
      SampleTargets(data.size(), TargetCount(data.size()));

  SolverOptions options;
  options.preprocess = algo == Algo::kDetPlus || algo == Algo::kSamPlus;
  options.monte_carlo.samples = 3000;
  // The cutoff bounds the Det and Det+ series only; Sam and Sam+ run
  // unbounded.
  if (algo == Algo::kDet || algo == Algo::kDetPlus) {
    options.budget.time_limit_seconds =
        ExactCutoffSeconds() / static_cast<double>(targets.size());
  }

  // Exact reference for the error series (always feasible via Det+).
  std::vector<double> reference;
  if (algo == Algo::kSam || algo == Algo::kSamPlus) {
    SolverOptions det_plus;
    for (ObjectId target : targets) {
      reference.push_back(solver.Exact(target, det_plus).value());
    }
  }

  double elapsed_ms = 0.0;
  double sum_error = 0.0;
  double max_error = 0.0;
  std::uint64_t solves = 0;
  for (auto _ : state) {
    std::size_t i = 0;
    for (ObjectId target : targets) {
      options.monte_carlo.seed = 101 * i + 7;
      auto start = std::chrono::steady_clock::now();
      Result<double> sky =
          (algo == Algo::kDet || algo == Algo::kDetPlus)
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
      if (!reference.empty()) {
        double error = std::abs(sky.value() - reference[i]);
        sum_error += error;
        max_error = std::max(max_error, error);
      }
      ++i;
    }
  }
  state.counters["per_target_ms"] = elapsed_ms / static_cast<double>(solves);
  if (!reference.empty()) {
    state.counters["avg_abs_error"] =
        sum_error / static_cast<double>(solves);
    state.counters["max_abs_error"] = max_error;
  }
}

void BM_Fig15_Det(benchmark::State& state) { RunNursery(state, Algo::kDet); }
void BM_Fig15_DetPlus(benchmark::State& state) {
  RunNursery(state, Algo::kDetPlus);
}
void BM_Fig15_Sam(benchmark::State& state) { RunNursery(state, Algo::kSam); }
void BM_Fig15_SamPlus(benchmark::State& state) {
  RunNursery(state, Algo::kSamPlus);
}

// d=4 is the 240-object distinct projection; d=8 the full 12,960 objects.
BENCHMARK(BM_Fig15_Det)->Arg(4)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig15_DetPlus)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig15_Sam)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Fig15_SamPlus)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Figure 15: real data (Nursery), running time and "
              "absolute error at d=4 and d=8 ==\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

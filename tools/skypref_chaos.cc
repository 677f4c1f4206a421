// skypref_chaos — seeded chaos sweep over the solver stack.
//
//   skypref_chaos [--schedules=N] [--seed=S] [--objects=N] [--dims=D]
//                 [--values=V] [--threads=0,1,2,8] [--watchdog-seconds=T]
//                 [--json=FILE]
//
// For every (engine, thread count, schedule) triple the driver arms EVERY
// registered failpoint site with a schedule derived from one 64-bit seed
// (failpoint::ArmSeededSchedule), runs the engine over a fixed seeded
// instance, and asserts the robustness invariants:
//
//  * survivors are bit-identical to the fault-free baseline run (and the
//    baseline itself matches the exact-rational referee);
//  * every casualty carries a well-formed non-OK Status — no silent NaN,
//    no bogus value, no process death (armed kAllocFail included);
//  * truncated / degraded estimates stay inside (twice) their published
//    error bars, which still contain the rational-referee truth;
//  * teardown leaves no armed site behind.
//
// Engines swept: the batch exact solver (kFlat), the two deterministic
// Sam engines (kBlock, kBitSliced), and the resilient ladder. A hang
// watchdog aborts — after printing the offending schedule seed — if no
// run makes progress for --watchdog-seconds, so a deadlock shaken loose
// by kSpuriousWake or kDelay fails fast instead of wedging CI. Every
// failure message prints the schedule seed; re-running with --seed and
// --schedules reproduces the exact same arming.
//
// With failpoints compiled out (release presets) the sweep still runs,
// but every schedule is a no-op: the tool says so and the JSON carries
// failpoints_compiled_in=false.

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/dominance.h"
#include "src/core/resilient.h"
#include "src/core/sam_bitslice.h"
#include "src/core/sam_parallel.h"
#include "src/core/solver.h"
#include "src/model/preference_model.h"
#include "src/util/failpoint.h"
#include "src/util/hash.h"
#include "src/util/random.h"

namespace {

using namespace skypref;

// ------------------------------------------------------------------ CLI

struct Args {
  std::map<std::string, std::string> flags;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      std::exit(2);
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      args.flags[arg] = "true";
    } else {
      args.flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return args;
}

std::int64_t IntFlagOr(const Args& args, const std::string& key,
                       std::int64_t fallback) {
  auto it = args.flags.find(key);
  return it == args.flags.end() ? fallback : std::atoll(it->second.c_str());
}

std::string FlagOr(const Args& args, const std::string& key,
                   const std::string& fallback) {
  auto it = args.flags.find(key);
  return it == args.flags.end() ? fallback : it->second;
}

std::vector<std::size_t> ParseThreadList(const std::string& spec) {
  std::vector<std::size_t> threads;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    if (comma > pos) {
      threads.push_back(
          static_cast<std::size_t>(std::atoll(spec.substr(pos, comma - pos).c_str())));
    }
    pos = comma + 1;
  }
  return threads;
}

// ------------------------------------------------- watchdog + reporting

std::atomic<std::uint64_t> g_progress{0};
std::atomic<std::uint64_t> g_watchdog_trips{0};

// Context for failure messages and the watchdog report. Only the main
// thread writes it, and only between runs; the watchdog reads it after a
// stall, when the main thread is by definition stuck inside a run.
char g_context[256] = "startup";

void SetContext(const char* engine, std::size_t threads, std::uint64_t index,
                std::uint64_t schedule_seed) {
  std::snprintf(g_context, sizeof(g_context),
                "engine=%s threads=%zu schedule=%" PRIu64
                " schedule_seed=0x%016" PRIx64,
                engine, threads, index, schedule_seed);
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "skypref_chaos FAILED [%s]: %s\n", g_context,
               message.c_str());
  std::exit(1);
}

// ------------------------------------------------------------ instance

Dataset ChaosDataset(std::uint64_t seed, std::size_t objects,
                     std::size_t dimensions, ValueId values) {
  std::uint64_t capacity = 1;
  for (std::size_t j = 0; j < dimensions && capacity < objects; ++j) {
    capacity *= values;
  }
  if (capacity < objects) {
    std::fprintf(stderr, "value universe too small for %zu distinct rows\n",
                 objects);
    std::exit(2);
  }
  Rng rng(seed);
  Dataset data(dimensions);
  std::set<std::vector<ValueId>> seen;
  std::vector<ValueId> row(dimensions);
  while (data.size() < objects) {
    for (auto& v : row) v = static_cast<ValueId>(rng.NextBounded(values));
    if (!seen.insert(row).second) continue;
    data.Append(row).CheckOK();
  }
  return data;
}

/// Denominator-16 rational preferences over the full value universe: the
/// SAME instance feeds the double solvers (PreferenceModel rounds each
/// rational) and the exact-rational referee, so referee truths are
/// truths about exactly the probabilities the solvers saw.
RationalPreferenceModel ChaosModel(std::uint64_t seed, const Dataset& data) {
  RationalPreferenceModel model;
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    const ValueId bound = data.value_bound(j);
    for (ValueId a = 0; a < bound; ++a) {
      for (ValueId b = a + 1; b < bound; ++b) {
        const std::uint64_t mix =
            HashMix(seed ^ (static_cast<std::uint64_t>(j) << 40) ^
                    (static_cast<std::uint64_t>(a) << 20) ^ b);
        const std::int64_t k = 1 + static_cast<std::int64_t>(mix % 15);
        model
            .Set(j, a, b, Rational(BigInt(k), BigInt(16)),
                 Rational(BigInt(16 - k), BigInt(16)))
            .CheckOK();
      }
    }
  }
  return model;
}

// ------------------------------------------------------------- engines

enum class EngineKind { kFlat, kBlock, kBitSliced, kResilient };

const char* EngineName(EngineKind e) {
  switch (e) {
    case EngineKind::kFlat: return "flat";
    case EngineKind::kBlock: return "block";
    case EngineKind::kBitSliced: return "bitsliced";
    case EngineKind::kResilient: return "resilient";
  }
  return "?";
}

constexpr double kSamplerDelta = 1e-6;

/// One run's per-target outcome, engine-agnostic.
struct RunOutcome {
  std::vector<double> value;       // NaN for casualties
  std::vector<Status> status;      // non-OK for casualties
  std::vector<bool> truncated;     // sam engines
  std::vector<std::uint64_t> achieved;  // sam engines: worlds drawn
  std::vector<double> epsilon;     // resilient: recombined bar
  std::vector<bool> exact_quality; // resilient: answered by rung 1
  std::uint64_t retried = 0;
  std::uint64_t salvaged = 0;
  std::uint64_t degraded = 0;
};

SolverOptions ExactBatchOptions() {
  SolverOptions options;
  options.exact.max_subsets = 20000;
  return options;
}

MonteCarloOptions SamOptions(ObjectId target) {
  MonteCarloOptions mc;
  mc.samples = 2048;
  mc.block_size = 256;  // multiple of 64 for the bit-sliced engine
  mc.seed = HashMix(0xc4a05eedULL ^ target);
  return mc;
}

RunOutcome RunEngine(EngineKind engine, const Dataset& data,
                     const RationalPreferenceModel& model, ThreadPool& pool) {
  const std::size_t n = data.size();
  RunOutcome out;
  out.value.assign(n, 0.0);
  out.status.assign(n, Status::OK());
  out.truncated.assign(n, false);
  out.achieved.assign(n, 0);
  out.epsilon.assign(n, 0.0);
  out.exact_quality.assign(n, true);
  switch (engine) {
    case EngineKind::kFlat: {
      BatchExactStats stats;
      auto result = BatchExactSkylineProbabilities(data, model, pool,
                                                   ExactBatchOptions(), &stats);
      if (!result.ok()) Fail("batch call failed: " + result.status().ToString());
      out.value = std::move(result).value();
      out.status = stats.target_status;
      out.retried = stats.retried_targets;
      out.salvaged = stats.salvaged_targets;
      break;
    }
    case EngineKind::kBlock:
    case EngineKind::kBitSliced: {
      for (ObjectId t = 0; t < n; ++t) {
        const std::vector<ObjectId> candidates = AllObjectsExcept(n, t);
        auto result =
            engine == EngineKind::kBlock
                ? BlockMonteCarloSkylineProbability(data, t, candidates, model,
                                                    pool, SamOptions(t))
                : BitSlicedMonteCarloSkylineProbability(
                      data, t, candidates, model, pool, SamOptions(t));
        if (result.ok()) {
          out.value[t] = result->estimate;
          out.truncated[t] = result->truncated;
          out.achieved[t] = result->samples;
        } else {
          out.value[t] = std::nan("");
          out.status[t] = result.status();
        }
      }
      break;
    }
    case EngineKind::kResilient: {
      ResilientOptions options;
      options.solver = ExactBatchOptions();
      options.solver.monte_carlo.epsilon = 0.05;
      options.solver.monte_carlo.delta = kSamplerDelta;
      auto result = ResilientBatchSkylineProbabilities(data, model, pool,
                                                       options);
      if (!result.ok()) {
        Fail("resilient batch failed: " + result.status().ToString());
      }
      out.value = result->estimates;
      out.epsilon = result->epsilons;
      out.degraded = result->degraded_targets;
      out.retried = result->batch_stats.retried_targets;
      out.salvaged = result->batch_stats.salvaged_targets;
      for (ObjectId t = 0; t < n; ++t) {
        out.exact_quality[t] = result->quality[t] == GroupQuality::kExact;
      }
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------- assertions

bool BitIdentical(double a, double b) {
  std::uint64_t ab = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

std::string TargetTag(ObjectId t) { return "target " + std::to_string(t); }

/// Baseline sanity: fault-free, and consistent with the referee truth.
void CheckBaseline(EngineKind engine, const RunOutcome& base,
                   const std::vector<double>& truth) {
  const std::size_t n = truth.size();
  for (ObjectId t = 0; t < n; ++t) {
    if (!base.status[t].ok()) {
      Fail("fault-free baseline failed " + TargetTag(t) + ": " +
           base.status[t].ToString());
    }
    switch (engine) {
      case EngineKind::kFlat:
      case EngineKind::kResilient:
        // Exact values: referee agreement up to double rounding of the
        // per-group product recombination.
        if (std::fabs(base.value[t] - truth[t]) > 1e-9) {
          Fail("baseline disagrees with rational referee at " + TargetTag(t));
        }
        break;
      case EngineKind::kBlock:
      case EngineKind::kBitSliced: {
        // Statistical agreement at twice the Hoeffding bar (miss
        // probability <= kSamplerDelta^4 per target — not flaky).
        const double bar =
            2.0 * HoeffdingEpsilon(base.achieved[t], kSamplerDelta);
        if (base.truncated[t]) {
          Fail("fault-free sam baseline truncated at " + TargetTag(t));
        }
        if (std::fabs(base.value[t] - truth[t]) > bar) {
          Fail("sam baseline outside 2x Hoeffding bar at " + TargetTag(t));
        }
        break;
      }
    }
  }
}

/// The chaos invariants of one faulted run against its baseline.
void CheckRun(EngineKind engine, const RunOutcome& run, const RunOutcome& base,
              const std::vector<double>& truth, std::uint64_t* casualties,
              std::uint64_t* truncated_runs) {
  const std::size_t n = truth.size();
  for (ObjectId t = 0; t < n; ++t) {
    if (!run.status[t].ok()) {
      // Casualty: well-formed Status and a NaN slot, never a bogus value.
      ++*casualties;
      if (run.status[t].message().empty()) {
        Fail("casualty with empty status message at " + TargetTag(t));
      }
      if (engine != EngineKind::kResilient && !std::isnan(run.value[t])) {
        Fail("casualty with non-NaN value at " + TargetTag(t));
      }
      continue;
    }
    if (std::isnan(run.value[t])) {
      Fail("OK status but NaN value at " + TargetTag(t));
    }
    switch (engine) {
      case EngineKind::kFlat:
        if (!BitIdentical(run.value[t], base.value[t])) {
          Fail("survivor not bit-identical to baseline at " + TargetTag(t));
        }
        break;
      case EngineKind::kBlock:
      case EngineKind::kBitSliced:
        if (!run.truncated[t]) {
          if (!BitIdentical(run.value[t], base.value[t])) {
            Fail("untruncated sam estimate not bit-identical at " +
                 TargetTag(t));
          }
        } else {
          ++*truncated_runs;
          if (run.achieved[t] == 0) {
            Fail("truncated sam run with zero samples at " + TargetTag(t));
          }
          const double bar =
              2.0 * HoeffdingEpsilon(run.achieved[t], kSamplerDelta);
          if (bar < 0.5 && std::fabs(run.value[t] - truth[t]) > bar) {
            Fail("truncated sam estimate outside 2x Hoeffding bar at " +
                 TargetTag(t));
          }
        }
        break;
      case EngineKind::kResilient:
        if (run.exact_quality[t]) {
          if (!BitIdentical(run.value[t], base.value[t])) {
            Fail("exact-quality resilient target not bit-identical at " +
                 TargetTag(t));
          }
        } else {
          // Degraded target: the published bar must contain the referee
          // truth (asserted at 2x; miss probability <= delta^4).
          if (std::fabs(run.value[t] - truth[t]) >
              2.0 * run.epsilon[t] + 1e-9) {
            Fail("degraded resilient target outside its error bar at " +
                 TargetTag(t));
          }
        }
        break;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::uint64_t schedules =
      static_cast<std::uint64_t>(IntFlagOr(args, "schedules", 32));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(IntFlagOr(args, "seed", 20260809));
  const std::size_t objects =
      static_cast<std::size_t>(IntFlagOr(args, "objects", 12));
  const std::size_t dims = static_cast<std::size_t>(IntFlagOr(args, "dims", 3));
  const ValueId values = static_cast<ValueId>(IntFlagOr(args, "values", 4));
  const std::int64_t watchdog_seconds =
      IntFlagOr(args, "watchdog-seconds", 120);
  const std::string json_path = FlagOr(args, "json", "");
  const std::vector<std::size_t> thread_counts =
      ParseThreadList(FlagOr(args, "threads", "0,1,2,8"));

#if defined(SKYPREF_FAILPOINTS) && SKYPREF_FAILPOINTS
  const bool failpoints_on = true;
#else
  const bool failpoints_on = false;
  std::fprintf(stderr,
               "note: failpoints compiled out (SKYPREF_FAILPOINTS off); "
               "schedules arm but inject nothing\n");
#endif

  std::printf("skypref_chaos: seed=%" PRIu64 " schedules=%" PRIu64
              " objects=%zu dims=%zu values=%u\n",
              seed, schedules, objects, dims, values);

  const Dataset data = ChaosDataset(HashMix(seed ^ 0xda7a5e7ULL), objects,
                                    dims, values);
  const RationalPreferenceModel model =
      ChaosModel(HashMix(seed ^ 0x10de1ULL), data);

  // Referee truths in exact rational arithmetic, BEFORE any arming.
  std::vector<double> truth(data.size());
  for (ObjectId t = 0; t < data.size(); ++t) {
    auto exact = ExactSkylineProbabilityRational(data, t, model,
                                                 /*preprocess=*/true);
    exact.status().CheckOK();
    truth[t] = exact->ToDouble();
  }

  // Hang watchdog: abort (after naming the wedged schedule) if no run
  // finishes for watchdog_seconds. Progress is the run counter.
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog([&] {
    std::uint64_t last = g_progress.load(std::memory_order_relaxed);
    auto last_change = std::chrono::steady_clock::now();
    while (!watchdog_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const std::uint64_t now = g_progress.load(std::memory_order_relaxed);
      if (now != last) {
        last = now;
        last_change = std::chrono::steady_clock::now();
        continue;
      }
      const auto stalled = std::chrono::steady_clock::now() - last_change;
      if (stalled > std::chrono::seconds(watchdog_seconds)) {
        g_watchdog_trips.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "skypref_chaos WATCHDOG: no progress in %llds [%s]\n",
                     static_cast<long long>(watchdog_seconds), g_context);
        std::abort();
      }
    }
  });

  const EngineKind engines[] = {EngineKind::kFlat, EngineKind::kBlock,
                                EngineKind::kBitSliced,
                                EngineKind::kResilient};

  std::uint64_t runs = 0;
  std::uint64_t casualties = 0;
  std::uint64_t truncated_runs = 0;
  std::uint64_t retried = 0;
  std::uint64_t salvaged = 0;
  std::uint64_t degraded = 0;
  std::uint64_t schedules_armed = 0;
  const std::uint64_t fired_before = failpoint::FiredCount();

  for (std::size_t threads : thread_counts) {
    ThreadPool pool(threads);
    for (EngineKind engine : engines) {
      failpoint::DisarmAll();
      SetContext(EngineName(engine), threads, ~0ULL, 0);
      const RunOutcome base = RunEngine(engine, data, model, pool);
      CheckBaseline(engine, base, truth);
      g_progress.fetch_add(1, std::memory_order_relaxed);

      for (std::uint64_t i = 0; i < schedules; ++i) {
        const std::uint64_t schedule_seed = HashMix(seed + i);
        SetContext(EngineName(engine), threads, i, schedule_seed);
        schedules_armed += failpoint::ArmSeededSchedule(schedule_seed);
        const RunOutcome run = RunEngine(engine, data, model, pool);
        failpoint::DisarmAll();
        if (failpoint::ArmedCount() != 0) {
          Fail("armed sites leaked after teardown");
        }
        CheckRun(engine, run, base, truth, &casualties, &truncated_runs);
        retried += run.retried;
        salvaged += run.salvaged;
        degraded += run.degraded;
        ++runs;
        g_progress.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  const std::uint64_t faults_injected = failpoint::FiredCount() - fired_before;
  watchdog_stop.store(true, std::memory_order_relaxed);
  watchdog.join();

  std::printf("skypref_chaos OK: runs=%" PRIu64 " faults_injected=%" PRIu64
              " casualties=%" PRIu64 " retried=%" PRIu64 " salvaged=%" PRIu64
              " degraded=%" PRIu64 " truncated=%" PRIu64 " watchdog_trips=%" PRIu64
              "\n",
              runs, faults_injected, casualties, retried, salvaged, degraded,
              truncated_runs, g_watchdog_trips.load());

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"seed\": %" PRIu64 ",\n"
                 "  \"schedules\": %" PRIu64 ",\n"
                 "  \"schedules_armed\": %" PRIu64 ",\n"
                 "  \"runs\": %" PRIu64 ",\n"
                 "  \"faults_injected\": %" PRIu64 ",\n"
                 "  \"casualties\": %" PRIu64 ",\n"
                 "  \"retried_targets\": %" PRIu64 ",\n"
                 "  \"salvaged_targets\": %" PRIu64 ",\n"
                 "  \"degraded_targets\": %" PRIu64 ",\n"
                 "  \"truncated_runs\": %" PRIu64 ",\n"
                 "  \"watchdog_trips\": %" PRIu64 ",\n"
                 "  \"failpoints_compiled_in\": %s\n"
                 "}\n",
                 seed, schedules, schedules_armed, runs, faults_injected,
                 casualties, retried, salvaged, degraded, truncated_runs,
                 g_watchdog_trips.load(), failpoints_on ? "true" : "false");
    std::fclose(out);
  }
  return 0;
}

// skyprob — command-line front end for the skypref library.
//
//   skyprob generate --kind=uniform|blockzipf|nursery [options] --out=FILE
//   skyprob solve --data=FILE [--prefs=FILE | --pref-seed=N]
//                 --target=N [--algo=det|det+|sam|sam+|sac|adaptive|bounds]
//   skyprob skyline --data=FILE --tau=T [--method=exact|sample]
//   skyprob topk --data=FILE --k=K [--method=race|sample]
//   skyprob skycube --data=FILE --target=N
//   skyprob inspect --data=FILE --target=N
//
// Datasets are CSV with a header of dimension names (see io/dataset_io.h);
// preferences are either an explicit preference CSV or an implicit hashed
// model derived from --pref-seed.
//
// Exit codes: 0 success; 1 a failed call (unreadable or malformed input,
// an out-of-range target, a failed solve), with its Status on stderr;
// 2 a usage error.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/io/csv.h"
#include "src/skypref.h"
#include "src/util/strings.h"

namespace {

using namespace skypref;

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      std::exit(2);
    }
    arg.remove_prefix(2);
    std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      args.flags[std::string(arg)] = "true";
    } else {
      args.flags[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    }
  }
  return args;
}

std::string FlagOr(const Args& args, const std::string& key,
                   const std::string& fallback) {
  auto it = args.flags.find(key);
  return it == args.flags.end() ? fallback : it->second;
}

std::int64_t IntFlagOr(const Args& args, const std::string& key,
                       std::int64_t fallback) {
  auto it = args.flags.find(key);
  if (it == args.flags.end()) return fallback;
  auto parsed = ParseInt64(it->second);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad integer for --%s: %s\n", key.c_str(),
                 it->second.c_str());
    std::exit(2);
  }
  return parsed.value();
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  skyprob generate --kind=uniform|blockzipf|nursery --out=FILE\n"
      "                   [--objects=N] [--dims=D] [--values=V]\n"
      "                   [--block-size=B] [--seed=S]\n"
      "  skyprob solve    --data=FILE --target=N\n"
      "                   [--prefs=FILE | --pref-seed=S]\n"
      "                   [--algo=det|det+|sam|sam+|sac]\n"
      "                   [--epsilon=E] [--delta=D] [--samples=M] "
      "[--seed=S]\n"
      "  skyprob skyline  --data=FILE --tau=T [--method=exact|sample]\n"
      "  skyprob topk     --data=FILE --k=K [--method=race|sample]\n"
      "  skyprob skycube  --data=FILE --target=N\n"
      "  skyprob inspect  --data=FILE --target=N\n");
  return 2;
}

Result<Domain> SyntheticDomain(const Dataset& data) {
  Domain domain(data.dimensions());
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    for (ValueId v = 0; v < data.value_bound(j); ++v) {
      std::string value_name = "v";
      value_name += std::to_string(v);
      SKYPREF_RETURN_IF_ERROR(domain.InternValue(j, value_name).status());
    }
  }
  return domain;
}

// Each command returns its exit code, or the Status of the first call
// that failed; Exit turns that Status into exit code 1.
Result<int> RunGenerate(const Args& args) {
  std::string kind = FlagOr(args, "kind", "uniform");
  std::string out = FlagOr(args, "out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate requires --out=FILE\n");
    return 2;
  }
  Dataset data(1);
  Domain domain(std::size_t{1});
  if (kind == "uniform") {
    UniformOptions options;
    options.objects = static_cast<std::size_t>(IntFlagOr(args, "objects", 50));
    options.dimensions = static_cast<std::size_t>(IntFlagOr(args, "dims", 5));
    options.values_per_dimension =
        static_cast<ValueId>(IntFlagOr(args, "values", 10));
    options.seed = static_cast<std::uint64_t>(IntFlagOr(args, "seed", 1));
    SKYPREF_ASSIGN_OR_RETURN(data, GenerateUniform(options));
    SKYPREF_ASSIGN_OR_RETURN(domain, SyntheticDomain(data));
  } else if (kind == "blockzipf") {
    BlockZipfOptions options;
    options.objects =
        static_cast<std::size_t>(IntFlagOr(args, "objects", 1000));
    options.dimensions = static_cast<std::size_t>(IntFlagOr(args, "dims", 5));
    options.block_size =
        static_cast<std::size_t>(IntFlagOr(args, "block-size", 12));
    options.values_per_block =
        static_cast<ValueId>(IntFlagOr(args, "values", 6));
    options.seed = static_cast<std::uint64_t>(IntFlagOr(args, "seed", 1));
    SKYPREF_ASSIGN_OR_RETURN(data, GenerateBlockZipf(options));
    SKYPREF_ASSIGN_OR_RETURN(domain, SyntheticDomain(data));
  } else if (kind == "nursery") {
    SKYPREF_ASSIGN_OR_RETURN(
        NurseryVariant nursery,
        GenerateNurseryProjection(
            static_cast<std::size_t>(IntFlagOr(args, "dims", 8))));
    data = std::move(nursery.dataset);
    domain = std::move(nursery.domain);
  } else {
    std::fprintf(stderr, "unknown --kind=%s\n", kind.c_str());
    return 2;
  }
  if (FlagOr(args, "format", "csv") == "binary" ||
      (out.size() > 5 && out.compare(out.size() - 5, 5, ".skyd") == 0)) {
    SKYPREF_RETURN_IF_ERROR(SaveDatasetBinary(out, data));
  } else {
    SKYPREF_RETURN_IF_ERROR(SaveDatasetFile(out, data, domain));
  }
  std::printf("wrote %zu objects x %zu dims to %s\n", data.size(),
              data.dimensions(), out.c_str());
  return 0;
}

struct LoadedInstance {
  LoadedDataset loaded;
  TablePreferenceModel table_prefs;
  HashedPreferenceModel hashed_prefs{1,
                                     HashedPreferenceModel::Style::kTotalUniform};
  bool use_table = false;

  const PreferenceModel& prefs() const {
    if (use_table) return table_prefs;
    return hashed_prefs;
  }
};

Result<LoadedInstance> LoadInstance(const Args& args) {
  LoadedInstance instance;
  std::string data_path = FlagOr(args, "data", "");
  if (data_path.empty()) {
    std::fprintf(stderr, "missing --data=FILE\n");
    std::exit(2);
  }
  if (data_path.size() > 5 &&
      data_path.compare(data_path.size() - 5, 5, ".skyd") == 0) {
    SKYPREF_ASSIGN_OR_RETURN(instance.loaded.dataset,
                             LoadDatasetBinary(data_path));
    SKYPREF_ASSIGN_OR_RETURN(instance.loaded.domain,
                             SyntheticDomain(instance.loaded.dataset));
  } else {
    SKYPREF_ASSIGN_OR_RETURN(instance.loaded, LoadDatasetFile(data_path));
  }

  std::string prefs_path = FlagOr(args, "prefs", "");
  if (!prefs_path.empty()) {
    SKYPREF_ASSIGN_OR_RETURN(std::string contents, ReadFile(prefs_path));
    SKYPREF_ASSIGN_OR_RETURN(
        instance.table_prefs,
        PreferencesFromCsv(contents, instance.loaded.domain));
    instance.use_table = true;
  } else {
    instance.hashed_prefs = HashedPreferenceModel(
        static_cast<std::uint64_t>(IntFlagOr(args, "pref-seed", 1)),
        HashedPreferenceModel::Style::kTotalUniform);
  }
  return instance;
}

Result<int> RunSolve(const Args& args) {
  SKYPREF_ASSIGN_OR_RETURN(LoadedInstance instance, LoadInstance(args));
  ObjectId target = static_cast<ObjectId>(IntFlagOr(args, "target", 0));
  std::string algo = FlagOr(args, "algo", "det+");

  SKYPREF_ASSIGN_OR_RETURN(
      SkylineSolver solver,
      SkylineSolver::Create(instance.loaded.dataset, instance.prefs()));

  SolverOptions options;
  options.preprocess = algo == "det+" || algo == "sam+";
  options.monte_carlo.epsilon =
      std::atof(FlagOr(args, "epsilon", "0.01").c_str());
  options.monte_carlo.delta = std::atof(FlagOr(args, "delta", "0.01").c_str());
  options.monte_carlo.samples =
      static_cast<std::uint64_t>(IntFlagOr(args, "samples", 0));
  options.monte_carlo.seed =
      static_cast<std::uint64_t>(IntFlagOr(args, "seed", 42));

  Result<double> sky = Status::Internal("unset");
  SolveStats stats;
  if (algo == "det" || algo == "det+") {
    sky = solver.Exact(target, options, &stats);
  } else if (algo == "sam" || algo == "sam+") {
    sky = solver.MonteCarlo(target, options, &stats);
  } else if (algo == "sac") {
    sky = solver.Independent(target);
  } else if (algo == "adaptive") {
    AdaptiveOptions adaptive;
    adaptive.epsilon = options.monte_carlo.epsilon;
    adaptive.delta = options.monte_carlo.delta;
    adaptive.seed = options.monte_carlo.seed;
    SKYPREF_ASSIGN_OR_RETURN(
        AdaptiveResult result,
        AdaptiveMonteCarloSkylineProbability(instance.loaded.dataset, target,
                                             instance.prefs(), adaptive));
    std::printf("sky(object %zu) = %.6g +- %.4g   [adaptive, %llu samples%s]\n",
                target, result.estimate, result.radius,
                static_cast<unsigned long long>(result.samples),
                result.hit_cap ? ", hit Hoeffding cap" : "");
    return 0;
  } else if (algo == "bounds") {
    BoundsOptions bounds_options;
    bounds_options.max_level =
        static_cast<std::size_t>(IntFlagOr(args, "max-level", 3));
    SKYPREF_ASSIGN_OR_RETURN(
        SkylineBounds bounds,
        BoundedSkylineProbabilityPreprocessed(instance.loaded.dataset, target,
                                              instance.prefs(),
                                              bounds_options));
    std::printf("sky(object %zu) in [%.6g, %.6g]   [certified, level %zu, "
                "%llu terms%s]\n",
                target, bounds.lower, bounds.upper, bounds.level,
                static_cast<unsigned long long>(bounds.terms_computed),
                bounds.exact ? ", exact" : "");
    return 0;
  } else {
    std::fprintf(stderr, "unknown --algo=%s\n", algo.c_str());
    return 2;
  }
  SKYPREF_RETURN_IF_ERROR(sky.status());
  std::printf("sky(object %zu) = %.6g   [algo=%s]\n", target, sky.value(),
              algo.c_str());
  if (algo != "sac") {
    std::printf("candidates=%zu after_absorption=%zu groups=%zu "
                "largest_group=%zu subsets=%llu samples=%llu\n",
                stats.candidates, stats.after_absorption, stats.groups,
                stats.largest_group,
                static_cast<unsigned long long>(stats.subsets_visited),
                static_cast<unsigned long long>(stats.samples_drawn));
  }
  return 0;
}

Result<int> RunInspect(const Args& args) {
  SKYPREF_ASSIGN_OR_RETURN(LoadedInstance instance, LoadInstance(args));
  const Dataset& data = instance.loaded.dataset;
  ObjectId target = static_cast<ObjectId>(IntFlagOr(args, "target", 0));
  if (target >= data.size()) {
    std::fprintf(stderr, "target out of range\n");
    return 2;
  }
  std::printf("dataset: %zu objects x %zu dims\n", data.size(),
              data.dimensions());
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    std::printf("  %-16s %u distinct values\n",
                instance.loaded.domain.dimension_name(j).c_str(),
                data.value_bound(j));
  }
  std::vector<ObjectId> candidates;
  for (ObjectId i = 0; i < data.size(); ++i) {
    if (i != target) candidates.push_back(i);
  }
  AbsorptionStats absorption;
  std::vector<ObjectId> survivors =
      AbsorbCandidates(data, target, candidates, &absorption);
  auto groups = PartitionCandidates(data, target, survivors);
  std::size_t largest = 0;
  for (const auto& group : groups) largest = std::max(largest, group.size());
  std::printf("target %zu: %zu candidates, %zu absorbed, %zu groups, "
              "largest group %zu\n",
              target, absorption.input_candidates, absorption.absorbed,
              groups.size(), largest);
  return 0;
}

Result<int> RunSkyline(const Args& args) {
  SKYPREF_ASSIGN_OR_RETURN(LoadedInstance instance, LoadInstance(args));
  double tau = std::atof(FlagOr(args, "tau", "0.5").c_str());
  std::string method = FlagOr(args, "method", "exact");
  std::vector<ObjectId> skyline;
  if (method == "exact") {
    SKYPREF_ASSIGN_OR_RETURN(skyline,
                             ExactProbabilisticSkyline(instance.loaded.dataset,
                                                       instance.prefs(), tau));
  } else if (method == "sample") {
    AllWorldsOptions options;
    options.seed = static_cast<std::uint64_t>(IntFlagOr(args, "seed", 42));
    options.samples =
        static_cast<std::uint64_t>(IntFlagOr(args, "samples", 0));
    SKYPREF_ASSIGN_OR_RETURN(skyline,
                             ProbabilisticSkyline(instance.loaded.dataset,
                                                  instance.prefs(), tau,
                                                  options));
  } else {
    std::fprintf(stderr, "unknown --method=%s\n", method.c_str());
    return 2;
  }
  std::printf("probabilistic skyline (tau=%.3f, %s): %zu objects\n", tau,
              method.c_str(), skyline.size());
  for (ObjectId id : skyline) std::printf("  %zu\n", id);
  return 0;
}

Result<int> RunTopK(const Args& args) {
  SKYPREF_ASSIGN_OR_RETURN(LoadedInstance instance, LoadInstance(args));
  std::size_t k = static_cast<std::size_t>(IntFlagOr(args, "k", 5));
  std::string method = FlagOr(args, "method", "race");
  if (method == "race") {
    TopKRaceOptions options;
    options.seed = static_cast<std::uint64_t>(IntFlagOr(args, "seed", 42));
    SKYPREF_ASSIGN_OR_RETURN(
        TopKRaceResult result,
        TopKSkylineRace(instance.loaded.dataset, instance.prefs(), k,
                        options));
    std::printf("top-%zu by skyline probability (race, %s, %llu worlds):\n",
                k, result.resolved ? "resolved" : "ties at the boundary",
                static_cast<unsigned long long>(result.worlds));
    for (ObjectId id : result.topk) {
      std::printf("  %-8zu %.4f\n", id, result.estimates[id]);
    }
    return 0;
  }
  if (method == "sample") {
    AllWorldsOptions options;
    options.seed = static_cast<std::uint64_t>(IntFlagOr(args, "seed", 42));
    options.samples =
        static_cast<std::uint64_t>(IntFlagOr(args, "samples", 0));
    SKYPREF_ASSIGN_OR_RETURN(
        auto ranked,
        TopKSkyline(instance.loaded.dataset, instance.prefs(), k, options));
    std::printf("top-%zu by skyline probability (fixed budget):\n", k);
    for (const auto& [id, estimate] : ranked) {
      std::printf("  %-8zu %.4f\n", id, estimate);
    }
    return 0;
  }
  std::fprintf(stderr, "unknown --method=%s\n", method.c_str());
  return 2;
}

Result<int> RunSkycube(const Args& args) {
  SKYPREF_ASSIGN_OR_RETURN(LoadedInstance instance, LoadInstance(args));
  ObjectId target = static_cast<ObjectId>(IntFlagOr(args, "target", 0));
  SKYPREF_ASSIGN_OR_RETURN(
      std::vector<SkycubeCell> cube,
      ProbabilisticSkycube(instance.loaded.dataset, target, instance.prefs()));
  std::printf("probabilistic skycube of object %zu (%zu cells):\n", target,
              cube.size());
  for (const SkycubeCell& cell : cube) {
    std::printf("  dims {");
    bool first = true;
    for (DimensionId j = 0; j < instance.loaded.dataset.dimensions(); ++j) {
      if (cell.mask & (SubspaceMask{1} << j)) {
        std::printf("%s%s", first ? "" : ",",
                    instance.loaded.domain.dimension_name(j).c_str());
        first = false;
      }
    }
    std::printf("}: %.6g\n", cell.probability);
  }
  return 0;
}

/// A command's exit code; a failed call prints its Status to stderr and
/// exits 1.
int Exit(const Result<int>& code) {
  if (code.ok()) return *code;
  std::fprintf(stderr, "skyprob: %s\n", code.status().ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (args.command == "generate") return Exit(RunGenerate(args));
  if (args.command == "solve") return Exit(RunSolve(args));
  if (args.command == "skyline") return Exit(RunSkyline(args));
  if (args.command == "topk") return Exit(RunTopK(args));
  if (args.command == "skycube") return Exit(RunSkycube(args));
  if (args.command == "inspect") return Exit(RunInspect(args));
  return Usage();
}

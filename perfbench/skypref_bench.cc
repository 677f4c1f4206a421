// skypref_bench — closed-loop benchmark of the skypref library.
//
//   skypref_bench generate --workload=W --seed=S --out=FILE
//   skypref_bench run --workload=W --seed=S --input=FILE --seconds=T
//                     --trace=0|1 [--plant-wrong-answer]
//
// `generate` writes the workload's dataset, derived from the seed, in the
// binary .skyd format (value ids preserved exactly; the preference model
// is the seeded HashedPreferenceModel and needs no file, as with
// `skyprob --pref-seed`). `run` loads that file, validates it through
// SkylineSolver::Create, and issues queries in a closed loop — one client,
// the next query only after the previous one returned — through the same
// public calls `skyprob` makes, for --seconds seconds. Every answer is
// checked against a referee outside the timed window. With --trace=1 each
// query is also recomposed from the facade's public building blocks, each
// block timed from outside, and the composed answer must be bit-identical
// to the facade's. The last stdout line is one JSON object (see
// perfbench/README.md); earlier lines print every metric by name with its
// unit.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/sam_bitslice.h"
#include "src/skypref.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/random.h"
#include "src/util/strings.h"

namespace {

using namespace skypref;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload geometry. The names are permanent; see perfbench/README.md.
// ---------------------------------------------------------------------------

constexpr std::size_t kDims = 5;
constexpr std::size_t kBlockSize = 12;
constexpr ValueId kValuesPerBlock = 6;
constexpr std::size_t kDetObjects = 5000;
constexpr std::size_t kSamObjects = 30;
constexpr ValueId kSamValues = 10;
constexpr std::uint64_t kSamDataSeed = 7;  // bench/bench_util.h UniformConfig
constexpr std::size_t kNurseryDims = 6;
constexpr std::size_t kSkylineObjects = 1000;
constexpr double kSamEpsilon = 0.01;  // epsilon = delta of Fig. 13
constexpr double kTau = 0.5;

/// Referee panels: how many targets each workload checks against its
/// reference (the first queries' targets, so every panel entry is asked).
constexpr std::size_t kDetPanel = 16;
constexpr std::size_t kSamPanel = 3;
constexpr std::size_t kBatchPanel = 32;

enum class Kind {
  kDetBlockZipf,
  kSamUniform,
  kBatchNursery,
  kSkylineBlockZipf,
};

struct WorkloadSpec {
  const char* name;
  Kind kind;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"det_blockzipf", Kind::kDetBlockZipf},
    {"sam_uniform", Kind::kSamUniform},
    {"batch_nursery", Kind::kBatchNursery},
    {"skyline_blockzipf", Kind::kSkylineBlockZipf},
};

/// Independent streams derived from the one --seed.
std::uint64_t DataSeed(std::uint64_t seed) { return SplitSeed(seed, 1); }
std::uint64_t PrefSeed(std::uint64_t seed) { return SplitSeed(seed, 2); }
std::uint64_t QuerySeed(std::uint64_t seed) { return SplitSeed(seed, 3); }

bool UsesBlockPrefs(Kind kind) {
  return kind == Kind::kDetBlockZipf || kind == Kind::kSkylineBlockZipf;
}

Result<Dataset> GenerateDataset(Kind kind, std::uint64_t seed) {
  switch (kind) {
    case Kind::kDetBlockZipf:
    case Kind::kSkylineBlockZipf: {
      BlockZipfOptions options;
      options.objects =
          kind == Kind::kDetBlockZipf ? kDetObjects : kSkylineObjects;
      options.dimensions = kDims;
      options.block_size = kBlockSize;
      options.values_per_block = kValuesPerBlock;
      options.theta = 1.0;
      options.seed = DataSeed(seed);
      return GenerateBlockZipf(options);
    }
    case Kind::kSamUniform: {
      // One fixed 30-object instance: its per-target costs would otherwise
      // move the run's median by more than a regression bound. The seed
      // still draws the preference model and the query stream.
      UniformOptions options;
      options.objects = kSamObjects;
      options.dimensions = kDims;
      options.values_per_dimension = kSamValues;
      options.seed = kSamDataSeed;
      return GenerateUniform(options);
    }
    case Kind::kBatchNursery: {
      // The Nursery projection is the fixed UCI product; only the
      // preference model varies with the seed.
      SKYPREF_ASSIGN_OR_RETURN(NurseryVariant nursery,
                               GenerateNurseryProjection(kNurseryDims));
      return std::move(nursery.dataset);
    }
  }
  return Status::Internal("unknown workload kind");
}

/// A loaded input: the dataset plus the seeded preference model, wrapped
/// block-locally on the block-zipf workloads. Non-movable because the
/// wrapper points at the base model.
struct Instance {
  Instance(Dataset dataset, Kind kind, std::uint64_t seed)
      : data(std::move(dataset)),
        base(PrefSeed(seed), HashedPreferenceModel::Style::kTotalUniform) {
    if (UsesBlockPrefs(kind)) block_local.emplace(base, kValuesPerBlock);
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  const PreferenceModel& model() const {
    if (block_local.has_value()) return *block_local;
    return base;
  }

  Dataset data;
  HashedPreferenceModel base;
  std::optional<BlockLocalPreferenceModel> block_local;
};

// ---------------------------------------------------------------------------
// Measurement helpers.
// ---------------------------------------------------------------------------

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time (all threads, user + system), seconds.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set of this process image, MB. VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the high-water mark of the parent image
/// the process was forked from (the Python runner), across exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (StartsWith(line, "VmHWM:")) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Linear-interpolated percentile of \p values (q in [0, 1]).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

/// Consecutive queries grouped until their summed latency reaches the
/// window length; a short tail joins the last window.
struct Window {
  double queries = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

std::vector<Window> SplitWindows(const std::vector<double>& latency,
                                 const std::vector<double>& cpu,
                                 double window_s) {
  std::vector<Window> windows;
  Window current;
  for (std::size_t i = 0; i < latency.size(); ++i) {
    current.queries += 1.0;
    current.wall_s += latency[i];
    current.cpu_s += cpu[i];
    if (current.wall_s >= window_s) {
      windows.push_back(current);
      current = Window();
    }
  }
  if (current.queries > 0.0) {
    if (windows.empty()) {
      windows.push_back(current);
    } else {
      windows.back().queries += current.queries;
      windows.back().wall_s += current.wall_s;
      windows.back().cpu_s += current.cpu_s;
    }
  }
  return windows;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool ValidProbability(double p) {
  return std::isfinite(p) && p >= 0.0 && p <= 1.0;
}

void PrintMetricLine(const std::string& name, double value,
                     const std::string& unit) {
  std::printf("metric %-32s %.6g %s\n", name.c_str(), value, unit.c_str());
}

/// Named metrics in print order, each with its unit.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void PrintLines() const {
    for (const Metric& m : metrics_) PrintMetricLine(m.name, m.value, m.unit);
  }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  void PrintJson(bool correct, std::uint64_t attempted,
                 std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      // JSON has no NaN; a non-finite metric already made the run incorrect.
      const double value =
          std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(), value,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }
  bool AllFinite() const {
    return std::all_of(metrics_.begin(), metrics_.end(),
                       [](const Metric& m) { return std::isfinite(m.value); });
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Set-up and calibration.
// ---------------------------------------------------------------------------

/// Times the set-up a user pays before the first query: loading the
/// input file and validating it through SkylineSolver::Create. A shared
/// machine runs at different speeds from one second to the next, so the
/// repetitions are taken in short batches spread over the whole run and
/// the medians see the same machine the queries do.
class SetupTimer {
 public:
  SetupTimer(std::string path, Kind kind, std::uint64_t seed)
      : path_(std::move(path)), kind_(kind), seed_(seed) {}

  /// One timed load + Create; returns the validated instance.
  Result<std::unique_ptr<Instance>> LoadOnce() {
    const auto t0 = Clock::now();
    SKYPREF_ASSIGN_OR_RETURN(Dataset data, LoadDatasetBinary(path_));
    const auto t1 = Clock::now();
    auto instance = std::make_unique<Instance>(std::move(data), kind_, seed_);
    Status valid =
        SkylineSolver::Create(instance->data, instance->model()).status();
    const auto t2 = Clock::now();
    SKYPREF_RETURN_IF_ERROR(valid);
    load_.push_back(SecondsBetween(t0, t1));
    validate_.push_back(SecondsBetween(t1, t2));
    return instance;
  }

  /// Repeats LoadOnce for about \p budget_s seconds (at least once).
  Status Sample(double budget_s) {
    const auto start = Clock::now();
    do {
      SKYPREF_RETURN_IF_ERROR(LoadOnce().status());
    } while (SecondsBetween(start, Clock::now()) < budget_s);
    return Status::OK();
  }

  double setup_s() const {
    std::vector<double> total(load_.size());
    for (std::size_t i = 0; i < total.size(); ++i) {
      total[i] = load_[i] + validate_[i];
    }
    return Median(std::move(total));
  }
  double load_ms() const { return Median(load_) * 1e3; }
  double validate_ms() const { return Median(validate_) * 1e3; }
  double file_mb() const {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path_, ec);
    return ec ? 0.0 : static_cast<double>(bytes) / 1e6;
  }

 private:
  std::string path_;
  Kind kind_;
  std::uint64_t seed_;
  std::vector<double> load_, validate_;
};

/// A fixed integer spin: \p iterations dependent xorshift-multiply steps.
std::uint64_t Spin(std::uint64_t iterations, std::uint64_t state) {
  for (std::uint64_t i = 0; i < iterations; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    state *= 0x2545f4914f6cdd1dULL;
  }
  return state;
}

struct Calibration {
  double single_core_mspins = 0.0;  ///< million spin steps per second
  double effective_cores = 0.0;     ///< pool throughput / single-core rate
};

/// Runs the spin kernel on the caller alone, then through \p pool with
/// two tasks per thread, in rounds for at least 1.5 s: fresh pool threads
/// can share the caller's core for the first second or so, until the
/// scheduler spreads them. Rates are medians of the last five rounds, so
/// the calibration also warms the pool up for the timed loop.
Calibration Calibrate(ThreadPool& pool) {
  constexpr std::uint64_t kSteps = 5'000'000;
  const std::size_t tasks = 2 * (pool.thread_count() + 1);
  std::vector<std::uint64_t> out(tasks, 0);
  std::vector<double> single, parallel;
  const auto start = Clock::now();
  for (std::uint64_t r = 0; SecondsBetween(start, Clock::now()) < 1.5; ++r) {
    const auto t0 = Clock::now();
    out[0] ^= Spin(kSteps, 0x9e3779b97f4a7c15ULL + r);
    const auto t1 = Clock::now();
    pool.ParallelFor(tasks, [&out, r](std::size_t i) {
      out[i] ^= Spin(kSteps, 0x853c49e6748fea9bULL + r * 64 + i);
    });
    single.push_back(SecondsBetween(t0, t1));
    parallel.push_back(SecondsBetween(t1, Clock::now()));
  }
  const std::size_t keep = std::min<std::size_t>(5, single.size());
  single.erase(single.begin(), single.end() - static_cast<long>(keep));
  parallel.erase(parallel.begin(), parallel.end() - static_cast<long>(keep));
  Calibration calibration;
  const double rate = static_cast<double>(kSteps) / Median(single);
  calibration.single_core_mspins = rate / 1e6;
  calibration.effective_cores =
      static_cast<double>(kSteps * tasks) / Median(parallel) / rate;
  // Keeps the spin results observable so the loops are not elided.
  if (std::accumulate(out.begin(), out.end(), std::uint64_t{0}) == 42) {
    std::printf("#\n");
  }
  return calibration;
}

// ---------------------------------------------------------------------------
// Tracing from outside: sequential spans around public building blocks.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  /// Times \p fn as one span of \p layer; spans never nest, so a span's
  /// self time is its duration.
  template <typename Fn>
  auto Span(const char* layer, Fn&& fn) {
    const auto t0 = Clock::now();
    auto result = fn();
    const double elapsed = SecondsBetween(t0, Clock::now());
    seconds_[layer] += elapsed;
    query_span_seconds_ += elapsed;
    return result;
  }
  void Count(const char* counter, double amount) { counts_[counter] += amount; }
  void AddSeconds(const char* layer, double s) { seconds_[layer] += s; }
  void BeginQuery() { query_span_seconds_ = 0.0; }
  double query_span_seconds() const { return query_span_seconds_; }

  double seconds(const char* layer) const { return Get(seconds_, layer); }
  double count(const char* counter) const { return Get(counts_, counter); }

 private:
  static double Get(const std::map<std::string, double>& m, const char* key) {
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  }
  std::map<std::string, double> seconds_;
  std::map<std::string, double> counts_;
  double query_span_seconds_ = 0.0;
};

std::vector<ObjectId> AllCandidates(std::size_t n, ObjectId target) {
  std::vector<ObjectId> candidates;
  candidates.reserve(n - 1);
  for (ObjectId id = 0; id < n; ++id) {
    if (id != target) candidates.push_back(id);
  }
  return candidates;
}

/// Absorption then partition for one target, each in its own span.
std::vector<std::vector<ObjectId>> TracedPreprocess(const Instance& in,
                                                    ObjectId target,
                                                    Tracer& tracer) {
  const std::size_t n = in.data.size();
  std::vector<ObjectId> survivors = tracer.Span("absorption", [&] {
    return AbsorbCandidates(in.data, target, AllCandidates(n, target));
  });
  auto groups = tracer.Span("partition", [&] {
    return PartitionCandidates(in.data, target, survivors);
  });
  tracer.Count("absorption.in", static_cast<double>(n - 1));
  tracer.Count("absorption.out", static_cast<double>(survivors.size()));
  tracer.Count("partition.groups", static_cast<double>(groups.size()));
  for (const auto& group : groups) {
    if (group.size() == 1) tracer.Count("partition.singletons", 1.0);
  }
  return groups;
}

/// Share counter: candidates whose dominance probability is exactly 0.
void CountImpossible(const Instance& in, ObjectId target, Tracer& tracer) {
  std::size_t impossible = 0;
  for (ObjectId id = 0; id < in.data.size(); ++id) {
    if (id == target) continue;
    // Exact-zero test: such a candidate can never dominate.
    if (DominanceProbability(in.data, id, target, in.model()) == 0.0) {
      ++impossible;
    }
  }
  tracer.Count("absorption.impossible", static_cast<double>(impossible));
}

// ---------------------------------------------------------------------------
// Referees and workloads.
// ---------------------------------------------------------------------------

/// Single-target answers kept for the referee: every answer must be a
/// probability, and answers for panel targets must lie within the
/// tolerance of the lineage-DP reference.
class PanelReferee {
 public:
  explicit PanelReferee(double tolerance) : tolerance_(tolerance) {}

  void Record(std::uint64_t q, ObjectId target, double value) {
    answers_.push_back({q, target, value});
  }

  Status AddLineageReference(const Instance& in, ObjectId target) {
    SKYPREF_ASSIGN_OR_RETURN(
        double ref, LineageExactWithPreprocessing(in.data, target, in.model()));
    reference_[target] = ref;
    return Status::OK();
  }

  std::vector<std::uint64_t> Verify(bool plant) const {
    std::vector<std::uint64_t> rejected;
    for (std::size_t i = 0; i < answers_.size(); ++i) {
      const Answer& a = answers_[i];
      const double value = plant && i == 0 ? a.value + 0.25 : a.value;
      auto it = reference_.find(a.target);
      const bool ok = ValidProbability(value) &&
                      (it == reference_.end() ||
                       std::abs(value - it->second) <= tolerance_);
      if (!ok) rejected.push_back(a.q);
    }
    return rejected;
  }

 private:
  struct Answer {
    std::uint64_t q;
    ObjectId target;
    double value;
  };
  double tolerance_;
  std::vector<Answer> answers_;
  std::map<ObjectId, double> reference_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// sky() answers per query: 1, or n for an all-objects query.
  virtual std::size_t objects_per_query() const = 0;
  /// The facade call of query \p q; keeps the answer for Record/Traced.
  virtual Status Query(std::uint64_t q) = 0;
  /// Untimed: keeps what the referee needs of the last answer (query q).
  virtual void Record(std::uint64_t q) = 0;
  /// Untimed, after the timed loop (so neither its time nor its memory
  /// shows in the end-to-end metrics): computes the reference answers.
  virtual Status PrepareReferee() = 0;
  /// The queries whose recorded answers the referee rejects. \p plant
  /// corrupts the first recorded answer before checking, which the check
  /// must count as a failure.
  virtual std::vector<std::uint64_t> Verify(bool plant) const = 0;
  /// Recomposes query \p q from building blocks under \p tracer and
  /// returns whether the composed answer is bit-identical to the last
  /// facade answer.
  virtual Result<bool> Traced(std::uint64_t q, Tracer& tracer) = 0;
  /// Untimed per-query counters of the traced run.
  virtual void CountUntimed(std::uint64_t /*q*/, Tracer& /*tracer*/) {}
  /// Pool workers the facade call runs on (0: no pool).
  virtual std::size_t pool_workers() const { return 0; }
  /// Inline wall time over pool wall time for the same queries.
  virtual Result<double> PoolSpeedup() { return 1.0; }
};

/// det_blockzipf: Det+ (SkylineSolver::Exact, default options) for seeded
/// targets; the referee is the lineage DP within 1e-9 on a panel.
class DetWorkload final : public Workload {
 public:
  DetWorkload(const Instance& in, const SkylineSolver& solver,
              std::uint64_t seed)
      : in_(in), solver_(solver), query_seed_(QuerySeed(seed)) {}

  std::size_t objects_per_query() const override { return 1; }

  ObjectId Target(std::uint64_t q) const {
    return static_cast<ObjectId>(SplitSeed(query_seed_, q) % in_.data.size());
  }

  Status Query(std::uint64_t q) override {
    SKYPREF_ASSIGN_OR_RETURN(last_, solver_.Exact(Target(q), options_));
    return Status::OK();
  }

  void Record(std::uint64_t q) override {
    referee_.Record(q, Target(q), last_);
  }

  Status PrepareReferee() override {
    for (std::uint64_t q = 0; q < kDetPanel; ++q) {
      SKYPREF_RETURN_IF_ERROR(referee_.AddLineageReference(in_, Target(q)));
    }
    return Status::OK();
  }

  std::vector<std::uint64_t> Verify(bool plant) const override {
    return referee_.Verify(plant);
  }

  Result<bool> Traced(std::uint64_t q, Tracer& tracer) override {
    const ObjectId target = Target(q);
    auto groups = TracedPreprocess(in_, target, tracer);
    DoubleOracle oracle(in_.model());
    double result = 1.0;
    for (const auto& group : groups) {
      auto instance = tracer.Span("exact.flatten", [&] {
        return internal::BuildFlatInstance(
            in_.data, target, std::span<const ObjectId>(group), oracle);
      });
      ExactStats stats;
      Result<double> group_prob = tracer.Span("exact.dfs", [&] {
        internal::FlatExactEngine<DoubleOracle> engine(instance,
                                                       options_.exact);
        return engine.Run(&stats);
      });
      SKYPREF_RETURN_IF_ERROR(group_prob.status());
      tracer.Count("exact.subsets", static_cast<double>(stats.subsets_visited));
      result *= group_prob.value();
    }
    return SameBits(ClampProbability(result), last_);
  }

  void CountUntimed(std::uint64_t q, Tracer& tracer) override {
    CountImpossible(in_, Target(q), tracer);
  }

 private:
  const Instance& in_;
  const SkylineSolver& solver_;
  std::uint64_t query_seed_;
  SolverOptions options_;
  PanelReferee referee_{1e-9};
  double last_ = 0.0;
};

/// sam_uniform: Sam+ at epsilon = delta = 0.01 through the pool overload
/// with the default engine, a fresh seed per query; the referee is the
/// lineage DP within 2 epsilon on a panel.
class SamWorkload final : public Workload {
 public:
  SamWorkload(const Instance& in, const SkylineSolver& solver,
              ThreadPool& pool, std::uint64_t seed)
      : in_(in), solver_(solver), pool_(pool), query_seed_(QuerySeed(seed)) {
    order_.resize(in.data.size());
    std::iota(order_.begin(), order_.end(), ObjectId{0});
    Rng rng(query_seed_);
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.NextBounded(i)]);
    }
    options_.monte_carlo.epsilon = kSamEpsilon;
    options_.monte_carlo.delta = kSamEpsilon;
  }

  std::size_t objects_per_query() const override { return 1; }
  std::size_t pool_workers() const override { return pool_.thread_count(); }

  ObjectId Target(std::uint64_t q) const { return order_[q % order_.size()]; }
  SolverOptions Options(std::uint64_t q) const {
    SolverOptions options = options_;
    options.monte_carlo.seed = SplitSeed(query_seed_ ^ 0x5a5a5a5aULL, q);
    return options;
  }

  Status Query(std::uint64_t q) override {
    SKYPREF_ASSIGN_OR_RETURN(last_,
                             solver_.MonteCarlo(Target(q), Options(q), pool_));
    return Status::OK();
  }

  void Record(std::uint64_t q) override {
    referee_.Record(q, Target(q), last_);
  }

  Status PrepareReferee() override {
    for (std::uint64_t q = 0; q < kSamPanel; ++q) {
      SKYPREF_RETURN_IF_ERROR(referee_.AddLineageReference(in_, Target(q)));
    }
    return Status::OK();
  }

  std::vector<std::uint64_t> Verify(bool plant) const override {
    return referee_.Verify(plant);
  }

  Result<bool> Traced(std::uint64_t q, Tracer& tracer) override {
    const ObjectId target = Target(q);
    const SolverOptions options = Options(q);
    auto groups = TracedPreprocess(in_, target, tracer);
    std::vector<const std::vector<ObjectId>*> sampled;
    double result = 1.0;
    for (const auto& group : groups) {
      if (group.size() == 1) {
        result *=
            1.0 - DominanceProbability(in_.data, group[0], target, in_.model());
      } else {
        sampled.push_back(&group);
      }
    }
    MonteCarloOptions per_group = options.monte_carlo;
    if (per_group.samples == 0 && !sampled.empty()) {
      const double share = static_cast<double>(sampled.size());
      per_group.epsilon = options.monte_carlo.epsilon / share;
      per_group.delta = options.monte_carlo.delta / share;
    }
    Rng seeder(options.monte_carlo.seed);
    for (const auto* group : sampled) {
      per_group.seed = seeder.Fork();
      auto mc = tracer.Span(
          "sam", [&] { return RunEngine(target, *group, per_group); });
      SKYPREF_RETURN_IF_ERROR(mc.status());
      tracer.Count("sam.worlds", static_cast<double>(mc->samples));
      tracer.Count("sam.pair_draws", static_cast<double>(mc->pair_draws));
      result *= mc->estimate;
    }
    return SameBits(ClampProbability(result), last_);
  }

  void CountUntimed(std::uint64_t q, Tracer& tracer) override {
    CountImpossible(in_, Target(q), tracer);
  }

  Result<double> PoolSpeedup() override {
    double inline_s = 0.0, pool_s = 0.0;
    for (std::uint64_t q = 0; q < 8; ++q) {
      const auto t0 = Clock::now();
      SKYPREF_RETURN_IF_ERROR(
          solver_.MonteCarlo(Target(q), Options(q)).status());
      const auto t1 = Clock::now();
      SKYPREF_RETURN_IF_ERROR(
          solver_.MonteCarlo(Target(q), Options(q), pool_).status());
      const auto t2 = Clock::now();
      inline_s += SecondsBetween(t0, t1);
      pool_s += SecondsBetween(t1, t2);
    }
    return inline_s / pool_s;
  }

 private:
  /// The facade's engine dispatch, on the same pool.
  Result<MonteCarloResult> RunEngine(ObjectId target,
                                     const std::vector<ObjectId>& group,
                                     const MonteCarloOptions& options) {
    switch (options.engine) {
      case MonteCarloOptions::Engine::kBlock:
        return BlockMonteCarloSkylineProbability(in_.data, target, group,
                                                 in_.model(), pool_, options);
      case MonteCarloOptions::Engine::kBitSliced:
        return BitSlicedMonteCarloSkylineProbability(
            in_.data, target, group, in_.model(), pool_, options);
      case MonteCarloOptions::Engine::kSerial:
        break;
    }
    return MonteCarloSkylineProbability(in_.data, target, group, in_.model(),
                                        options);
  }

  const Instance& in_;
  const SkylineSolver& solver_;
  ThreadPool& pool_;
  std::uint64_t query_seed_;
  SolverOptions options_;
  std::vector<ObjectId> order_;
  PanelReferee referee_{2.0 * kSamEpsilon};
  double last_ = 0.0;
};

/// batch_nursery: the all-objects exact query over the pool; the answer
/// must be bit-identical to SkylineSolver::Exact on a panel.
class BatchWorkload final : public Workload {
 public:
  BatchWorkload(const Instance& in, const SkylineSolver& solver,
                ThreadPool& pool)
      : in_(in), solver_(solver), pool_(pool) {}

  std::size_t objects_per_query() const override { return in_.data.size(); }
  std::size_t pool_workers() const override { return pool_.thread_count(); }

  Status Query(std::uint64_t /*q*/) override {
    SKYPREF_ASSIGN_OR_RETURN(
        last_, BatchExactSkylineProbabilities(in_.data, in_.model(), pool_,
                                              options_, &stats_));
    return Status::OK();
  }

  void Record(std::uint64_t q) override {
    Answer answer{q, last_.size() == in_.data.size() &&
                         stats_.failed_targets == 0 &&
                         std::all_of(last_.begin(), last_.end(),
                                     ValidProbability),
                  {}};
    for (ObjectId t : PanelTargets()) {
      answer.panel.push_back(t < last_.size() ? last_[t] : 0.0);
    }
    answers_.push_back(std::move(answer));
  }

  Status PrepareReferee() override {
    reference_.clear();
    for (ObjectId t : PanelTargets()) {
      SKYPREF_ASSIGN_OR_RETURN(double ref, solver_.Exact(t, options_));
      reference_.push_back(ref);
    }
    return Status::OK();
  }

  std::vector<std::uint64_t> Verify(bool plant) const override {
    std::vector<std::uint64_t> rejected;
    for (std::size_t i = 0; i < answers_.size(); ++i) {
      std::vector<double> panel = answers_[i].panel;
      if (plant && i == 0) panel[0] += 0.25;
      if (!answers_[i].valid || !SameBits(panel, reference_)) {
        rejected.push_back(answers_[i].q);
      }
    }
    return rejected;
  }

  Result<bool> Traced(std::uint64_t /*q*/, Tracer& tracer) override {
    const std::size_t n = in_.data.size();
    std::vector<std::vector<std::vector<ObjectId>>> groups(n);
    std::vector<double> absorb_s(n, 0.0), partition_s(n, 0.0);
    std::vector<double> solve_s(n, 0.0), subsets(n, 0.0);
    std::vector<std::size_t> survivors(n, 0);
    ValuePostings postings =
        tracer.Span("batch.postings", [&] { return ValuePostings(in_.data); });
    // Phase A on the pool: indexed absorption and partition per target,
    // each timed on the thread that runs it.
    constexpr std::size_t kChunk = 16;
    tracer.Span("batch.preprocess", [&] {
      pool_.ParallelFor((n + kChunk - 1) / kChunk, [&](std::size_t c) {
        PartitionWorkspace workspace;
        for (ObjectId t = c * kChunk; t < std::min(n, (c + 1) * kChunk); ++t) {
          const auto t0 = Clock::now();
          std::vector<ObjectId> kept =
              AbsorbAllCandidatesIndexed(in_.data, t, postings);
          const auto t1 = Clock::now();
          groups[t] = PartitionCandidates(
              in_.data, t, std::span<const ObjectId>(kept), workspace);
          absorb_s[t] = SecondsBetween(t0, t1);
          partition_s[t] = SecondsBetween(t1, Clock::now());
          survivors[t] = kept.size();
        }
      });
      return 0;
    });
    // Phase C on the pool: per-target group solves through the plain
    // oracle (the facade's pair cache holds the same doubles).
    DoubleOracle oracle(in_.model());
    std::vector<double> results(n, 1.0);
    std::vector<Status> statuses(n);
    tracer.Span("batch.solve", [&] {
      pool_.ParallelFor(n, [&](std::size_t t) {
        const auto t0 = Clock::now();
        double product = 1.0;
        for (const auto& group : groups[t]) {
          ExactStats stats;
          auto r = ExactSkylineProbability(in_.data, t,
                                           std::span<const ObjectId>(group),
                                           oracle, options_.exact, &stats);
          subsets[t] += static_cast<double>(stats.subsets_visited);
          if (!r.ok()) {
            statuses[t] = r.status();
            break;
          }
          product *= r.value();
        }
        results[t] = statuses[t].ok()
                         ? ClampProbability(product)
                         : std::numeric_limits<double>::quiet_NaN();
        solve_s[t] = SecondsBetween(t0, Clock::now());
      });
      return 0;
    });
    for (const Status& status : statuses) SKYPREF_RETURN_IF_ERROR(status);
    std::size_t group_count = 0, singletons = 0;
    for (const auto& target_groups : groups) {
      group_count += target_groups.size();
      for (const auto& g : target_groups) singletons += g.size() == 1 ? 1 : 0;
    }
    tracer.AddSeconds("batch.absorb_cpu", Sum(absorb_s));
    tracer.AddSeconds("batch.partition_cpu", Sum(partition_s));
    tracer.AddSeconds("batch.solve_cpu", Sum(solve_s));
    tracer.Count("exact.subsets", Sum(subsets));
    tracer.Count("absorption.in", static_cast<double>(n * (n - 1)));
    tracer.Count("absorption.out",
                 static_cast<double>(std::accumulate(
                     survivors.begin(), survivors.end(), std::size_t{0})));
    tracer.Count("partition.groups", static_cast<double>(group_count));
    tracer.Count("partition.singletons", static_cast<double>(singletons));
    tracer.Count("batch.distinct_pair_probs",
                 static_cast<double>(stats_.distinct_pair_probs));
    tracer.Count("batch.failed_targets",
                 static_cast<double>(stats_.failed_targets));
    tracer.Count("batch.retried_targets",
                 static_cast<double>(stats_.retried_targets));
    return SameBits(results, last_);
  }

  Result<double> PoolSpeedup() override {
    ThreadPool inline_pool(0);
    const auto t0 = Clock::now();
    SKYPREF_RETURN_IF_ERROR(BatchExactSkylineProbabilities(
                                in_.data, in_.model(), inline_pool, options_)
                                .status());
    const auto t1 = Clock::now();
    SKYPREF_RETURN_IF_ERROR(
        BatchExactSkylineProbabilities(in_.data, in_.model(), pool_, options_)
            .status());
    const auto t2 = Clock::now();
    return SecondsBetween(t0, t1) / SecondsBetween(t1, t2);
  }

 private:
  /// Evenly spaced panel targets.
  std::vector<ObjectId> PanelTargets() const {
    std::vector<ObjectId> targets;
    for (std::size_t k = 0; k < kBatchPanel; ++k) {
      targets.push_back(k * in_.data.size() / kBatchPanel);
    }
    return targets;
  }

  struct Answer {
    std::uint64_t q;
    bool valid;                 ///< n finite probabilities, no failed target
    std::vector<double> panel;  ///< the answer at PanelTargets()
  };

  const Instance& in_;
  const SkylineSolver& solver_;
  ThreadPool& pool_;
  SolverOptions options_;
  std::vector<double> last_;
  BatchExactStats stats_;
  std::vector<Answer> answers_;
  std::vector<double> reference_;
};

/// skyline_blockzipf: the sampled probabilistic skyline at tau = 0.5 with
/// default AllWorldsOptions and a fresh seed per query; membership is
/// checked against batch Det+ values with an epsilon margin.
class SkylineWorkload final : public Workload {
 public:
  SkylineWorkload(const Instance& in, ThreadPool& pool, std::uint64_t seed)
      : in_(in), pool_(pool), query_seed_(QuerySeed(seed)) {}

  std::size_t objects_per_query() const override { return in_.data.size(); }

  AllWorldsOptions Options(std::uint64_t q) const {
    AllWorldsOptions options;
    options.seed = SplitSeed(query_seed_, q);
    return options;
  }

  Status Query(std::uint64_t q) override {
    SKYPREF_ASSIGN_OR_RETURN(
        last_, ProbabilisticSkyline(in_.data, in_.model(), kTau, Options(q)));
    return Status::OK();
  }

  void Record(std::uint64_t q) override { answers_.emplace_back(q, last_); }

  Status PrepareReferee() override {
    SKYPREF_ASSIGN_OR_RETURN(
        exact_, BatchExactSkylineProbabilities(in_.data, in_.model(), pool_));
    if (!std::all_of(exact_.begin(), exact_.end(), ValidProbability)) {
      return Status::Internal("batch Det+ referee returned a non-probability");
    }
    return Status::OK();
  }

  std::vector<std::uint64_t> Verify(bool plant) const override {
    std::vector<std::uint64_t> rejected;
    for (std::size_t i = 0; i < answers_.size(); ++i) {
      const auto& [q, ids] = answers_[i];
      std::vector<bool> member(exact_.size(), false);
      bool ok = true;
      for (ObjectId id : ids) {
        ok = ok && id < member.size();
        if (ok) member[id] = true;
      }
      if (plant && i == 0) {
        // Flip the object whose exact value lies furthest from tau.
        auto furthest = std::max_element(
            exact_.begin(), exact_.end(), [](double a, double b) {
              return std::abs(a - kTau) < std::abs(b - kTau);
            });
        auto id = static_cast<std::size_t>(furthest - exact_.begin());
        member[id] = !member[id];
      }
      // Membership must follow the exact value wherever it clears tau by
      // more than the estimator's epsilon.
      const double eps = Options(q).epsilon;
      for (ObjectId id = 0; ok && id < exact_.size(); ++id) {
        if (exact_[id] >= kTau + eps && !member[id]) ok = false;
        if (exact_[id] < kTau - eps && member[id]) ok = false;
      }
      if (!ok) rejected.push_back(q);
    }
    return rejected;
  }

  Result<bool> Traced(std::uint64_t q, Tracer& tracer) override {
    const AllWorldsOptions options = Options(q);
    const std::size_t n = in_.data.size();
    SKYPREF_RETURN_IF_ERROR(in_.data.Validate());
    const std::uint64_t samples =
        options.samples != 0
            ? options.samples
            : AllWorldsSampleSize(options.epsilon, options.delta, n);
    auto sampler = tracer.Span("all_worlds.plan", [&] {
      return std::make_unique<SharedWorldSampler>(in_.data, in_.model());
    });
    std::uint64_t pair_draws = 0;
    std::vector<std::uint64_t> survived = tracer.Span("all_worlds.sample", [&] {
      Rng rng(options.seed);
      std::vector<std::uint64_t> counts(n, 0);
      for (std::uint64_t h = 0; h < samples; ++h) {
        sampler->NextWorld();
        for (ObjectId i = 0; i < n; ++i) {
          if (sampler->Survives(i, rng, &pair_draws)) ++counts[i];
        }
      }
      return counts;
    });
    std::vector<ObjectId> skyline;
    for (ObjectId i = 0; i < n; ++i) {
      const double estimate =
          static_cast<double>(survived[i]) / static_cast<double>(samples);
      if (estimate >= kTau) skyline.push_back(i);
    }
    tracer.Count("all_worlds.worlds", static_cast<double>(samples));
    tracer.Count("all_worlds.pair_draws", static_cast<double>(pair_draws));
    return skyline == last_;
  }

 private:
  const Instance& in_;
  ThreadPool& pool_;
  std::uint64_t query_seed_;
  std::vector<ObjectId> last_;
  std::vector<std::pair<std::uint64_t, std::vector<ObjectId>>> answers_;
  std::vector<double> exact_;
};

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

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
    const std::string_view value =
        eq == std::string_view::npos ? "1" : arg.substr(eq + 1);
    args.flags.insert_or_assign(std::string(arg.substr(0, eq)),
                                std::string(value));
  }
  return args;
}

std::string Flag(const Args& args, const std::string& key) {
  auto it = args.flags.find(key);
  if (it == args.flags.end()) {
    std::fprintf(stderr, "missing --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

std::uint64_t UintFlag(const Args& args, const std::string& key) {
  auto parsed = ParseInt64(Flag(args, key));
  if (!parsed.ok() || parsed.value() < 0) {
    std::fprintf(stderr, "bad integer for --%s\n", key.c_str());
    std::exit(2);
  }
  return static_cast<std::uint64_t>(parsed.value());
}

const WorkloadSpec& FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return spec;
  }
  std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
  std::exit(2);
}

int Generate(const Args& args) {
  const WorkloadSpec& spec = FindWorkload(Flag(args, "workload"));
  auto data = GenerateDataset(spec.kind, UintFlag(args, "seed"));
  if (!data.ok()) {
    std::fprintf(stderr, "generate: %s\n", data.status().ToString().c_str());
    return 1;
  }
  Status saved = SaveDatasetBinary(Flag(args, "out"), data.value());
  if (!saved.ok()) {
    std::fprintf(stderr, "generate: %s\n", saved.ToString().c_str());
    return 1;
  }
  return 0;
}

void PrintEnvironment(std::size_t cpus, const Calibration& calibration) {
  std::printf("info nproc %zu\n", cpus);
  std::printf("info compiler %s\n", SKYPREF_BENCH_COMPILER);
  std::printf("info build_type %s\n", SKYPREF_BENCH_BUILD_TYPE);
#if defined(SKYPREF_FAILPOINTS) && SKYPREF_FAILPOINTS
  std::printf("info failpoints compiled_in armed=%zu\n",
              failpoint::ArmedCount());
#else
  std::printf("info failpoints compiled_out\n");
#endif
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // Mirrors the runtime dispatch of NextBernoulliWords8 (src/util/random.cc).
  std::printf("info avx512_bernoulli %s\n",
              __builtin_cpu_supports("avx512f") ? "dispatched" : "scalar");
#else
  std::printf("info avx512_bernoulli scalar\n");
#endif
  std::printf("info calibration.single_core_mspins %.6g\n",
              calibration.single_core_mspins);
  std::printf("info calibration.effective_cores %.4g\n",
              calibration.effective_cores);
}

/// What the closed loop measured, per query.
struct LoopResult {
  std::vector<double> latency;      ///< facade wall time, s
  std::vector<double> cpu;          ///< process CPU time, s
  std::vector<double> traced_wall;  ///< composed query wall time, s
  std::vector<bool> bad;            ///< the query failed
  std::uint64_t mismatches = 0;       ///< composed answer differed
  std::uint64_t spans_over_wall = 0;  ///< spans summed past the wall time
};

/// The end-to-end metrics of an untraced run.
Report EndToEndReport(const LoopResult& loop, const Workload& workload,
                      const SetupTimer& setup, double peak_rss_mb) {
  Report report;
  // Rates are medians over half-second windows of consecutive queries,
  // so a neighbour's burst on a shared machine moves them no more than
  // it moves the p50.
  std::vector<double> rate, cpu_per_query;
  for (const Window& w : SplitWindows(loop.latency, loop.cpu, 0.5)) {
    rate.push_back(w.queries *
                   static_cast<double>(workload.objects_per_query()) /
                   w.wall_s);
    cpu_per_query.push_back(w.cpu_s / w.queries * 1e3);
  }
  report.Add("objects_per_s", Median(rate), "1/s");
  report.Add("query_ms_p50", Percentile(loop.latency, 0.5) * 1e3, "ms");
  report.Add("cpu_ms_per_query", Median(cpu_per_query), "ms");
  report.Add("setup_s", setup.setup_s(), "s");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  return report;
}

/// The per-layer metrics of a traced run; every layer on every workload,
/// 0 where the workload does not run it.
Report LayerReport(const LoopResult& loop, const Tracer& tracer,
                   Workload& workload, const SetupTimer& setup,
                   const Calibration& calibration, bool batch,
                   std::size_t objects) {
  Report report;
  const double nq = static_cast<double>(loop.latency.size());
  auto per_query = [nq](double v) { return v / nq; };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto ms = [&](const char* layer) {
    return per_query(tracer.seconds(layer)) * 1e3;
  };
  report.Add("io.load_ms", setup.load_ms(), "ms");
  report.Add("io.mb_per_s", setup.file_mb() / (setup.load_ms() / 1e3),
             "MB/s");
  report.Add("model.validate_ms", setup.validate_ms(), "ms");
  report.Add("absorption.ms_per_query",
             batch ? ms("batch.absorb_cpu") : ms("absorption"), "ms");
  report.Add("absorption.survivor_ratio",
             ratio(tracer.count("absorption.out"),
                   tracer.count("absorption.in")),
             "ratio");
  report.Add("absorption.impossible_share",
             ratio(tracer.count("absorption.impossible"),
                   tracer.count("absorption.in")),
             "ratio");
  report.Add("partition.ms_per_query",
             batch ? ms("batch.partition_cpu") : ms("partition"), "ms");
  report.Add("partition.groups_per_query",
             per_query(tracer.count("partition.groups")), "count");
  report.Add("partition.singleton_share",
             ratio(tracer.count("partition.singletons"),
                   tracer.count("partition.groups")),
             "ratio");
  const double dfs_s =
      batch ? tracer.seconds("batch.solve_cpu") : tracer.seconds("exact.dfs");
  report.Add("exact.flatten_ms_per_query", ms("exact.flatten"), "ms");
  report.Add("exact.dfs_ms_per_query", per_query(dfs_s) * 1e3, "ms");
  report.Add("exact.subsets_per_query",
             per_query(tracer.count("exact.subsets")), "count");
  report.Add("exact.subsets_per_s",
             ratio(tracer.count("exact.subsets"), dfs_s), "1/s");
  report.Add("sam.ms_per_query", ms("sam"), "ms");
  report.Add("sam.worlds_per_query", per_query(tracer.count("sam.worlds")),
             "count");
  report.Add("sam.worlds_per_s",
             ratio(tracer.count("sam.worlds"), tracer.seconds("sam")), "1/s");
  report.Add("sam.pair_draws_per_world",
             ratio(tracer.count("sam.pair_draws"),
                   tracer.count("sam.worlds")),
             "count");
  report.Add("batch.postings_ms", ms("batch.postings"), "ms");
  report.Add("batch.absorb_cpu_ms", ms("batch.absorb_cpu"), "ms");
  report.Add("batch.survivors_per_target",
             batch ? ratio(tracer.count("absorption.out"),
                           nq * static_cast<double>(objects))
                   : 0.0,
             "count");
  report.Add("batch.distinct_pair_probs",
             per_query(tracer.count("batch.distinct_pair_probs")), "count");
  report.Add("batch.failed_targets", tracer.count("batch.failed_targets"),
             "count");
  report.Add("batch.retried_targets", tracer.count("batch.retried_targets"),
             "count");
  auto speedup = workload.PoolSpeedup();
  // A failed probe leaves a NaN, which makes the run incorrect.
  const double pool_speedup = speedup.ok()
                                  ? speedup.value()
                                  : std::numeric_limits<double>::quiet_NaN();
  const std::size_t workers = workload.pool_workers();
  const double usable = std::max(
      1.0, std::min(static_cast<double>(workers + 1),
                    calibration.effective_cores));
  report.Add("pool.workers", static_cast<double>(workers), "count");
  report.Add("pool.speedup", pool_speedup, "x");
  report.Add("pool.efficiency", workers == 0 ? 1.0 : pool_speedup / usable,
             "ratio");
  report.Add("all_worlds.plan_ms", ms("all_worlds.plan"), "ms");
  report.Add("all_worlds.sample_ms", ms("all_worlds.sample"), "ms");
  report.Add("all_worlds.worlds_per_s",
             ratio(tracer.count("all_worlds.worlds"),
                   tracer.seconds("all_worlds.sample")),
             "1/s");
  report.Add("all_worlds.pair_draws_per_world",
             ratio(tracer.count("all_worlds.pair_draws"),
                   tracer.count("all_worlds.worlds")),
             "count");
  report.Add("trace.overhead_pct",
             (Median(loop.traced_wall) / Median(loop.latency) - 1.0) * 100.0,
             "%");
  return report;
}

int Run(const Args& args) {
  const WorkloadSpec& spec = FindWorkload(Flag(args, "workload"));
  const std::uint64_t seed = UintFlag(args, "seed");
  const double seconds = std::atof(Flag(args, "seconds").c_str());
  const bool trace = Flag(args, "trace") == "1";
  const bool plant = args.flags.count("plant-wrong-answer") != 0;

  // nproc - 1 workers plus the calling thread, never more. Calibration
  // runs first, so set-up is timed on a warmed-up machine too.
  const std::size_t cpus = AvailableCpus();
  ThreadPool pool(cpus - 1);
  const Calibration calibration = Calibrate(pool);
  PrintEnvironment(cpus, calibration);

  SetupTimer setup(Flag(args, "input"), spec.kind, seed);
  auto instance_or = setup.LoadOnce();
  if (!instance_or.ok()) {
    std::fprintf(stderr, "setup: %s\n",
                 instance_or.status().ToString().c_str());
    return 1;
  }
  const Instance& in = *instance_or.value();
  auto solver_or = SkylineSolver::Create(in.data, in.model());
  if (!solver_or.ok()) return 1;
  const SkylineSolver& solver = solver_or.value();

  std::unique_ptr<Workload> workload;
  switch (spec.kind) {
    case Kind::kDetBlockZipf:
      workload = std::make_unique<DetWorkload>(in, solver, seed);
      break;
    case Kind::kSamUniform:
      workload = std::make_unique<SamWorkload>(in, solver, pool, seed);
      break;
    case Kind::kBatchNursery:
      workload = std::make_unique<BatchWorkload>(in, solver, pool);
      break;
    case Kind::kSkylineBlockZipf:
      workload = std::make_unique<SkylineWorkload>(in, pool, seed);
      break;
  }
  // Warm-up: caches fill and lazy set-up finishes before timing.
  if (!workload->Query(0).ok()) std::printf("info warmup_failed 1\n");

  // The closed loop: one client, the next query after the last returned.
  LoopResult loop;
  Tracer tracer;
  const auto start = Clock::now();
  double next_setup_sample = 0.0;
  for (std::uint64_t q = 0;
       q == 0 || SecondsBetween(start, Clock::now()) < seconds; ++q) {
    // Untimed: a short batch of set-up repetitions every half second.
    if (SecondsBetween(start, Clock::now()) >= next_setup_sample) {
      Status sampled = setup.Sample(0.01);
      if (!sampled.ok()) {
        std::fprintf(stderr, "setup: %s\n", sampled.ToString().c_str());
        return 1;
      }
      next_setup_sample += 0.5;
    }
    const double cpu0 = CpuSeconds();
    const auto t0 = Clock::now();
    Status status = workload->Query(q);
    const auto t1 = Clock::now();
    const double cpu1 = CpuSeconds();
    loop.latency.push_back(SecondsBetween(t0, t1));
    loop.cpu.push_back(cpu1 - cpu0);
    loop.bad.push_back(!status.ok());
    if (!status.ok()) continue;
    workload->Record(q);
    if (!trace) continue;
    tracer.BeginQuery();
    const auto t2 = Clock::now();
    Result<bool> same = workload->Traced(q, tracer);
    const double wall = SecondsBetween(t2, Clock::now());
    loop.traced_wall.push_back(wall);
    workload->CountUntimed(q, tracer);
    if (!same.ok() || !same.value()) {
      ++loop.mismatches;
      loop.bad[q] = true;
    }
    if (tracer.query_span_seconds() > wall) {
      ++loop.spans_over_wall;
      loop.bad[q] = true;
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const auto queries = static_cast<std::uint64_t>(loop.latency.size());
  const double nq = static_cast<double>(queries);

  Status referee = workload->PrepareReferee();
  if (!referee.ok()) {
    std::fprintf(stderr, "referee: %s\n", referee.ToString().c_str());
    return 1;
  }
  for (std::uint64_t q : workload->Verify(plant)) loop.bad[q] = true;
  const auto failed = static_cast<std::uint64_t>(
      std::count(loop.bad.begin(), loop.bad.end(), true));

  Report report =
      trace ? LayerReport(loop, tracer, *workload, setup, calibration,
                          spec.kind == Kind::kBatchNursery, in.data.size())
            : EndToEndReport(loop, *workload, setup, peak_rss_mb);
  if (trace) {
    std::printf("info traced_mismatches %llu\n",
                static_cast<unsigned long long>(loop.mismatches));
    std::printf("info spans_over_wall %llu\n",
                static_cast<unsigned long long>(loop.spans_over_wall));
  } else {
    // Printed, not part of the result object: failed_ratio is 0 on a
    // healthy run (the object carries it as failed/attempted), and a p90
    // needs at least ten samples beyond it.
    PrintMetricLine("failed_ratio", static_cast<double>(failed) / nq,
                    "ratio");
    if (queries >= 100) {
      PrintMetricLine("query_ms_p90", Percentile(loop.latency, 0.9) * 1e3,
                      "ms");
    }
  }
  std::printf("info queries %llu\n", static_cast<unsigned long long>(queries));
  std::printf("info failed %llu\n", static_cast<unsigned long long>(failed));
  report.PrintLines();
  const bool correct = failed == 0 && report.AllFinite();
  report.PrintJson(correct, queries, failed);
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (args.command == "generate") return Generate(args);
  if (args.command == "run") return Run(args);
  std::fprintf(stderr,
               "usage: skypref_bench generate --workload=W --seed=S --out=F\n"
               "       skypref_bench run --workload=W --seed=S --input=F "
               "--seconds=T --trace=0|1 [--plant-wrong-answer]\n");
  return 2;
}

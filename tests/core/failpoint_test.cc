/// Deterministic fault injection (src/util/failpoint.h): the facility
/// itself, and every armed site forcing its engine down the intended
/// degradation path — exact DFS, sampler loop, the poisoned sampler
/// block of the block, bit-sliced and batch Sam engines, parallel task,
/// batch target dispatch (plus its retry salvage pass), allocation failure,
/// delay and spurious-wake schedules, seeded chaos reproducibility, and
/// the arm-under-fire atomicity contract. The build always compiles the
/// sites in for this file: a failpoints-off tree links it against the
/// failpoints-on copy of the library (tests/CMakeLists.txt). Site-driven
/// tests skip only if the file is built some other way.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/core/monte_carlo.h"
#include "src/core/parallel.h"
#include "src/core/resilient.h"
#include "src/core/sam_bitslice.h"
#include "src/core/sam_parallel.h"
#include "src/core/solver.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::RandomSmallDataset;

#if defined(SKYPREF_FAILPOINTS) && SKYPREF_FAILPOINTS
constexpr bool kFailpointsCompiledIn = true;
#else
constexpr bool kFailpointsCompiledIn = false;
#endif

#define SKYPREF_REQUIRE_FAILPOINTS()                                \
  do {                                                              \
    if (!kFailpointsCompiledIn) {                                   \
      GTEST_SKIP() << "built without SKYPREF_FAILPOINTS";           \
    }                                                               \
  } while (false)

// The thread counts every determinism contract in this repo is pinned
// against (0 = inline execution on the calling thread).
const std::size_t kThreadCounts[] = {0, 1, 2, 8};

class FailpointTest : public ::testing::Test {
 protected:
  // Belt and braces: no test may leak an armed site into the next one.
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(FailpointTest, FacilityFiresOnTheNthHitExactlyOnce) {
  failpoint::Arm("test.site", 3);
  EXPECT_FALSE(failpoint::Hit("test.site"));
  EXPECT_FALSE(failpoint::Hit("test.site"));
  EXPECT_TRUE(failpoint::Hit("test.site"));   // the armed 3rd hit
  EXPECT_FALSE(failpoint::Hit("test.site"));  // fires exactly once
  EXPECT_EQ(failpoint::HitCount("test.site"), 4u);
  failpoint::Disarm("test.site");
  EXPECT_FALSE(failpoint::Hit("test.site"));
  EXPECT_EQ(failpoint::HitCount("test.site"), 0u);
}

TEST_F(FailpointTest, UnarmedSitesPassThrough) {
  EXPECT_FALSE(failpoint::Hit("never.armed"));
  EXPECT_EQ(failpoint::HitCount("never.armed"), 0u);
}

TEST_F(FailpointTest, RearmingRestartsTheCountdown) {
  failpoint::Arm("test.rearm", 2);
  EXPECT_FALSE(failpoint::Hit("test.rearm"));
  failpoint::Arm("test.rearm", 2);  // restart
  EXPECT_FALSE(failpoint::Hit("test.rearm"));
  EXPECT_TRUE(failpoint::Hit("test.rearm"));
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnExit) {
  {
    failpoint::ScopedFailpoint armed("test.scoped");
    EXPECT_TRUE(failpoint::Hit("test.scoped"));
  }
  EXPECT_FALSE(failpoint::Hit("test.scoped"));
}

TEST_F(FailpointTest, ExactDfsSiteForcesResourceExhausted) {
  SKYPREF_REQUIRE_FAILPOINTS();
  Dataset data = RandomSmallDataset(31, 10, 2, 4);
  TablePreferenceModel model;
  {
    failpoint::ScopedFailpoint armed("exact.dfs");
    auto run = ExactSkylineProbability(data, 0, model);
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(run.status().message().find("failpoint"), std::string::npos);
  }
  // Disarmed, the same solve succeeds.
  EXPECT_TRUE(ExactSkylineProbability(data, 0, model).ok());
}

TEST_F(FailpointTest, SamplerSiteTruncatesAtThePollBoundary) {
  SKYPREF_REQUIRE_FAILPOINTS();
  Dataset data = RandomSmallDataset(31, 10, 2, 4);
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 1000;
  failpoint::ScopedFailpoint armed("sampler.world");
  auto run = MonteCarloSkylineProbability(data, 0, model, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->truncated);
  EXPECT_EQ(run->samples, 64u);  // first deadline poll, every 64 worlds
  EXPECT_EQ(run->requested_samples, 1000u);
  EXPECT_GE(run->estimate, 0.0);
  EXPECT_LE(run->estimate, 1.0);
}

TEST_F(FailpointTest, ParallelTaskSiteAbortsTheQueryAtEveryThreadCount) {
  SKYPREF_REQUIRE_FAILPOINTS();
  // The "parallel.task" site lives in the intra-group task engine, which
  // engages only for groups of >= min_split_candidates (16): one
  // 18-candidate group connected through the shared dim-0 value.
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  for (std::size_t i = 0; i < 18; ++i) {
    data.Append({1, static_cast<ValueId>(i + 1)}).CheckOK();
  }
  TablePreferenceModel model;
  for (std::size_t threads : {0u, 1u, 2u, 8u}) {
    ThreadPool pool(threads);
    failpoint::ScopedFailpoint armed("parallel.task");
    auto run = ParallelExactSkylineProbability(data, 0, model, pool);
    // Whichever task absorbs the hit, the query-level outcome is the
    // same at every thread count.
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
        << "threads " << threads;
  }
}

TEST_F(FailpointTest, BatchTargetSiteCasualtyIsSalvagedByTheRetryPass) {
  SKYPREF_REQUIRE_FAILPOINTS();
  Dataset data = RandomSmallDataset(73, 12, 2, 4);
  TablePreferenceModel model;
  ThreadPool pool(2);
  auto clean = BatchExactSkylineProbabilities(data, model, pool);
  ASSERT_TRUE(clean.ok());

  // A single injected scheduler fault is transient: the default retry
  // pass re-dispatches the casualty once, and the salvaged value is
  // bit-identical to the fault-free run.
  failpoint::ScopedFailpoint armed("batch.target");
  BatchExactStats stats;
  auto run = BatchExactSkylineProbabilities(data, model, pool, {}, &stats);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(stats.failed_targets, 0u);
  EXPECT_EQ(stats.retried_targets, 1u);
  EXPECT_EQ(stats.salvaged_targets, 1u);
  EXPECT_EQ(*run, *clean);
  for (ObjectId t = 0; t < data.size(); ++t) {
    EXPECT_TRUE(stats.target_status[t].ok()) << "target " << t;
  }
}

TEST_F(FailpointTest, BatchRetrySiteDoubleFaultStampsNaNWithRetryStatus) {
  SKYPREF_REQUIRE_FAILPOINTS();
  Dataset data = RandomSmallDataset(73, 12, 2, 4);
  TablePreferenceModel model;
  ThreadPool pool(2);
  auto clean = BatchExactSkylineProbabilities(data, model, pool);
  ASSERT_TRUE(clean.ok());
  // First fault kills one target's dispatch; the second kills its one
  // salvage attempt. The slot must end as NaN plus the RETRY failure —
  // never a stale or fabricated value.
  failpoint::ScopedFailpoint primary("batch.target");
  failpoint::ScopedFailpoint secondary("batch.retry");
  BatchExactStats stats;
  auto run = BatchExactSkylineProbabilities(data, model, pool, {}, &stats);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(stats.failed_targets, 1u);
  EXPECT_EQ(stats.retried_targets, 1u);
  EXPECT_EQ(stats.salvaged_targets, 0u);
  std::size_t failed = 0;
  for (ObjectId t = 0; t < data.size(); ++t) {
    if (stats.target_status[t].ok()) {
      // Surviving targets keep their bit-identical exact values.
      EXPECT_EQ((*run)[t], (*clean)[t]) << "target " << t;
      continue;
    }
    ++failed;
    EXPECT_EQ(stats.target_status[t].code(), StatusCode::kResourceExhausted);
    EXPECT_NE(stats.target_status[t].message().find("batch.retry"),
              std::string::npos);
    EXPECT_TRUE(std::isnan((*run)[t]));
  }
  EXPECT_EQ(failed, 1u);
}

TEST_F(FailpointTest, AllocSiteFailsTheFlatExactDispatch) {
  SKYPREF_REQUIRE_FAILPOINTS();
  Dataset data = RandomSmallDataset(31, 10, 2, 4);
  TablePreferenceModel model;
  failpoint::Schedule alloc_once;
  alloc_once.kind = failpoint::FaultKind::kAllocFail;
  {
    failpoint::ScopedFailpoint armed("alloc.exact.flat_instance", alloc_once);
    auto run = ExactSkylineProbability(data, 0, model);
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(run.status().message().find("allocation failed"),
              std::string::npos);
  }
  // Disarmed, the same solve succeeds.
  EXPECT_TRUE(ExactSkylineProbability(data, 0, model).ok());
}

TEST_F(FailpointTest, AllocFailureDegradesThroughTheResilientLadder) {
  SKYPREF_REQUIRE_FAILPOINTS();
  Dataset data = RandomSmallDataset(47, 12, 2, 4);
  TablePreferenceModel model;
  ResilientOptions options;
  options.solver.monte_carlo.samples = 200;
  failpoint::Schedule alloc_once;
  alloc_once.kind = failpoint::FaultKind::kAllocFail;
  failpoint::ScopedFailpoint armed("alloc.exact.flat_instance", alloc_once);
  auto run = ResilientSkylineProbability(data, 0, model, options);
  ASSERT_TRUE(run.ok()) << run.status();
  // Exactly one group's flat-instance build failed (kSingle fires once);
  // the ladder sampled that group instead of failing the query.
  std::size_t sampled = 0;
  for (const GroupReport& g : run->groups) {
    if (g.quality != GroupQuality::kSampled) continue;
    ++sampled;
    EXPECT_EQ(g.exact_status.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(g.exact_status.message().find("allocation failed"),
              std::string::npos);
  }
  EXPECT_EQ(sampled, 1u);
  EXPECT_GE(run->estimate, 0.0);
  EXPECT_LE(run->estimate, 1.0);
}

TEST_F(FailpointTest, DelayScheduleChangesNoResult) {
  SKYPREF_REQUIRE_FAILPOINTS();
  Dataset data = RandomSmallDataset(73, 12, 2, 4);
  TablePreferenceModel model;
  ThreadPool pool(2);
  auto clean = BatchExactSkylineProbabilities(data, model, pool);
  ASSERT_TRUE(clean.ok());

  // Period 2 because exact.dfs hit ordinals are solve entries plus
  // amortized poll crossings — a dozen-target batch yields tens of
  // hits, not thousands.
  failpoint::Schedule delay;
  delay.kind = failpoint::FaultKind::kDelay;
  delay.pattern = failpoint::Schedule::Pattern::kPeriodic;
  delay.n = 2;
  delay.delay_micros = 100;
  const std::uint64_t fired_before = failpoint::FiredCount();
  failpoint::ScopedFailpoint armed("exact.dfs", delay);
  BatchExactStats stats;
  auto run = BatchExactSkylineProbabilities(data, model, pool, {}, &stats);
  ASSERT_TRUE(run.ok()) << run.status();
  // Delays open race windows but must be behaviorally invisible.
  EXPECT_EQ(*run, *clean);
  EXPECT_EQ(stats.failed_targets, 0u);
  EXPECT_GT(failpoint::FiredCount(), fired_before);
}

TEST_F(FailpointTest, SeededSchedulesAreReproducibleFromTheSeed) {
  SKYPREF_REQUIRE_FAILPOINTS();
  Dataset data = RandomSmallDataset(91, 8, 2, 3);
  TablePreferenceModel model;
  ThreadPool pool(0);  // serial: full run-to-run determinism contract

  constexpr std::uint64_t kSeed = 0x5eed5eed5eed5eedULL;
  const std::size_t armed_first = failpoint::ArmSeededSchedule(kSeed);
  BatchExactStats stats_first;
  auto first = BatchExactSkylineProbabilities(data, model, pool, {},
                                              &stats_first);
  failpoint::DisarmAll();

  const std::size_t armed_second = failpoint::ArmSeededSchedule(kSeed);
  BatchExactStats stats_second;
  auto second = BatchExactSkylineProbabilities(data, model, pool, {},
                                               &stats_second);
  failpoint::DisarmAll();

  // Same seed, same derived schedules, same casualties, same bits.
  EXPECT_EQ(armed_first, armed_second);
  ASSERT_EQ(first.ok(), second.ok());
  if (!first.ok()) return;  // a seed may legitimately cancel the batch
  ASSERT_EQ(first->size(), second->size());
  for (ObjectId t = 0; t < data.size(); ++t) {
    if (std::isnan((*first)[t])) {
      EXPECT_TRUE(std::isnan((*second)[t])) << "target " << t;
    } else {
      EXPECT_EQ((*first)[t], (*second)[t]) << "target " << t;
    }
    EXPECT_EQ(stats_first.target_status[t].code(),
              stats_second.target_status[t].code())
        << "target " << t;
  }
  EXPECT_EQ(stats_first.failed_targets, stats_second.failed_targets);
  EXPECT_EQ(stats_first.retried_targets, stats_second.retried_targets);
  EXPECT_EQ(stats_first.salvaged_targets, stats_second.salvaged_targets);
}

TEST_F(FailpointTest, SpuriousWakeStormPerturbsNoParallelForIndex) {
  SKYPREF_REQUIRE_FAILPOINTS();
  ThreadPool pool(4);
  failpoint::Schedule storm;
  storm.kind = failpoint::FaultKind::kSpuriousWake;
  storm.pattern = failpoint::Schedule::Pattern::kPeriodic;
  storm.n = 1;  // every dispatch raises the storm
  failpoint::ScopedFailpoint armed("threadpool.wait", storm);
  constexpr std::size_t kItems = 512;
  for (int round = 0; round < 4; ++round) {
    std::vector<std::atomic<int>> counts(kItems);
    pool.ParallelFor(kItems, [&counts](std::size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    // Every wait in the pool re-checks its predicate under the lock, so
    // a notification flood must never drop or double-run an index.
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(counts[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST_F(FailpointTest, WakeStormLeavesBatchResultsIdentical) {
  SKYPREF_REQUIRE_FAILPOINTS();
  Dataset data = RandomSmallDataset(73, 12, 2, 4);
  TablePreferenceModel model;
  ThreadPool pool(4);
  auto clean = BatchExactSkylineProbabilities(data, model, pool);
  ASSERT_TRUE(clean.ok());
  failpoint::Schedule storm;
  storm.kind = failpoint::FaultKind::kSpuriousWake;
  storm.pattern = failpoint::Schedule::Pattern::kPeriodic;
  storm.n = 1;
  failpoint::ScopedFailpoint armed("threadpool.wait", storm);
  auto stormy = BatchExactSkylineProbabilities(data, model, pool);
  ASSERT_TRUE(stormy.ok()) << stormy.status();
  EXPECT_EQ(*clean, *stormy);
}

TEST_F(FailpointTest, RearmingUnderConcurrentHitsFiresAtMostOncePerArming) {
  SKYPREF_REQUIRE_FAILPOINTS();
  // Each arming publishes a fresh counter; a thread mid-site keeps
  // charging the counter it snapshotted. The kSingle contract — at most
  // one fire per arming — must survive re-arming races (this is the
  // TSan half of the contract; the count bound is the functional half).
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> fires{0};
  std::vector<std::thread> hammers;
  hammers.reserve(4);
  for (int i = 0; i < 4; ++i) {
    hammers.emplace_back([&stop, &fires] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (failpoint::Hit("test.race")) {
          fires.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  constexpr std::uint64_t kArmings = 200;
  for (std::uint64_t a = 0; a < kArmings; ++a) {
    failpoint::Arm("test.race", 1);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  failpoint::Disarm("test.race");
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : hammers) t.join();
  EXPECT_GE(fires.load(), 1u);
  EXPECT_LE(fires.load(), kArmings);
}

TEST_F(FailpointTest, DegradedThreadPoolRunsInlineWithIdenticalResults) {
  SKYPREF_REQUIRE_FAILPOINTS();
  Dataset data = RandomSmallDataset(61, 14, 3, 4);
  TablePreferenceModel model;
  ThreadPool pool(4);
  auto clean = BatchExactSkylineProbabilities(data, model, pool);
  ASSERT_TRUE(clean.ok());
  failpoint::ScopedFailpoint armed("threadpool.serial");
  auto degraded = BatchExactSkylineProbabilities(data, model, pool);
  ASSERT_TRUE(degraded.ok());
  // The determinism contract: a dispatch forced inline on the caller
  // changes nothing about the results.
  EXPECT_EQ(*clean, *degraded);
}

TEST_F(FailpointTest, ResilientLadderDegradesExactlyTheInjectedGroup) {
  SKYPREF_REQUIRE_FAILPOINTS();
  // Target (0,0); one 10-candidate blob connected through dim-0 value 1,
  // plus two singleton groups. Serial pool: the exact rung runs
  // longest-first, so the armed first DFS visit lands in the blob.
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  for (std::size_t i = 0; i < 10; ++i) {
    data.Append({1, static_cast<ValueId>(i + 1)}).CheckOK();
  }
  data.Append({100, 100}).CheckOK();
  data.Append({101, 101}).CheckOK();
  TablePreferenceModel model;
  ResilientOptions options;
  options.solver.monte_carlo.samples = 200;
  failpoint::ScopedFailpoint armed("exact.dfs");
  auto run = ResilientSkylineProbability(data, 0, model, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run->fully_exact);
  std::size_t sampled = 0;
  for (const GroupReport& g : run->groups) {
    if (g.quality == GroupQuality::kSampled) {
      ++sampled;
      EXPECT_EQ(g.size, 10u);
      EXPECT_NE(g.exact_status.message().find("failpoint"),
                std::string::npos);
    } else {
      EXPECT_EQ(g.quality, GroupQuality::kExact);
    }
  }
  EXPECT_EQ(sampled, 1u);
  EXPECT_GE(run->estimate, 0.0);
  EXPECT_LE(run->estimate, 1.0);
}

TEST_F(FailpointTest, BlockSamPoisonsTheSameBlockAtEveryThreadCount) {
  SKYPREF_REQUIRE_FAILPOINTS();
  Dataset data = RandomSmallDataset(17, 24, 3, 4);
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 4096;
  options.block_size = 512;  // 8 blocks
  options.seed = 3;

  // Arming "fire on hit k" poisons block k: the pre-dispatch scan
  // consumes the site serially over block indices 1..7 (block 0 is
  // exempt), so the counted prefix is blocks [0, k) — 512 k worlds —
  // regardless of the pool.
  for (std::uint64_t fire_on_hit : {std::uint64_t{1}, std::uint64_t{3}}) {
    std::vector<MonteCarloResult> runs;
    for (std::size_t threads : kThreadCounts) {
      failpoint::ScopedFailpoint armed("sampler.block", fire_on_hit);
      ThreadPool pool(threads);
      auto run =
          BlockMonteCarloSkylineProbability(data, 0, model, pool, options);
      ASSERT_TRUE(run.ok()) << run.status();
      runs.push_back(*run);
    }
    for (const MonteCarloResult& run : runs) {
      EXPECT_TRUE(run.truncated);
      EXPECT_EQ(run.samples, 512u * fire_on_hit);
      EXPECT_EQ(run.skyline_worlds, runs.front().skyline_worlds);
      EXPECT_EQ(run.pair_draws, runs.front().pair_draws);
    }
  }
}

TEST_F(FailpointTest, BatchSamTruncatesTheBatchDeterministically) {
  SKYPREF_REQUIRE_FAILPOINTS();
  Dataset data = RandomSmallDataset(11, 12, 2, 4);
  TablePreferenceModel model;
  SolverOptions options;
  options.monte_carlo.samples = 2048;
  options.monte_carlo.block_size = 512;  // 4 blocks

  std::vector<std::vector<double>> estimates;
  std::vector<BatchSamStats> stats;
  for (std::size_t threads : kThreadCounts) {
    failpoint::ScopedFailpoint armed("sampler.block", 2);
    ThreadPool pool(threads);
    BatchSamStats s;
    auto run = BatchMonteCarloSkylineProbabilities(data, model, pool, options,
                                                   &s);
    ASSERT_TRUE(run.ok()) << run.status();
    estimates.push_back(*run);
    stats.push_back(s);
  }
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    EXPECT_TRUE(stats[i].truncated);
    EXPECT_EQ(stats[i].samples, 1024u);  // blocks 0 and 1
    EXPECT_EQ(stats[i].pair_draws, stats.front().pair_draws);
    EXPECT_EQ(estimates[i], estimates.front());
  }
}

TEST_F(FailpointTest, BitSlicedSamPoisonsTheSameBlockAtEveryThreadCount) {
  SKYPREF_REQUIRE_FAILPOINTS();
  Dataset data = RandomSmallDataset(17, 24, 3, 4);
  TablePreferenceModel model;
  MonteCarloOptions options;
  options.samples = 4096;
  options.block_size = 512;  // 8 blocks
  options.seed = 3;

  // Arming "fire on hit k" poisons block k through the same serial
  // pre-dispatch scan as the scalar block engine: the counted prefix is
  // blocks [0, k) — 512 k worlds — regardless of the pool.
  for (std::uint64_t fire_on_hit : {std::uint64_t{1}, std::uint64_t{3}}) {
    std::vector<MonteCarloResult> runs;
    for (std::size_t threads : kThreadCounts) {
      failpoint::ScopedFailpoint armed("sampler.block", fire_on_hit);
      ThreadPool pool(threads);
      auto run =
          BitSlicedMonteCarloSkylineProbability(data, 0, model, pool, options);
      ASSERT_TRUE(run.ok()) << run.status();
      runs.push_back(*run);
    }
    for (const MonteCarloResult& run : runs) {
      EXPECT_TRUE(run.truncated);
      EXPECT_EQ(run.samples, 512u * fire_on_hit);
      EXPECT_EQ(run.skyline_worlds, runs.front().skyline_worlds);
      EXPECT_EQ(run.pair_draws, runs.front().pair_draws);
    }
  }
}

}  // namespace
}  // namespace skypref

#include "src/core/parallel.h"

#include <chrono>
#include <cstddef>

#include <gtest/gtest.h>

#include "src/core/exact.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::RandomSmallDataset;

TEST(ParallelExactTest, MatchesSerialDetPlus) {
  Dataset data = RandomSmallDataset(41, 14, 3, 4);
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  ThreadPool pool(4);
  for (ObjectId target = 0; target < 5; ++target) {
    double serial = solver.Exact(target).value();
    double parallel =
        ParallelExactSkylineProbability(data, target, model, pool).value();
    EXPECT_NEAR(parallel, serial, 1e-12) << "target " << target;
  }
}

TEST(ParallelExactTest, ZeroThreadPoolIsIdentical) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  ThreadPool inline_pool(0);
  EXPECT_DOUBLE_EQ(
      ParallelExactSkylineProbability(data, 0, model, inline_pool).value(),
      3.0 / 16.0);
}

TEST(ParallelExactTest, GroupBudgetErrorsPropagate) {
  // A chained group of three candidates that absorption cannot shrink:
  // (1,1)-(1,2) share dim-0 value 1, (1,2)-(3,2) share dim-1 value 2.
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  data.Append({1, 1}).CheckOK();
  data.Append({1, 2}).CheckOK();
  data.Append({3, 2}).CheckOK();
  TablePreferenceModel model;
  ThreadPool pool(2);
  ExactOptions tight;
  tight.max_subsets = 1;  // the 3-member group needs 7 subsets
  auto result =
      ParallelExactSkylineProbability(data, 0, model, pool, tight);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// One independence group: every candidate shares dim-0 value 1 (vs the
// target's 0) while staying distinct on dim 1, so absorption keeps all
// of them and partition cannot split. Forces the intra-group engine once
// the group passes min_split_candidates.
Dataset SingleGroupDataset(std::size_t candidates) {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();  // target
  for (std::size_t i = 0; i < candidates; ++i) {
    data.Append({1, static_cast<ValueId>(i + 1)}).CheckOK();
  }
  return data;
}

TEST(ParallelExactTest, IntraGroupSplitMatchesSerialEngine) {
  Dataset data = SingleGroupDataset(17);
  TablePreferenceModel model;
  SolveStats stats;
  ThreadPool pool(4);
  auto split = ParallelExactSkylineProbability(data, 0, model, pool, {}, {},
                                               &stats);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.largest_group, 17u);
  auto solver = SkylineSolver::Create(data, model).value();
  SolveStats serial_stats;
  double serial = solver.Exact(0, {}, &serial_stats).value();
  // The task decomposition re-associates the compensated sum, so the
  // split result may differ from the serial one in the last ulps — but
  // never beyond summation tolerance.
  EXPECT_NEAR(split.value(), serial, 1e-12);
  EXPECT_EQ(stats.subsets_visited, serial_stats.subsets_visited);
}

TEST(ParallelExactTest, IntraGroupSplitThreadCountInvariance) {
  Dataset data = SingleGroupDataset(18);
  TablePreferenceModel model;
  ThreadPool pool0(0), pool1(1), pool2(2), pool8(8);
  auto baseline = ParallelExactSkylineProbability(data, 0, model, pool0);
  ASSERT_TRUE(baseline.ok());
  for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    auto run = ParallelExactSkylineProbability(data, 0, model, *pool);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.value(), baseline.value())
        << "threads=" << pool->thread_count();
  }
}

TEST(ParallelExactTest, TaskCountIsPartOfTheNumericContract) {
  Dataset data = SingleGroupDataset(18);
  TablePreferenceModel model;
  ThreadPool pool(3);
  ParallelOptions tasks32;
  tasks32.exact_tasks = 32;
  auto a = ParallelExactSkylineProbability(data, 0, model, pool, {}, tasks32);
  auto b = ParallelExactSkylineProbability(data, 0, model, pool, {}, tasks32);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST(ParallelExactTest, SplitGroupBudgetErrorsPropagate) {
  Dataset data = SingleGroupDataset(18);
  TablePreferenceModel model;
  ThreadPool pool(4);
  ExactOptions tight;
  tight.max_subsets = 1000;  // the group enumerates 2^18 - 1 subsets
  EXPECT_EQ(ParallelExactSkylineProbability(data, 0, model, pool, tight)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(ParallelExactTest, PreExpiredDeadlineAbortsTheWholeQuery) {
  Dataset data = SingleGroupDataset(18);
  TablePreferenceModel model;
  ThreadPool pool(4);
  QueryBudget expired;
  expired.deadline = Deadline::At(std::chrono::steady_clock::now() -
                                  std::chrono::seconds(1));
  EXPECT_EQ(ParallelExactSkylineProbability(data, 0, model, pool, {}, {},
                                            nullptr, expired)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(ParallelExactTest, RecordsGroupSizesLongestFirstInputOrder) {
  Dataset data = RandomSmallDataset(47, 14, 3, 4);
  TablePreferenceModel model;
  ThreadPool pool(2);
  SolveStats stats;
  auto run =
      ParallelExactSkylineProbability(data, 0, model, pool, {}, {}, &stats);
  ASSERT_TRUE(run.ok());
  // group_sizes stays in partition order (the reduction order), whatever
  // order the scheduler dispatched the groups in.
  EXPECT_EQ(stats.group_sizes.size(), stats.groups);
  std::size_t total = 0;
  for (std::size_t size : stats.group_sizes) total += size;
  EXPECT_EQ(total, stats.after_absorption);
}

TEST(ParallelExactTest, PreCancelledTokenCancelsAtEveryThreadCount) {
  // Cancellation is observed at deterministic work boundaries, so a
  // token cancelled before the solve starts yields Status::Cancelled —
  // not ResourceExhausted, not a partial answer — at any thread count.
  Dataset data = RandomSmallDataset(47, 14, 3, 4);
  TablePreferenceModel model;
  CancelToken token;
  token.RequestCancel();
  QueryBudget cancelled;
  cancelled.cancel = &token;
  for (std::size_t threads : {0u, 1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(ParallelExactSkylineProbability(data, 0, model, pool, {}, {},
                                              nullptr, cancelled)
                  .status()
                  .code(),
              StatusCode::kCancelled)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace skypref

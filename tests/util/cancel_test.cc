/// Deadline / CancelToken / QueryBudget semantics (src/util/cancel.h): the
/// unified deadline type's never/at/after states, the shared-flag token,
/// the CheckStop precedence rule (cancellation beats deadline expiry), and
/// QueryBudget::Resolve, the one place a time limit becomes a deadline.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/util/cancel.h"

namespace skypref {
namespace {

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline never;
  EXPECT_FALSE(never.has_value());
  EXPECT_FALSE(never.Expired());
  EXPECT_FALSE(Deadline::Never().has_value());
}

TEST(DeadlineTest, NonPositiveSecondsMeansNever) {
  EXPECT_FALSE(Deadline::After(0.0).has_value());
  EXPECT_FALSE(Deadline::After(-1.0).has_value());
}

TEST(DeadlineTest, AfterPositiveSecondsIsSetAndNotYetExpired) {
  Deadline later = Deadline::After(3600.0);
  EXPECT_TRUE(later.has_value());
  EXPECT_FALSE(later.Expired());
  EXPECT_GT(later.when(), Deadline::Clock::now());
}

TEST(DeadlineTest, AtPastTimeIsExpired) {
  Deadline past = Deadline::At(Deadline::Clock::now() -
                               std::chrono::seconds(1));
  EXPECT_TRUE(past.has_value());
  EXPECT_TRUE(past.Expired());
}

TEST(CancelTokenTest, DefaultConstructedIsLive) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTokenTest, CopiesShareTheFlag) {
  CancelToken token;
  CancelToken copy = token;
  copy.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
  // Idempotent.
  token.RequestCancel();
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTokenTest, CancelFromAnotherThreadIsObserved) {
  CancelToken token;
  std::thread other([token] { token.RequestCancel(); });
  other.join();
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTest, CancelledStatusCode) {
  EXPECT_EQ(CancelledStatus().code(), StatusCode::kCancelled);
}

TEST(CheckStopTest, OkWhenNothingTripped) {
  CancelToken token;
  EXPECT_TRUE(CheckStop(&token, Deadline::Never()).ok());
  EXPECT_TRUE(CheckStop(nullptr, Deadline::Never()).ok());
}

TEST(CheckStopTest, ExpiredDeadlineIsResourceExhausted) {
  Deadline past = Deadline::At(Deadline::Clock::now() -
                               std::chrono::seconds(1));
  EXPECT_EQ(CheckStop(nullptr, past).code(), StatusCode::kResourceExhausted);
}

TEST(CheckStopTest, CancellationBeatsDeadlineExpiry) {
  CancelToken token;
  token.RequestCancel();
  Deadline past = Deadline::At(Deadline::Clock::now() -
                               std::chrono::seconds(1));
  EXPECT_EQ(CheckStop(&token, past).code(), StatusCode::kCancelled);
}

// With neither a limit nor a deadline the resolved budget has no
// deadline, so no engine poll of it reads the clock.
TEST(QueryBudgetResolveTest, UnlimitedBudgetGetsNoDeadline) {
  CancelToken token;
  for (double limit : {0.0, -1.0}) {
    QueryBudget budget;
    budget.time_limit_seconds = limit;
    budget.cancel = &token;
    auto resolved = budget.Resolve();
    ASSERT_TRUE(resolved.ok());
    EXPECT_FALSE(resolved->deadline.has_value());
    EXPECT_EQ(resolved->cancel, &token);
  }
}

// An explicit deadline wins over the limit; a limit counts from Resolve;
// either way the resolved budget's limit is spent, so resolving it again
// keeps its deadline instead of restarting the clock.
TEST(QueryBudgetResolveTest, ResolvingAgainKeepsTheDeadline) {
  QueryBudget explicit_deadline;
  explicit_deadline.time_limit_seconds = 3600.0;
  explicit_deadline.deadline =
      Deadline::At(Deadline::Clock::now() - std::chrono::seconds(1));
  QueryBudget limit_only;
  limit_only.time_limit_seconds = 3600.0;
  for (const QueryBudget& budget : {explicit_deadline, limit_only}) {
    auto first = budget.Resolve();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->deadline.has_value());
    EXPECT_EQ(first->time_limit_seconds, 0.0);
    auto second = first->Resolve();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->deadline.when(), first->deadline.when());
  }
  EXPECT_TRUE(explicit_deadline.Resolve()->deadline.Expired());
  EXPECT_FALSE(limit_only.Resolve()->deadline.Expired());
}

TEST(QueryBudgetResolveTest, TrippedTokenResolvesToCancelled) {
  CancelToken token;
  token.RequestCancel();
  QueryBudget budget;
  budget.cancel = &token;
  EXPECT_EQ(budget.Resolve().status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(budget.cancelled());
}

}  // namespace
}  // namespace skypref

#ifndef SKYPREF_TESTS_TEST_UTIL_H_
#define SKYPREF_TESTS_TEST_UTIL_H_

/// \file
/// Shared fixtures: the paper's worked instances as golden references,
/// and a seeded random-instance generator for property tests.
///
/// Both instances use the paper's "every pair equally preferred with
/// probability 1/2" model.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "src/model/dataset.h"
#include "src/model/preference_generator.h"
#include "src/model/preference_model.h"
#include "src/util/cancel.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace skypref::testing {

/// The Figure-1 observation instance. Rows: P1=(a,s), P2=(a,t), P3=(b,t)
/// with value ids a=0,b=1 on dim 0 and s=0,t=1 on dim 1. With unanimous
/// 1/2 preferences: sky(P1) = 1/2 (Sac wrongly says 3/8), sky(P2) = 1/4,
/// sky(P3) = 1/2 (Sac wrongly says 3/8).
inline Dataset Figure1Dataset() {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();  // P1
  data.Append({0, 1}).CheckOK();  // P2
  data.Append({1, 1}).CheckOK();  // P3
  return data;
}

/// The Example-1 / Figure-4 running instance. Rows: O=(0,0), Q1=(1,1),
/// Q2=(1,0), Q3=(2,2), Q4=(0,1). With unanimous 1/2 preferences:
///   Pr(e1)=1/4, Pr(e2)=1/2, Pr(e3)=1/4, Pr(e4)=1/2,
///   inclusion-exclusion levels 24/16, 17/16, 7/16, 1/16,
///   sky(O) = 3/16 (the independent baseline wrongly says 9/64),
///   Q1 is absorbed by Q2, and the remaining candidates split into the
///   three singleton groups {Q2}, {Q3}, {Q4}.
inline Dataset Example1Dataset() {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();  // O
  data.Append({1, 1}).CheckOK();  // Q1
  data.Append({1, 0}).CheckOK();  // Q2
  data.Append({2, 2}).CheckOK();  // Q3
  data.Append({0, 1}).CheckOK();  // Q4
  return data;
}

/// Unanimous-1/2 preferences as an explicit rational table over the
/// dataset's value universe (usable both exactly and as doubles).
inline RationalPreferenceModel UnanimousHalfRational(const Dataset& data) {
  RationalPreferenceModel model;
  const Rational half(BigInt(1), BigInt(2));
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    ValueId bound = data.value_bound(j);
    for (ValueId a = 0; a < bound; ++a) {
      for (ValueId b = a + 1; b < bound; ++b) {
        model.Set(j, a, b, half, half).CheckOK();
      }
    }
  }
  return model;
}

/// A random duplicate-free dataset with small per-dimension domains, for
/// property tests (dependence through shared values is ubiquitous).
inline Dataset RandomSmallDataset(std::uint64_t seed, std::size_t objects,
                                  std::size_t dimensions, ValueId values) {
  // Rows are distinct, so the value universe must hold at least
  // `objects` tuples; a too-small universe would spin forever in the
  // rejection loop below.
  std::uint64_t capacity = 1;
  for (std::size_t j = 0; j < dimensions && capacity < objects; ++j) {
    capacity *= values;
  }
  SKYPREF_CHECK(capacity >= objects);
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

/// A target (0, 0) and \p groups independence groups of \p per_group
/// candidates each: group g's candidates take value g + 1 on dimension 0
/// and distinct values on dimension 1, so they share one preference
/// variable within the group and none across groups, and none absorbs
/// another. Object 0 is the target.
inline Dataset ManyGroupsDataset(std::size_t groups, std::size_t per_group) {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  ValueId next = 1;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t i = 0; i < per_group; ++i) {
      data.Append({static_cast<ValueId>(g + 1), next++}).CheckOK();
    }
  }
  return data;
}

/// Trips a CancelToken from a helper thread once \p seconds pass, unless
/// the guard is destroyed first. A test of a call that must return at
/// once passes guard.token() as the call's cancel token, so a call that
/// would hang fails with Cancelled instead.
class CancelAfter {
 public:
  explicit CancelAfter(double seconds)
      : thread_([this, seconds] {
          const auto until = std::chrono::steady_clock::now() +
                             std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(seconds));
          while (!done_.load()) {
            if (std::chrono::steady_clock::now() >= until) {
              token_.RequestCancel();
              return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }) {}
  ~CancelAfter() {
    done_.store(true);
    thread_.join();
  }
  CancelAfter(const CancelAfter&) = delete;
  CancelAfter& operator=(const CancelAfter&) = delete;

  const CancelToken* token() const { return &token_; }

 private:
  CancelToken token_;
  std::atomic<bool> done_{false};
  std::thread thread_;  // last: starts after the members it reads
};

/// The fixed seeded instance of stream_pin_test, on which every random
/// stream is pinned.
inline Dataset StreamPinDataset() {
  return RandomSmallDataset(20261017, 14, 3, 4);
}

/// Simplex preferences give every pair incomparability mass (the ternary
/// draws matter); two orientations forced to exactly zero exercise the
/// impossible-candidate pruning of the batch plan and the bit-sliced
/// engine.
inline TablePreferenceModel StreamPinModel(const Dataset& data) {
  TablePreferenceModel model;
  PreferenceGenOptions gen;
  gen.style = PreferenceGenOptions::Style::kSimplexUniform;
  gen.seed = 91;
  GeneratePreferences(data, gen, &model).CheckOK();
  model.Set(0, 0, 1, 0.0, 0.6).CheckOK();
  model.Set(1, 2, 3, 0.7, 0.0).CheckOK();
  return model;
}

}  // namespace skypref::testing

#endif  // SKYPREF_TESTS_TEST_UTIL_H_

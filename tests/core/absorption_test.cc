#include "src/core/absorption.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/dominance.h"
#include "src/core/solver.h"
#include "src/reduction/dnf.h"
#include "src/util/random.h"
#include "src/workload/block_zipf_generator.h"
#include "src/workload/car_evaluation.h"
#include "src/workload/nursery.h"
#include "src/workload/uniform_generator.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::RandomSmallDataset;
using skypref::testing::UnanimousHalfRational;

std::vector<ObjectId> AllBut(const Dataset& data, ObjectId target) {
  std::vector<ObjectId> ids;
  for (ObjectId i = 0; i < data.size(); ++i) {
    if (i != target) ids.push_back(i);
  }
  return ids;
}

TEST(AbsorbsTest, Example1Q1AbsorbedByQ2) {
  Dataset data = Example1Dataset();
  // Q2=(1,0) differs from O on dim 0 only; Q1=(1,1) matches Q2 there.
  EXPECT_TRUE(Absorbs(data, 0, /*absorber=*/2, /*absorbed=*/1));
  // Not the other way round: Q1 differs from O on both dims, and Q2
  // differs from Q1 on dim 1.
  EXPECT_FALSE(Absorbs(data, 0, /*absorber=*/1, /*absorbed=*/2));
  // Q3=(2,2) shares nothing.
  EXPECT_FALSE(Absorbs(data, 0, 2, 3));
  EXPECT_FALSE(Absorbs(data, 0, 3, 1));
  // Self-absorption is excluded.
  EXPECT_FALSE(Absorbs(data, 0, 2, 2));
}

TEST(AbsorptionTest, Example1DropsExactlyQ1) {
  Dataset data = Example1Dataset();
  AbsorptionStats stats;
  std::vector<ObjectId> survivors =
      AbsorbCandidates(data, 0, AllBut(data, 0), &stats);
  EXPECT_EQ(survivors, (std::vector<ObjectId>{2, 3, 4}));
  EXPECT_EQ(stats.input_candidates, 4u);
  EXPECT_EQ(stats.absorbed, 1u);
}

TEST(AbsorptionTest, PreservesSkylineProbabilityExactly) {
  Dataset data = Example1Dataset();
  RationalPreferenceModel model = UnanimousHalfRational(data);
  RationalOracle oracle(model);
  std::vector<ObjectId> all = AllBut(data, 0);
  std::vector<ObjectId> survivors = AbsorbCandidates(data, 0, all);
  Rational before = ExactSkylineProbability(data, 0, all, oracle).value();
  Rational after =
      ExactSkylineProbability(data, 0, survivors, oracle).value();
  EXPECT_EQ(before, after);
  EXPECT_EQ(after, Rational::FromRatio(3, 16).value());
}

TEST(AbsorptionTest, TransitiveChainCollapsesInOnePass) {
  // Qa differs from O on dim 0 only; Qb matches Qa there and differs on
  // dim 1 too; Qc matches Qb on both differing dims. Qa absorbs Qb,
  // Qb absorbs Qc, so Qa must absorb Qc (Corollary 1).
  Dataset data(3);
  data.Append({0, 0, 0}).CheckOK();  // O
  data.Append({1, 0, 0}).CheckOK();  // Qa
  data.Append({1, 1, 0}).CheckOK();  // Qb
  data.Append({1, 1, 1}).CheckOK();  // Qc
  EXPECT_TRUE(Absorbs(data, 0, 1, 2));
  EXPECT_TRUE(Absorbs(data, 0, 2, 3));
  EXPECT_TRUE(Absorbs(data, 0, 1, 3));  // transitivity
  std::vector<ObjectId> survivors = AbsorbCandidates(data, 0, AllBut(data, 0));
  EXPECT_EQ(survivors, (std::vector<ObjectId>{1}));
}

TEST(AbsorptionTest, DisjointCandidatesAreUntouched) {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  data.Append({1, 1}).CheckOK();
  data.Append({2, 2}).CheckOK();
  data.Append({3, 3}).CheckOK();
  std::vector<ObjectId> survivors = AbsorbCandidates(data, 0, AllBut(data, 0));
  EXPECT_EQ(survivors.size(), 3u);
}

TEST(AbsorptionTest, NeverDropsTheStrongestThreat) {
  // The absorber (the candidate whose dominating event contains the
  // others) must survive.
  Dataset data(2);
  data.Append({0, 0}).CheckOK();   // O
  data.Append({1, 0}).CheckOK();   // absorber: differs on dim 0 only
  data.Append({1, 1}).CheckOK();   // absorbed
  data.Append({1, 2}).CheckOK();   // absorbed
  std::vector<ObjectId> survivors = AbsorbCandidates(data, 0, AllBut(data, 0));
  EXPECT_EQ(survivors, (std::vector<ObjectId>{1}));
}

TEST(AbsorptionTest, PropertyNeverChangesExactAnswer) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Dataset data = RandomSmallDataset(seed, 9, 2, 3);
    RationalPreferenceModel model = UnanimousHalfRational(data);
    RationalOracle oracle(model);
    for (ObjectId target = 0; target < 3; ++target) {
      std::vector<ObjectId> all = AllBut(data, target);
      std::vector<ObjectId> survivors = AbsorbCandidates(data, target, all);
      EXPECT_LE(survivors.size(), all.size());
      Rational before =
          ExactSkylineProbability(data, target, all, oracle).value();
      Rational after =
          ExactSkylineProbability(data, target, survivors, oracle).value();
      EXPECT_EQ(before, after) << "seed=" << seed << " target=" << target;
    }
  }
}

TEST(AbsorptionTest, EmptyCandidateList) {
  Dataset data = Example1Dataset();
  std::vector<ObjectId> none;
  EXPECT_TRUE(AbsorbCandidates(data, 0, none).empty());
}

/// The in-tree generators: uniform, block-zipf, the Nursery and Car
/// Evaluation projections, random small instances and one instance of
/// the Theorem-1 DNF reduction.
std::vector<std::pair<std::string, Dataset>> GeneratorMatrix() {
  std::vector<std::pair<std::string, Dataset>> matrix;
  UniformOptions uniform;
  uniform.objects = 200;
  uniform.dimensions = 4;
  uniform.values_per_dimension = 6;
  uniform.seed = 3;
  matrix.emplace_back("uniform", GenerateUniform(uniform).value());
  BlockZipfOptions zipf;
  zipf.objects = 300;
  zipf.seed = 5;
  matrix.emplace_back("block-zipf", GenerateBlockZipf(zipf).value());
  matrix.emplace_back("nursery d=5",
                      GenerateNurseryProjection(5).value().dataset);
  matrix.emplace_back("car evaluation d=4",
                      GenerateCarEvaluationProjection(4).value().dataset);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    matrix.emplace_back("random seed " + std::to_string(seed),
                        RandomSmallDataset(seed, 40, 3, 4));
  }
  PositiveDnf formula;
  formula.num_literals = 6;
  formula.clauses = {{0, 1}, {1, 2, 3}, {3, 4}, {0, 5}, {2, 5}, {1, 4, 5}};
  matrix.emplace_back("dnf reduction",
                      ReduceToSkylineInstance(formula).value().dataset);
  return matrix;
}

// The shared-postings entry point and the per-call one run one pass, so
// they give the same survivor list element for element; and since two
// distinct objects cannot absorb each other (A3), the survivor set does
// not depend on the order the candidates are scanned in.
TEST(AbsorptionTest, SurvivorsMatchAcrossEntryPointsAndScanOrders) {
  Rng rng(2013);
  for (const auto& [name, data] : GeneratorMatrix()) {
    const ValuePostings postings(data);
    for (ObjectId target = 0; target < data.size(); ++target) {
      std::vector<ObjectId> candidates =
          AllObjectsExcept(data.size(), target);
      AbsorptionStats indexed_stats;
      AbsorptionStats local_stats;
      const std::vector<ObjectId> indexed =
          AbsorbAllCandidatesIndexed(data, target, postings, &indexed_stats);
      ASSERT_EQ(indexed,
                AbsorbCandidates(data, target, candidates, &local_stats))
          << name << " target " << target;
      EXPECT_EQ(indexed_stats.input_candidates, local_stats.input_candidates);
      EXPECT_EQ(indexed_stats.absorbed, local_stats.absorbed);

      for (std::size_t i = candidates.size(); i > 1; --i) {
        std::swap(candidates[i - 1], candidates[rng.NextBounded(i)]);
      }
      std::vector<ObjectId> shuffled =
          AbsorbCandidates(data, target, candidates);
      std::sort(shuffled.begin(), shuffled.end());
      ASSERT_EQ(shuffled, indexed) << name << " target " << target;
    }
  }
}

}  // namespace
}  // namespace skypref

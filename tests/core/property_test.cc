/// Property-based cross-validation of all solver paths.
///
/// For each seeded random instance (small n, d, dense value domains so
/// shared values — and thus dependent dominance events — are common):
///
///   * inclusion-exclusion (Algorithm 1) == possible-world enumeration,
///     bit-exactly in rational arithmetic;
///   * absorption + partition preprocessing leaves the answer unchanged;
///   * the double-precision path agrees with the rational path to 1e-12;
///   * the Monte-Carlo estimate lands within its Hoeffding envelope;
///   * adding a candidate never increases sky(O) (monotonicity).

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/exact.h"
#include "src/core/monte_carlo.h"
#include "src/core/solver.h"
#include "src/model/preference_generator.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::RandomSmallDataset;

struct InstanceSpec {
  std::uint64_t seed;
  std::size_t objects;
  std::size_t dimensions;
  ValueId values;
  bool simplex;  // allow incomparability mass
};

class RandomInstanceTest : public ::testing::TestWithParam<InstanceSpec> {
 protected:
  void SetUp() override {
    const InstanceSpec& spec = GetParam();
    data_ = RandomSmallDataset(spec.seed, spec.objects, spec.dimensions,
                               spec.values);
    Status status =
        spec.simplex
            ? GenerateRationalSimplexPreferences(data_, spec.seed ^ 0xbeef, 8,
                                                 &model_)
            : GenerateRationalPreferences(data_, spec.seed ^ 0xbeef, 8,
                                          &model_);
    status.CheckOK();
  }

  std::vector<ObjectId> Candidates(ObjectId target) const {
    std::vector<ObjectId> ids;
    for (ObjectId i = 0; i < data_.size(); ++i) {
      if (i != target) ids.push_back(i);
    }
    return ids;
  }

  Dataset data_{1};
  RationalPreferenceModel model_;
};

TEST_P(RandomInstanceTest, ExactEqualsBruteForceBitExactly) {
  RationalOracle oracle(model_);
  for (ObjectId target = 0; target < data_.size(); ++target) {
    std::vector<ObjectId> candidates = Candidates(target);
    Rational exact =
        ExactSkylineProbability(data_, target, candidates, oracle).value();
    Rational brute =
        BruteForceSkylineProbability(data_, target, candidates, oracle)
            .value();
    EXPECT_EQ(exact, brute) << "target=" << target;
    EXPECT_GE(exact, Rational(0));
    EXPECT_LE(exact, Rational(1));
  }
}

TEST_P(RandomInstanceTest, PreprocessingPreservesTheAnswer) {
  for (ObjectId target = 0; target < data_.size(); ++target) {
    Rational plain =
        ExactSkylineProbabilityRational(data_, target, model_, false).value();
    Rational preprocessed =
        ExactSkylineProbabilityRational(data_, target, model_, true).value();
    EXPECT_EQ(plain, preprocessed) << "target=" << target;
  }
}

TEST_P(RandomInstanceTest, DoublePathTracksRationalPath) {
  auto solver = SkylineSolver::Create(data_, model_).value();
  for (ObjectId target = 0; target < data_.size(); ++target) {
    Rational exact =
        ExactSkylineProbabilityRational(data_, target, model_, false).value();
    SolverOptions options;
    options.preprocess = true;
    double via_doubles = solver.Exact(target, options).value();
    EXPECT_NEAR(via_doubles, exact.ToDouble(), 1e-12) << "target=" << target;
  }
}

TEST_P(RandomInstanceTest, MonteCarloLandsNearTruth) {
  auto solver = SkylineSolver::Create(data_, model_).value();
  // Only spot-check target 0 to keep the suite fast; the estimator's
  // statistical guarantee is tested exhaustively in monte_carlo_test.
  Rational exact =
      ExactSkylineProbabilityRational(data_, 0, model_, false).value();
  SolverOptions options;
  options.preprocess = false;
  options.monte_carlo.samples = 60000;
  options.monte_carlo.seed = GetParam().seed * 31 + 7;
  double estimate = solver.MonteCarlo(0, options).value();
  EXPECT_NEAR(estimate, exact.ToDouble(), 0.015);
}

TEST_P(RandomInstanceTest, AddingACandidateNeverRaisesSkyProbability) {
  RationalOracle oracle(model_);
  std::vector<ObjectId> candidates = Candidates(0);
  Rational previous(1);
  std::vector<ObjectId> prefix;
  for (ObjectId id : candidates) {
    prefix.push_back(id);
    Rational current =
        ExactSkylineProbability(data_, 0, prefix, oracle).value();
    EXPECT_LE(current, previous) << "after adding candidate " << id;
    previous = current;
  }
}

TEST_P(RandomInstanceTest, CandidatePermutationInvariance) {
  RationalOracle oracle(model_);
  std::vector<ObjectId> candidates = Candidates(0);
  Rational reference =
      ExactSkylineProbability(data_, 0, candidates, oracle).value();
  std::reverse(candidates.begin(), candidates.end());
  EXPECT_EQ(ExactSkylineProbability(data_, 0, candidates, oracle).value(),
            reference);
  std::rotate(candidates.begin(), candidates.begin() + 1, candidates.end());
  EXPECT_EQ(ExactSkylineProbability(data_, 0, candidates, oracle).value(),
            reference);
}

TEST_P(RandomInstanceTest, IndependentBaselineIsNotBelowHalfTruthHere) {
  // Not a correctness claim about Sac — just a sanity check that both
  // numbers are probabilities and the instance exercises dependence.
  auto solver = SkylineSolver::Create(data_, model_).value();
  double sac = solver.Independent(0).value();
  EXPECT_GE(sac, 0.0);
  EXPECT_LE(sac, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    SeedSweep, RandomInstanceTest,
    ::testing::Values(
        InstanceSpec{1, 5, 2, 3, false}, InstanceSpec{2, 6, 2, 3, false},
        InstanceSpec{3, 7, 3, 3, false}, InstanceSpec{4, 8, 2, 4, false},
        InstanceSpec{5, 6, 4, 2, false}, InstanceSpec{6, 5, 1, 6, false},
        InstanceSpec{7, 8, 3, 2, false}, InstanceSpec{8, 7, 2, 4, true},
        InstanceSpec{9, 6, 3, 3, true}, InstanceSpec{10, 8, 2, 3, true},
        InstanceSpec{11, 5, 4, 3, true}, InstanceSpec{12, 7, 1, 8, true},
        InstanceSpec{13, 9, 2, 4, false}, InstanceSpec{14, 9, 2, 4, true},
        InstanceSpec{15, 4, 5, 2, false}, InstanceSpec{16, 10, 2, 4, true},
        // flat_exact_test's former random shapes: 11 candidates over at
        // most 9 preference variables each.
        InstanceSpec{3, 12, 3, 4, false}, InstanceSpec{7, 12, 3, 4, false},
        InstanceSpec{19, 12, 3, 4, false}, InstanceSpec{23, 12, 3, 4, false}),
    [](const ::testing::TestParamInfo<InstanceSpec>& param_info) {
      const InstanceSpec& s = param_info.param;
      return "seed" + std::to_string(s.seed) + "_n" +
             std::to_string(s.objects) + "_d" + std::to_string(s.dimensions) +
             "_v" + std::to_string(s.values) +
             (s.simplex ? "_simplex" : "_total");
    });

}  // namespace
}  // namespace skypref

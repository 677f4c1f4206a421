#include "src/core/adaptive_sampling.h"

#include <cmath>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "src/core/exact.h"
#include "src/core/monte_carlo.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::RandomSmallDataset;

TEST(AdaptiveSamplingTest, EstimateWithinEpsilonOfTruth) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  AdaptiveOptions options;
  options.epsilon = 0.02;
  options.delta = 0.01;
  options.seed = 5;
  AdaptiveResult result =
      AdaptiveMonteCarloSkylineProbability(data, 0, model, options).value();
  EXPECT_NEAR(result.estimate, 3.0 / 16.0, options.epsilon);
  EXPECT_LE(result.radius, options.epsilon + 1e-12);
  EXPECT_GT(result.samples, 0u);
}

TEST(AdaptiveSamplingTest, StopsEarlyWhenProbabilityIsExtreme) {
  // A target that is always dominated: sky = 0 with zero variance, so
  // the Bernstein stop fires long before the Hoeffding count.
  Dataset data(2);
  data.Append({1, 1}).CheckOK();  // target, certainly dominated
  data.Append({0, 0}).CheckOK();
  TablePreferenceModel model;
  model.Set(0, 0, 1, 1.0, 0.0).CheckOK();
  model.Set(1, 0, 1, 1.0, 0.0).CheckOK();

  AdaptiveOptions options;
  options.epsilon = 0.01;
  options.delta = 0.01;
  AdaptiveResult result =
      AdaptiveMonteCarloSkylineProbability(data, 0, model, options).value();
  EXPECT_DOUBLE_EQ(result.estimate, 0.0);
  EXPECT_FALSE(result.hit_cap);
  // Fixed-size Hoeffding would need 26,492 samples; with zero variance
  // the Bernstein radius is ~3 ln(3/delta_k)/t, firing around t ~ 4000.
  EXPECT_LT(result.samples, HoeffdingSampleSize(0.01, 0.01) / 5);
}

TEST(AdaptiveSamplingTest, NeverExceedsTheHoeffdingCap) {
  // sky = 1/2 has maximal variance: the adaptive rule cannot do much
  // better than Hoeffding, and must stop at the cap with the guarantee
  // intact.
  Dataset data(1);
  data.Append({0}).CheckOK();
  data.Append({1}).CheckOK();
  TablePreferenceModel model;  // Pr = 1/2 both ways
  AdaptiveOptions options;
  options.epsilon = 0.02;
  options.delta = 0.05;
  AdaptiveResult result =
      AdaptiveMonteCarloSkylineProbability(data, 0, model, options).value();
  EXPECT_LE(result.samples,
            HoeffdingSampleSize(options.epsilon, options.delta / 2.0));
  EXPECT_NEAR(result.estimate, 0.5, options.epsilon);
}

TEST(AdaptiveSamplingTest, GuaranteeHoldsAcrossSeeds) {
  Dataset data = RandomSmallDataset(33, 8, 2, 3);
  TablePreferenceModel model;
  double truth = ExactSkylineProbability(data, 0, model).value();
  const double epsilon = 0.03;
  int violations = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    AdaptiveOptions options;
    options.epsilon = epsilon;
    options.delta = 0.05;
    options.seed = seed;
    AdaptiveResult result =
        AdaptiveMonteCarloSkylineProbability(data, 0, model, options).value();
    if (std::abs(result.estimate - truth) > epsilon) ++violations;
  }
  EXPECT_LE(violations, 3);  // expectation is <= 1.5 at delta = 0.05
}

TEST(AdaptiveSamplingTest, ExtremeProbabilitySavesSamples) {
  // Compare sample counts on a low-probability target vs a fair coin.
  Dataset low(1);
  low.Append({0}).CheckOK();
  low.Append({1}).CheckOK();
  TablePreferenceModel low_model;
  low_model.Set(0, 1, 0, 0.99, 0.01).CheckOK();  // sky(target) = 0.01

  Dataset fair(1);
  fair.Append({0}).CheckOK();
  fair.Append({1}).CheckOK();
  TablePreferenceModel fair_model;  // sky = 1/2

  AdaptiveOptions options;
  options.epsilon = 0.01;
  options.delta = 0.01;
  options.seed = 11;
  AdaptiveResult low_result =
      AdaptiveMonteCarloSkylineProbability(low, 0, low_model, options).value();
  AdaptiveResult fair_result =
      AdaptiveMonteCarloSkylineProbability(fair, 0, fair_model, options)
          .value();
  EXPECT_LT(low_result.samples, fair_result.samples / 2);
}

TEST(AdaptiveSamplingTest, CandidateSubsetOverload) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  std::vector<ObjectId> subset{2};  // Pr(e2) = 1/2 -> sky = 1/2
  AdaptiveOptions options;
  options.epsilon = 0.05;
  options.delta = 0.05;
  AdaptiveResult result =
      AdaptiveMonteCarloSkylineProbability(data, 0, subset, model, options)
          .value();
  EXPECT_NEAR(result.estimate, 0.5, 0.05);
}

TEST(AdaptiveSamplingTest, RejectsBadOptions) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  AdaptiveOptions bad;
  bad.epsilon = 0.0;
  EXPECT_EQ(AdaptiveMonteCarloSkylineProbability(data, 0, model, bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  bad.epsilon = 0.01;
  bad.delta = 1.0;
  EXPECT_EQ(AdaptiveMonteCarloSkylineProbability(data, 0, model, bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  bad.delta = 0.01;
  bad.initial_batch = 0;
  EXPECT_EQ(AdaptiveMonteCarloSkylineProbability(data, 0, model, bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// A NaN epsilon fails every comparison: let through, it saturates the
// Hoeffding cap and no radius ever satisfies the stopping rule, so the
// checkpoint loop would never return.
TEST(AdaptiveSamplingTest, RejectsNonFiniteOptions) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (auto [epsilon, delta] : {std::pair{kNaN, 0.01}, std::pair{kInf, 0.01},
                                std::pair{0.01, kNaN}}) {
    AdaptiveOptions bad;
    bad.epsilon = epsilon;
    bad.delta = delta;
    EXPECT_EQ(AdaptiveMonteCarloSkylineProbability(data, 0, model, bad)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "epsilon=" << epsilon << " delta=" << delta;
  }
}

}  // namespace
}  // namespace skypref

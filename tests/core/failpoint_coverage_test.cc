/// Registry coverage: every site in the canonical table (kKnownSites,
/// src/util/failpoint.cc) must be consulted by at least one workload in
/// this battery. A site that nothing reaches is dead weight — or worse,
/// a typo'd registration hiding an unguarded literal — and the chaos
/// sweep (tools/skypref_chaos.cc) would silently skip it. Linked against
/// a failpoints-on library in every tree (tests/CMakeLists.txt); built
/// any other way, the one test skips.

#include <gtest/gtest.h>

#include <cstddef>

#include "src/core/monte_carlo.h"
#include "src/core/parallel.h"
#include "src/core/sam_bitslice.h"
#include "src/core/sam_parallel.h"
#include "src/core/solver.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::RandomSmallDataset;

TEST(FailpointCoverageTest, EveryRegisteredSiteIsConsultedBySomeWorkload) {
#if !defined(SKYPREF_FAILPOINTS) || !SKYPREF_FAILPOINTS
  GTEST_SKIP() << "built without SKYPREF_FAILPOINTS";
#else
  failpoint::DisarmAll();
  failpoint::EnableCoverage(true);
  failpoint::ResetCoverage();

  Dataset data = RandomSmallDataset(73, 12, 2, 4);
  TablePreferenceModel model;
  ThreadPool pool(2);

  // exact.dfs + alloc.exact.flat_instance: one flat-engine solve.
  ASSERT_TRUE(ExactSkylineProbability(data, 0, model).ok());

  // parallel.task (+ threadpool.serial / threadpool.wait): the
  // intra-group task engine engages only for a splittable group of
  // >= 16 candidates dispatched onto live workers.
  {
    Dataset splittable(2);
    splittable.Append({0, 0}).CheckOK();
    for (std::size_t i = 0; i < 18; ++i) {
      splittable.Append({1, static_cast<ValueId>(i + 1)}).CheckOK();
    }
    ASSERT_TRUE(
        ParallelExactSkylineProbability(splittable, 0, model, pool).ok());
  }

  // batch.target + alloc.batch.partition: the batch solver with its
  // default preprocessing phase.
  ASSERT_TRUE(BatchExactSkylineProbabilities(data, model, pool).ok());

  // batch.retry is consulted only while salvaging a transient casualty,
  // so manufacture one: a single injected scheduler fault.
  {
    failpoint::ScopedFailpoint armed("batch.target");
    ASSERT_TRUE(BatchExactSkylineProbabilities(data, model, pool).ok());
  }

  // sampler.world: the serial sampler consults it at every 64-world
  // deadline poll.
  {
    MonteCarloOptions mc;
    mc.samples = 128;
    ASSERT_TRUE(MonteCarloSkylineProbability(data, 0, model, mc).ok());
  }

  // sampler.block + alloc.sam.instance: the block engine, several
  // blocks' worth of worlds.
  {
    MonteCarloOptions mc;
    mc.samples = 256;
    mc.block_size = 64;
    ASSERT_TRUE(
        BlockMonteCarloSkylineProbability(data, 0, model, pool, mc).ok());
  }

  // alloc.sam.slice_arena: the bit-sliced engine's up-front arena probe.
  {
    MonteCarloOptions mc;
    mc.samples = 256;
    mc.block_size = 64;
    ASSERT_TRUE(
        BitSlicedMonteCarloSkylineProbability(data, 0, model, pool, mc).ok());
  }

  // alloc.sam.batch_plan: the shared-world batch estimator.
  {
    SolverOptions options;
    options.monte_carlo.samples = 256;
    options.monte_carlo.block_size = 64;
    ASSERT_TRUE(
        BatchMonteCarloSkylineProbabilities(data, model, pool, options).ok());
  }

  for (const failpoint::KnownSite& site : failpoint::KnownSites()) {
    EXPECT_GE(failpoint::CoverageCount(site.name), 1u)
        << "registered site '" << site.name
        << "' was never consulted — dead registration or missing workload";
  }

  failpoint::EnableCoverage(false);
  failpoint::DisarmAll();
#endif
}

}  // namespace
}  // namespace skypref

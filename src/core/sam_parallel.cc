#include "src/core/sam_parallel.h"

#include <cstddef>

#include "src/core/dominance.h"
#include "src/core/sam_internal.h"
#include "src/util/random.h"
#include "src/util/try_alloc.h"

namespace skypref {

// -------------------------------------------------------------------------
// Single-target block engine
// -------------------------------------------------------------------------

Result<MonteCarloResult> BlockMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, ThreadPool& pool,
    const MonteCarloOptions& options, const QueryBudget& budget) {
  SKYPREF_ASSIGN_OR_RETURN(
      internal::SamRequest request,
      internal::PrepareSamRequest(data, target, candidates, model, options,
                                  MonteCarloOptions::Engine::kBlock, budget));
  SKYPREF_ASSIGN_OR_RETURN(
      internal::FlatSamInstance inst, TryAlloc("alloc.sam.instance", [&] {
        return internal::BuildFlatInstance(
            data, target, std::span<const ObjectId>(request.ordered),
            internal::CutOracle(model));
      }));
  const bool lazy = options.lazy;
  return internal::RunSamBlocks(pool, request, options, /*chunk=*/1, [&] {
    return [&inst, lazy, memo = internal::WorldMemo(inst.pair_count())](
               Rng& rng, std::uint64_t step,
               std::uint64_t* draws) mutable -> std::uint64_t {
      (void)step;  // chunk = 1: exactly one world per call
      return internal::SampleWorld(inst, memo, rng, lazy, draws) ? 1 : 0;
    };
  });
}

Result<MonteCarloResult> BlockMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const MonteCarloOptions& options,
    const QueryBudget& budget) {
  return BlockMonteCarloSkylineProbability(
      data, target, AllObjectsExcept(data.size(), target), model, pool,
      options, budget);
}

}  // namespace skypref

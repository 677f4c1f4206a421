#ifndef SKYPREF_UTIL_THREAD_POOL_H_
#define SKYPREF_UTIL_THREAD_POOL_H_

/// \file
/// A small fixed-size thread pool with a blocking ParallelFor.
///
/// The solvers use data parallelism at natural grain boundaries (groups
/// of a partition, blocks of sampled worlds, target objects of an
/// all-objects query). Determinism is preserved by deriving each block's
/// PRNG seed from the block INDEX, never from the executing thread, so
/// results are identical for any thread count including 0 (inline
/// execution).

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "src/util/thread_annotations.h"

namespace skypref {

class ThreadPool {
 public:
  /// Creates \p threads workers. Zero threads is valid: every task runs
  /// inline on the caller, which keeps single-threaded builds trivial.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Runs fn(i) for every i in [0, count), distributing indices over the
  /// workers; blocks until all complete. Exceptions must not escape fn
  /// (the library is exception-free; fn reports failures via captured
  /// state).
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn)
      SKYPREF_EXCLUDES(mutex_);

  /// A sensible default: hardware concurrency minus one (the caller's
  /// thread participates via ParallelFor), at least 1.
  static std::size_t DefaultThreads();

 private:
  void WorkerLoop() SKYPREF_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  // Dispatch protocol state. The condition variables wait on the
  // annotated Mutex directly (condition_variable_any + the wrapper's
  // BasicLockable aliases), so every read/write of the guarded fields is
  // provably under mutex_ — clang's -Wthread-safety checks it.
  Mutex mutex_;
  std::condition_variable_any work_available_;
  std::condition_variable_any work_done_;
  // Current ParallelFor batch.
  const std::function<void(std::size_t)>* current_fn_
      SKYPREF_GUARDED_BY(mutex_) = nullptr;
  std::size_t next_index_ SKYPREF_GUARDED_BY(mutex_) = 0;
  std::size_t end_index_ SKYPREF_GUARDED_BY(mutex_) = 0;
  std::size_t in_flight_ SKYPREF_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ SKYPREF_GUARDED_BY(mutex_) = false;
};

}  // namespace skypref

#endif  // SKYPREF_UTIL_THREAD_POOL_H_

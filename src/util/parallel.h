// A small, work-stealing-free thread pool for the engine's per-robot fan-out.
//
// The simulator's parallelism is embarrassingly regular: once per round, the
// same body runs for every robot index. The engine's compute phase steps
// the lowest-index robot alone first -- it derives the round's shared plan
// -- and then fans one body (fill the robot's view, then step) over the
// rest. A static contiguous partition of [0, count) -- one chunk per
// thread, no stealing, no dynamic scheduling -- keeps the execution order
// within each chunk sequential and the set of indices per thread a pure
// function of (count, thread_count). Combined with bodies that only write
// state owned by their index, results are bitwise identical at any thread
// count, which is the contract EngineOptions::threads promises. A body
// should also keep its writes off lines other lanes write: a shared
// counter or reference count bumped per index costs more than the fan-out
// saves.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dyndisp {

class ThreadPool {
 public:
  /// Spawns `threads - 1` persistent workers (the calling thread is the
  /// remaining lane). `threads` is clamped to at least 1.
  explicit ThreadPool(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Total lanes, including the caller's.
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Runs body(i) for every i in [0, count) and blocks until all are done.
  /// Lane c executes the contiguous chunk [c*count/T, (c+1)*count/T) in
  /// ascending order; the caller runs chunk 0 itself. body must not touch
  /// state owned by another index unless that access is read-only. If bodies
  /// throw, the exception of the smallest faulting index is rethrown on the
  /// calling thread (matching what a sequential loop would have surfaced).
  void for_each(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::exception_ptr error;
  };

  void worker_loop(std::size_t lane);
  void run_chunk(Chunk& chunk);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::vector<Chunk> chunks_;        // one per lane; lane 0 is the caller
  std::size_t generation_ = 0;       // bumped per for_each dispatch
  std::size_t pending_ = 0;          // worker chunks not yet finished
  bool shutdown_ = false;
};

/// Below this many items, parallel_for runs the plain sequential loop even
/// when a pool is available: waking and joining the worker lanes costs more
/// than the fan-out saves on the engine's O(1)-per-index bodies (measured:
/// k=64 rounds ran ~20% SLOWER at 8 threads than at 1 before this cutoff).
/// The threshold is a compile-time constant -- a pure function of count, not
/// of load or timing -- so which path runs is deterministic, and both paths
/// produce bitwise-identical results by the static-partition argument above.
inline constexpr std::size_t kParallelForSerialCutoff = 192;

/// Convenience: fans body over [0, count) on `pool`, or runs the plain
/// sequential loop when pool is null, the pool has one lane, or count is
/// below kParallelForSerialCutoff (the small-problem regression guard).
/// ThreadPool::for_each itself never applies the cutoff -- callers that
/// always want the fan-out call it directly.
///
/// A template, not a std::function parameter, on purpose: the engine's
/// round-loop bodies capture several references, which exceeds the small-
/// buffer size of libstdc++'s std::function -- a std::function signature
/// would heap-allocate a temporary on EVERY call, serial path included,
/// breaking the zero-allocation steady-state contract the hot-path lint
/// rules and util/memprobe.h pin. The serial path below calls the body
/// directly (no wrapper, no allocation); only the multi-lane dispatch
/// wraps, and by reference_wrapper (one pointer, inside any SBO).
template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t count, Body&& body) {
  if (pool == nullptr || pool->thread_count() == 1 ||
      count < kParallelForSerialCutoff) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  pool->for_each(count, std::function<void(std::size_t)>(std::ref(body)));
}

}  // namespace dyndisp

#pragma once
// Shared-memory parallelism for the framework's embarrassingly parallel
// loops: Stage I is point-parallel, Stage II is pair-parallel, and the FEM
// element loops are element-parallel.
//
// Design rules (all enforced here so callers stay simple):
//   * Static chunking: [0, n) splits into at most `num_threads` contiguous
//     chunks, so every index is owned by exactly one chunk and results are
//     deterministic for a fixed thread count.
//   * `num_threads` semantics everywhere: 0 = hardware concurrency,
//     1 = exact serial path (no pool involvement, bitwise-identical to a
//     plain loop), n = n.
//   * parallel_reduce gives each chunk a private accumulator and merges the
//     partials in chunk index order, making write ownership and merge order
//     explicit (the serial path returns the single accumulator untouched).
//   * parallel_reduce_windowed keeps those chunks and that merge order but
//     hands out each chunk's work in small windows, and parallel_for_blocks
//     hands out fixed-size blocks of a loop whose values do not depend on
//     the cut, so one stalled thread delays a window or a block, not a
//     whole chunk.
//   * Nested calls from inside a worker run serially instead of
//     deadlocking; exceptions thrown by a chunk rethrow on the caller.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "numeric/check.h"

namespace tsv::num {

/// Number of hardware threads (>= 1 even when the runtime reports 0).
std::size_t hardware_thread_count();

/// Resolves a user-facing `num_threads` knob: 0 = hardware concurrency,
/// anything else is taken literally.
std::size_t resolve_thread_count(std::size_t requested);

/// True while the calling thread executes inside a parallel region (worker
/// or participating caller). Nested parallel calls detect this and run
/// serially.
bool in_parallel_region();

/// Persistent worker pool. One region runs at a time; concurrent run()
/// callers serialize on an internal mutex. Most code should go through
/// parallel_for / parallel_reduce instead of using the pool directly.
class ThreadPool {
 public:
  /// Pool with `worker_threads` background threads (the run() caller also
  /// participates, so 0 workers means strictly serial execution).
  explicit ThreadPool(std::size_t worker_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_threads() const;

  /// Runs fn(chunk) for every chunk in [0, chunks), distributing chunks over
  /// the caller plus the workers; blocks until all chunks finish. At most
  /// `max_threads` threads (0 = all) take part, the caller among them. The
  /// first exception thrown by a chunk aborts the remaining chunks and
  /// rethrows here. Called from inside a region (nested), runs inline
  /// serially.
  void run(std::size_t chunks, const std::function<void(std::size_t)>& fn,
           std::size_t max_threads = 0);

  /// Process-wide pool with hardware_thread_count() - 1 workers.
  static ThreadPool& shared();

 private:
  struct Impl;
  Impl* impl_;
};

/// Bounds of chunk `c` when [0, n) splits into `chunks` contiguous chunks.
inline std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t n,
                                                        std::size_t chunks,
                                                        std::size_t c) {
  TSV_ASSERT(chunks > 0 && c < chunks);
  return {n * c / chunks, n * (c + 1) / chunks};
}

/// Splits [0, n) into at most resolve_thread_count(num_threads) contiguous
/// chunks and runs body(begin, end, chunk_index) for each. With one chunk
/// (n <= 1, num_threads == 1, or a nested call) the body runs inline as
/// body(0, n, 0) — the exact serial path.
template <typename Body>
void parallel_for_chunks(std::size_t n, std::size_t num_threads, Body&& body) {
  if (n == 0) return;
  const std::size_t chunks =
      std::min(resolve_thread_count(num_threads), n);
  if (chunks <= 1 || in_parallel_region()) {
    body(std::size_t{0}, n, std::size_t{0});
    return;
  }
  ThreadPool::shared().run(chunks, [&](std::size_t c) {
    const auto [begin, end] = chunk_bounds(n, chunks, c);
    body(begin, end, c);
  });
}

/// Loop over [0, n) handed out in blocks of `grain` indices to whichever of
/// at most resolve_thread_count(num_threads) threads is free, as
/// body(begin, end). Only for bodies whose results do not depend on where
/// the blocks are cut (each index writes only what it owns); unlike static
/// chunks, a stalled thread then holds up one block, not 1/num_threads of
/// the loop. One thread, one block or a nested call runs body(0, n).
template <typename Body>
void parallel_for_blocks(std::size_t n, std::size_t num_threads,
                         std::size_t grain, Body&& body) {
  TSV_ASSERT(grain > 0);
  if (n == 0) return;
  const std::size_t threads = resolve_thread_count(num_threads);
  const std::size_t blocks = (n + grain - 1) / grain;
  if (threads <= 1 || blocks <= 1 || in_parallel_region()) {
    body(std::size_t{0}, n);
    return;
  }
  ThreadPool::shared().run(
      blocks,
      [&](std::size_t b) { body(b * grain, std::min(n, (b + 1) * grain)); },
      threads);
}

/// Element-wise parallel loop: body(i) for i in [0, n), statically chunked.
/// Safe whenever body(i) only writes state owned by index i.
template <typename Body>
void parallel_for(std::size_t n, std::size_t num_threads, Body&& body) {
  parallel_for_chunks(n, num_threads,
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        for (std::size_t i = begin; i < end; ++i) body(i);
                      });
}

/// Number of chunks parallel_reduce splits [0, n) into; 1 means it runs the
/// serial path (also for a nested call).
inline std::size_t reduce_chunk_count(std::size_t n, std::size_t num_threads) {
  if (n == 0 || in_parallel_region()) return 1;
  return std::min(resolve_thread_count(num_threads), n);
}

/// Chunked reduction with explicit write ownership: every chunk builds a
/// private accumulator `make()` and folds its range with
/// body(acc, begin, end); partials then merge on the caller in chunk index
/// order via merge(total, partial). Deterministic for a fixed thread count;
/// with a single chunk the lone accumulator is returned without any merge,
/// bitwise-identical to the serial loop.
template <typename T, typename Make, typename Body, typename Merge>
T parallel_reduce(std::size_t n, std::size_t num_threads, Make&& make,
                  Body&& body, Merge&& merge) {
  const std::size_t chunks = reduce_chunk_count(n, num_threads);
  if (chunks <= 1) {
    T acc = make();
    if (n > 0) body(acc, std::size_t{0}, n);
    return acc;
  }
  std::vector<std::optional<T>> parts(chunks);
  ThreadPool::shared().run(chunks, [&](std::size_t c) {
    const auto [begin, end] = chunk_bounds(n, chunks, c);
    parts[c].emplace(make());
    body(*parts[c], begin, end);
  });
  T total = std::move(*parts[0]);
  for (std::size_t c = 1; c < chunks; ++c) merge(total, *parts[c]);
  return total;
}

/// parallel_reduce's chunks, accumulators and merge order, with the work of
/// each chunk spread over all the threads. A chunk's range is cut into
/// windows of `window` indices; produce(begin, end, w) computes a window
/// into a reusable W on whichever thread is free, and consume(acc, w) folds
/// the chunk's windows into its accumulator strictly in window order, one
/// thread at a time per chunk, on at most `chunks` threads like
/// parallel_reduce. Whenever body(acc, b, e) is consuming each window of
/// [b, e) in order, the result is bitwise parallel_reduce's, yet a thread
/// stalled mid-chunk holds up one window instead of the region.
/// A finished window whose predecessor is still running is parked until
/// that predecessor is consumed (windows are handed out window-major, so
/// few are parked). The serial path consumes every window in order.
template <typename T, typename W, typename Make, typename Produce,
          typename Consume, typename Merge>
T parallel_reduce_windowed(std::size_t n, std::size_t num_threads,
                           std::size_t window, Make&& make, Produce&& produce,
                           Consume&& consume, Merge&& merge) {
  TSV_ASSERT(window > 0);
  const std::size_t chunks = reduce_chunk_count(n, num_threads);
  if (chunks <= 1) {
    T acc = make();
    W w;
    for (std::size_t b = 0; b < n; b += window) {
      produce(b, std::min(n, b + window), w);
      consume(acc, w);
    }
    return acc;
  }
  struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::optional<T> acc;
    std::vector<std::unique_ptr<W>> ready;  ///< produced, not yet consumed
    std::size_t next = 0;                   ///< next window to consume
    bool draining = false;                  ///< a thread is consuming
  };
  std::vector<Chunk> state(chunks);
  std::size_t rounds = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::tie(state[c].begin, state[c].end) = chunk_bounds(n, chunks, c);
    state[c].ready.resize((state[c].end - state[c].begin + window - 1) /
                          window);
    rounds = std::max(rounds, state[c].ready.size());
  }
  std::vector<std::pair<std::size_t, std::size_t>> jobs;  // (chunk, window)
  for (std::size_t r = 0; r < rounds; ++r)
    for (std::size_t c = 0; c < chunks; ++c)
      if (r < state[c].ready.size()) jobs.emplace_back(c, r);

  std::mutex mutex;  // guards every chunk's ready/next/draining and spare
  std::vector<std::unique_ptr<W>> spare;
  const auto job = [&](std::size_t j) {
    const auto [c, r] = jobs[j];
    Chunk& chunk = state[c];
    std::unique_ptr<W> w;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!spare.empty()) {
        w = std::move(spare.back());
        spare.pop_back();
      }
    }
    if (!w) w = std::make_unique<W>();
    const std::size_t begin = chunk.begin + r * window;
    produce(begin, std::min(chunk.end, begin + window), *w);

    std::unique_lock<std::mutex> lock(mutex);
    chunk.ready[r] = std::move(w);
    if (chunk.draining) return;  // the draining thread will reach it
    chunk.draining = true;
    while (chunk.next < chunk.ready.size() && chunk.ready[chunk.next]) {
      std::unique_ptr<W> done = std::move(chunk.ready[chunk.next]);
      lock.unlock();
      if (!chunk.acc) chunk.acc.emplace(make());
      consume(*chunk.acc, *done);
      lock.lock();
      spare.push_back(std::move(done));
      ++chunk.next;
    }
    chunk.draining = false;
  };
  ThreadPool::shared().run(jobs.size(), job, chunks);
  T total = std::move(*state[0].acc);
  for (std::size_t c = 1; c < chunks; ++c) merge(total, *state[c].acc);
  return total;
}

}  // namespace tsv::num

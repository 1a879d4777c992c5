#include "numeric/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tsv::num {
namespace {

TEST(Parallel, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
  EXPECT_EQ(resolve_thread_count(0), hardware_thread_count());
  EXPECT_GE(hardware_thread_count(), 1u);
}

TEST(Parallel, EmptyRangeNeverCallsBody) {
  std::atomic<int> calls{0};
  parallel_for(0, 4, [&](std::size_t) { ++calls; });
  parallel_for_chunks(0, 4, [&](std::size_t, std::size_t, std::size_t) {
    ++calls;
  });
  EXPECT_EQ(calls.load(), 0);
  // A reduce over nothing returns the bare accumulator.
  const int total = parallel_reduce<int>(
      0, 4, [] { return 42; }, [](int&, std::size_t, std::size_t) {},
      [](int& a, const int& b) { a += b; });
  EXPECT_EQ(total, 42);
}

TEST(Parallel, EveryIndexVisitedExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<int> hits(n, 0);
  parallel_for(n, 4, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(Parallel, RangeSmallerThanThreadCount) {
  const std::size_t n = 3;
  std::vector<int> hits(n, 0);
  parallel_for(n, 16, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(Parallel, ChunksPartitionTheRangeInOrder) {
  const std::size_t n = 103;
  const std::size_t threads = 7;
  std::vector<std::pair<std::size_t, std::size_t>> bounds(threads,
                                                          {n + 1, n + 1});
  parallel_for_chunks(n, threads,
                      [&](std::size_t b, std::size_t e, std::size_t c) {
                        ASSERT_LT(c, threads);
                        bounds[c] = {b, e};
                      });
  EXPECT_EQ(bounds.front().first, 0u);
  EXPECT_EQ(bounds.back().second, n);
  for (std::size_t c = 1; c < threads; ++c) {
    EXPECT_EQ(bounds[c].first, bounds[c - 1].second) << c;
    EXPECT_LT(bounds[c].first, bounds[c].second) << c;
  }
}

TEST(Parallel, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("worker boom");
                   }),
      std::runtime_error);
  // The pool must stay usable after an aborted region.
  std::atomic<std::size_t> sum{0};
  parallel_for(64, 4, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 64u * 63u / 2u);
}

TEST(Parallel, NestedCallsRunSeriallyWithoutDeadlock) {
  std::atomic<std::size_t> inner_total{0};
  std::atomic<bool> saw_region{false};
  parallel_for(8, 4, [&](std::size_t) {
    if (in_parallel_region()) saw_region = true;
    // Nested region: must run inline instead of waiting on the pool.
    parallel_for(16, 4, [&](std::size_t j) { inner_total += j; });
  });
  EXPECT_EQ(inner_total.load(), 8u * (16u * 15u / 2u));
  // With > 1 hardware thread the outer body runs inside a region; on a
  // single-core host the outer loop itself degenerates to serial.
  if (hardware_thread_count() > 1) {
    EXPECT_TRUE(saw_region.load());
  }
  EXPECT_FALSE(in_parallel_region());
}

TEST(Parallel, ReduceMergesPartialsInChunkOrder) {
  // Concatenating each chunk's indices must reproduce 0..n-1 exactly —
  // proof that partials merge in chunk index order, not completion order.
  const std::size_t n = 100;
  for (const std::size_t threads : {2u, 3u, 7u, 16u}) {
    const auto order = parallel_reduce<std::vector<std::size_t>>(
        n, threads, [] { return std::vector<std::size_t>{}; },
        [](std::vector<std::size_t>& acc, std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) acc.push_back(i);
        },
        [](std::vector<std::size_t>& total,
           const std::vector<std::size_t>& part) {
          total.insert(total.end(), part.begin(), part.end());
        });
    ASSERT_EQ(order.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(Parallel, ReduceMatchesSerialSumWithinTolerance) {
  const std::size_t n = 20000;
  const auto sum_with = [&](std::size_t threads) {
    return parallel_reduce<double>(
        n, threads, [] { return 0.0; },
        [](double& acc, std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i)
            acc += 1.0 / static_cast<double>(i + 1);
        },
        [](double& total, const double& part) { total += part; });
  };
  const double serial = sum_with(1);
  for (const std::size_t threads : {2u, 4u, 8u})
    EXPECT_NEAR(sum_with(threads), serial, std::abs(serial) * 1e-12);
}

TEST(Parallel, SerialPathIsBitwiseIdenticalToPlainLoop) {
  const std::size_t n = 4096;
  std::vector<double> plain(n), pooled(n);
  for (std::size_t i = 0; i < n; ++i)
    plain[i] = std::sin(0.001 * static_cast<double>(i));
  parallel_for(n, 1, [&](std::size_t i) {
    pooled[i] = std::sin(0.001 * static_cast<double>(i));
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(plain[i], pooled[i]);
}

TEST(Parallel, StressRepeatedInvocations) {
  // Hammer the shared pool with many back-to-back regions of varying
  // shapes; totals must always come out exact.
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round % 97);
    const std::size_t threads = 1 + static_cast<std::size_t>(round % 5);
    parallel_for(n, threads, [&](std::size_t i) { total += i + 1; });
  }
  std::size_t expect = 0;
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round % 97);
    expect += n * (n + 1) / 2;
  }
  EXPECT_EQ(total.load(), expect);
}

TEST(Parallel, ConcurrentRegionsFromUserThreadsSerialize) {
  // Several user threads issuing regions at once must not corrupt the pool
  // (regions serialize internally on the run mutex).
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> users;
  users.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    users.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round)
        parallel_for(128, 3, [&](std::size_t i) { total += i; });
    });
  }
  for (std::thread& u : users) u.join();
  EXPECT_EQ(total.load(),
            static_cast<std::size_t>(kThreads) * kRounds * (128u * 127u / 2u));
}

/// Indices of a window, as parallel_reduce_windowed's produce() fills them.
struct IndexWindow {
  std::vector<std::size_t> items;
};

/// Concatenates every index a windowed reduction consumed, in consumption
/// order; `stall` slows every third window so that windows after it finish
/// first and must be parked.
std::vector<std::size_t> windowed_order(std::size_t n, std::size_t threads,
                                        std::size_t window, bool stall) {
  return parallel_reduce_windowed<std::vector<std::size_t>, IndexWindow>(
      n, threads, window, [] { return std::vector<std::size_t>{}; },
      [&](std::size_t b, std::size_t e, IndexWindow& w) {
        if (stall && (b / window) % 3 == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        w.items.clear();
        for (std::size_t i = b; i < e; ++i) w.items.push_back(i);
      },
      [](std::vector<std::size_t>& acc, const IndexWindow& w) {
        acc.insert(acc.end(), w.items.begin(), w.items.end());
      },
      [](std::vector<std::size_t>& total,
         const std::vector<std::size_t>& part) {
        total.insert(total.end(), part.begin(), part.end());
      });
}

TEST(Parallel, WindowedReduceConsumesEveryIndexOnceInOrder) {
  const std::size_t n = 971;
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 7u})
    for (const std::size_t window : {1u, 5u, 64u, 2000u})
      for (const bool stall : {false, true}) {
        if (stall && window == 1) continue;  // 300+ sleeps, nothing new
        const auto order = windowed_order(n, threads, window, stall);
        ASSERT_EQ(order.size(), n) << threads << " " << window;
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(order[i], i) << threads << " " << window << " " << stall;
      }
}

TEST(Parallel, WindowedReduceIsBitwiseParallelReduce) {
  // Order-sensitive floating sums into a few slots: the windowed reduction
  // must reproduce parallel_reduce bit for bit at every thread count.
  const std::size_t n = 5000;
  constexpr std::size_t kSlots = 7;
  const auto term = [](std::size_t i) {
    return std::sin(0.37 * static_cast<double>(i)) * 1e3 /
           static_cast<double>(i + 1);
  };
  using Field = std::vector<double>;
  const auto merge = [](Field& total, const Field& part) {
    for (std::size_t k = 0; k < kSlots; ++k) total[k] += part[k];
  };
  struct Terms {
    std::vector<double> values;
    std::size_t begin = 0;
  };
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    const Field plain = parallel_reduce<Field>(
        n, threads, [] { return Field(kSlots, 0.0); },
        [&](Field& acc, std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) acc[i % kSlots] += term(i);
        },
        merge);
    for (const std::size_t window : {1u, 13u, 100u}) {
      const Field windowed = parallel_reduce_windowed<Field, Terms>(
          n, threads, window, [] { return Field(kSlots, 0.0); },
          [&](std::size_t b, std::size_t e, Terms& w) {
            w.begin = b;
            w.values.clear();
            for (std::size_t i = b; i < e; ++i) w.values.push_back(term(i));
          },
          [](Field& acc, const Terms& w) {
            for (std::size_t j = 0; j < w.values.size(); ++j)
              acc[(w.begin + j) % kSlots] += w.values[j];
          },
          merge);
      for (std::size_t k = 0; k < kSlots; ++k)
        EXPECT_EQ(windowed[k], plain[k])
            << "threads " << threads << " window " << window << " slot " << k;
    }
  }
}

TEST(Parallel, WindowedReduceNestedRunsSeriallyInOrder) {
  std::vector<std::vector<std::size_t>> inner(4);
  parallel_for(inner.size(), 4, [&](std::size_t i) {
    inner[i] = windowed_order(50, 4, 3, false);
  });
  for (const auto& order : inner) {
    ASSERT_EQ(order.size(), 50u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(Parallel, WindowedReduceRethrowsProduceErrors) {
  const auto run = [] {
    return parallel_reduce_windowed<int, IndexWindow>(
        400, 4, 8, [] { return 0; },
        [](std::size_t b, std::size_t, IndexWindow&) {
          if (b == 200) throw std::runtime_error("window failed");
        },
        [](int& acc, const IndexWindow&) { ++acc; },
        [](int& total, const int& part) { total += part; });
  };
  EXPECT_THROW(run(), std::runtime_error);
  // The pool stays usable afterwards.
  EXPECT_EQ(windowed_order(100, 4, 7, false).size(), 100u);
}

TEST(Parallel, BlocksCoverEveryIndexOnce) {
  const std::size_t n = 1000;
  for (const std::size_t threads : {1u, 2u, 4u})
    for (const std::size_t grain : {1u, 7u, 1000u, 5000u}) {
      std::vector<int> hits(n, 0);
      parallel_for_blocks(n, threads, grain,
                          [&](std::size_t b, std::size_t e) {
                            if (threads > 1) {
                              EXPECT_LE(e - b, grain);
                            }
                            for (std::size_t i = b; i < e; ++i) ++hits[i];
                          });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << threads << " " << grain << " " << i;
    }
}

TEST(Parallel, PoolRunHonoursThreadCap) {
  // Slow chunks give every worker time to join; only two may take part.
  std::mutex mutex;
  std::set<std::thread::id> seen;
  ThreadPool::shared().run(
      32,
      [&](std::size_t) {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          seen.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      },
      2);
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), 2u);
}

TEST(Parallel, PoolRunExecutesAllChunks) {
  std::vector<int> hits(11, 0);
  ThreadPool::shared().run(hits.size(),
                           [&](std::size_t c) { ++hits[c]; });
  for (std::size_t c = 0; c < hits.size(); ++c) EXPECT_EQ(hits[c], 1) << c;
}

TEST(Parallel, DedicatedPoolConstructsAndDrains) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.worker_threads(), 2u);
  std::atomic<int> calls{0};
  pool.run(8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

}  // namespace
}  // namespace tsv::num

#include "core/tiled_evaluator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/error.h"
#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

// A placement dense enough that Stage II matters and wide enough that small
// tiles actually cull pairs.
tsvlib::Placement cluster_placement() {
  return tsvlib::make_random(kS, 40, geo::Box{{0, 0}, {150, 150}}, 10.0, 99);
}

geo::SampleGrid test_grid(const tsvlib::Placement& p) {
  return geo::SampleGrid::with_spacing(p.bounding_box().expanded(10.0), 3.0);
}

TEST(TiledEvaluator, MatchesMonolithicEvaluation) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  const StressResult want = fw.evaluate(grid);

  TiledOptions topt;
  topt.max_tile_points = 200;  // forces many tiles
  const TiledEvaluator tiled(fw, topt);
  std::vector<num::SymTensor2> got(grid.size());
  const TiledStats stats = tiled.evaluate(grid, [&](const Tile& tile) {
    for (std::size_t ty = 0; ty < tile.ny; ++ty)
      for (std::size_t tx = 0; tx < tile.nx; ++tx)
        got[(tile.iy0 + ty) * grid.nx() + (tile.ix0 + tx)] =
            tile.stress[ty * tile.nx + tx];
  });

  ASSERT_EQ(stats.points, grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double tol = 1e-12 * std::max(1.0, std::abs(want.stress[i].s11));
    EXPECT_NEAR(got[i].s11, want.stress[i].s11, tol) << i;
    EXPECT_NEAR(got[i].s22, want.stress[i].s22,
                1e-12 * std::max(1.0, std::abs(want.stress[i].s22)))
        << i;
    EXPECT_NEAR(got[i].s12, want.stress[i].s12,
                1e-12 * std::max(1.0, std::abs(want.stress[i].s12)))
        << i;
  }
}

TEST(TiledEvaluator, TilesCoverGridExactlyOnceInRowMajorOrder) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  TiledOptions topt;
  topt.max_tile_points = 150;
  const TiledEvaluator tiled(fw, topt);

  std::vector<int> covered(grid.size(), 0);
  std::size_t expected_index = 0;
  const TiledStats stats = tiled.evaluate(grid, [&](const Tile& tile) {
    EXPECT_EQ(tile.index, expected_index++);
    EXPECT_LE(tile.nx * tile.ny, topt.max_tile_points);
    ASSERT_EQ(tile.points.size(), tile.nx * tile.ny);
    ASSERT_EQ(tile.stress.size(), tile.nx * tile.ny);
    for (std::size_t ty = 0; ty < tile.ny; ++ty) {
      for (std::size_t tx = 0; tx < tile.nx; ++tx) {
        const std::size_t ix = tile.ix0 + tx;
        const std::size_t iy = tile.iy0 + ty;
        ASSERT_LT(ix, grid.nx());
        ASSERT_LT(iy, grid.ny());
        covered[iy * grid.nx() + ix] += 1;
        // Tile points are the grid points, row-major within the tile.
        const geo::Point gp = grid.point(ix, iy);
        const geo::Point tp = tile.points[ty * tile.nx + tx];
        EXPECT_DOUBLE_EQ(tp.x, gp.x);
        EXPECT_DOUBLE_EQ(tp.y, gp.y);
        EXPECT_TRUE(tile.bounds.contains(tp));
      }
    }
  });
  for (std::size_t i = 0; i < covered.size(); ++i)
    EXPECT_EQ(covered[i], 1) << "grid point " << i;
  EXPECT_EQ(stats.tiles, expected_index);
  EXPECT_EQ(stats.tiles, stats.tiles_x * stats.tiles_y);
  EXPECT_LE(stats.peak_tile_points, topt.max_tile_points);
  EXPECT_EQ(stats.points, grid.size());
}

TEST(TiledEvaluator, StatsReportCullingAndTimings) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  TiledOptions topt;
  topt.max_tile_points = 150;
  const TiledEvaluator tiled(fw, topt);
  const TiledStats stats = tiled.evaluate(grid, [](const Tile&) {});

  ASSERT_NE(fw.stage2(), nullptr);
  EXPECT_EQ(stats.total_pairs, fw.stage2()->ordered_pairs().size());
  EXPECT_GT(stats.total_pairs, 0u);
  // Every pair contributes to at least one tile, but small tiles of a large
  // chip must cull: the per-tile total stays below pairs x tiles.
  EXPECT_GE(stats.culled_pairs, stats.total_pairs);
  EXPECT_LT(stats.culled_pairs, stats.total_pairs * stats.tiles);
  EXPECT_GT(stats.stage1_seconds, 0.0);
  EXPECT_GT(stats.stage2_seconds, 0.0);
}

TEST(TiledEvaluator, SingleTileWhenBudgetCoversTheGrid) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const StressFramework fw(pair);
  const geo::SampleGrid grid(geo::Box::centered({0, 0}, 20, 10), 11, 6);
  const TiledEvaluator tiled(fw);  // default budget 64k points
  std::size_t tiles = 0;
  const TiledStats stats = tiled.evaluate(grid, [&](const Tile& tile) {
    ++tiles;
    EXPECT_EQ(tile.nx, grid.nx());
    EXPECT_EQ(tile.ny, grid.ny());
  });
  EXPECT_EQ(tiles, 1u);
  EXPECT_EQ(stats.tiles, 1u);
  EXPECT_EQ(stats.peak_tile_points, grid.size());
}

TEST(TiledEvaluator, KeepInteractiveExposesStageTwoPart) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  const StressResult want = fw.evaluate(grid);

  TiledOptions topt;
  topt.max_tile_points = 300;
  topt.keep_interactive = true;
  const TiledEvaluator tiled(fw, topt);
  bool any_nonzero = false;
  tiled.evaluate(grid, [&](const Tile& tile) {
    ASSERT_EQ(tile.interactive.size(), tile.stress.size());
    for (std::size_t ty = 0; ty < tile.ny; ++ty) {
      for (std::size_t tx = 0; tx < tile.nx; ++tx) {
        const std::size_t gi = (tile.iy0 + ty) * grid.nx() + (tile.ix0 + tx);
        const num::SymTensor2& got = tile.interactive[ty * tile.nx + tx];
        EXPECT_NEAR(got.s11, want.interactive[gi].s11,
                    1e-12 * std::max(1.0, std::abs(want.interactive[gi].s11)));
        any_nonzero |= got.s11 != 0.0;
      }
    }
  });
  EXPECT_TRUE(any_nonzero);
}

/// The field of a tiled map at `threads`, assembled on the grid.
std::vector<num::SymTensor2> tiled_map(const tsvlib::Placement& p,
                                       const geo::SampleGrid& grid,
                                       std::size_t threads,
                                       std::size_t max_tile_points,
                                       TiledStats* stats_out = nullptr) {
  FrameworkOptions fopt;
  fopt.num_threads = threads;
  const StressFramework fw(p, fopt);
  TiledOptions topt;
  topt.max_tile_points = max_tile_points;
  const TiledEvaluator tiled(fw, topt);
  std::vector<num::SymTensor2> out(grid.size());
  const TiledStats stats = tiled.evaluate(grid, [&](const Tile& tile) {
    for (std::size_t ty = 0; ty < tile.ny; ++ty)
      for (std::size_t tx = 0; tx < tile.nx; ++tx)
        out[(tile.iy0 + ty) * grid.nx() + (tile.ix0 + tx)] =
            tile.stress[ty * tile.nx + tx];
  });
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

void expect_bitwise(const std::vector<num::SymTensor2>& got,
                    const std::vector<num::SymTensor2>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }
}

// The tile driver composes with the thread pool (this test carries the
// `tsan` label). With at least as many tiles as threads every tile runs
// whole on one thread, so any thread count is bitwise the 1-thread map;
// with fewer tiles each tile's Stage II is pair-parallel and agrees with
// the serial map within the documented regrouping tolerance.
TEST(TiledEvaluator, ParallelTilesMatchSerialWithinTolerance) {
  const tsvlib::Placement p = cluster_placement();
  const geo::SampleGrid grid = test_grid(p);

  TiledStats stats;
  const auto want = tiled_map(p, grid, 1, 250, &stats);
  ASSERT_GE(stats.tiles, 4u);
  for (const std::size_t threads : {2, 3, 4})
    expect_bitwise(tiled_map(p, grid, threads, 250), want);

  const auto want_few = tiled_map(p, grid, 1, 2025, &stats);
  ASSERT_GT(stats.tiles, 1u);
  ASSERT_LT(stats.tiles, 6u);
  const auto got = tiled_map(p, grid, 6, 2025);
  ASSERT_EQ(got.size(), want_few.size());
  for (std::size_t i = 0; i < want_few.size(); ++i) {
    EXPECT_NEAR(got[i].s11, want_few[i].s11,
                1e-12 * std::max(1.0, std::abs(want_few[i].s11)))
        << i;
    EXPECT_NEAR(got[i].s22, want_few[i].s22,
                1e-12 * std::max(1.0, std::abs(want_few[i].s22)))
        << i;
    EXPECT_NEAR(got[i].s12, want_few[i].s12,
                1e-12 * std::max(1.0, std::abs(want_few[i].s12)))
        << i;
  }
}

// A dense cluster in the first tile makes it far costlier than the rest, so
// later tiles finish first and must wait for it: the consumer still sees
// every tile once, one call at a time, in row-major order.
TEST(TiledEvaluator, PipelineStreamsUnevenTilesInOrderOneAtATime) {
  std::vector<geo::Point> centers;
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) centers.push_back({8.0 * i, 8.0 * j});
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 5; ++j)
      if (i + j > 2) centers.push_back({100.0 + 60.0 * i, 100.0 + 60.0 * j});
  const tsvlib::Placement p(kS, centers);
  const geo::SampleGrid grid =
      geo::SampleGrid::with_spacing(p.bounding_box().expanded(10.0), 4.0);

  TiledStats serial;
  const auto want = tiled_map(p, grid, 1, 400, &serial);
  ASSERT_GE(serial.tiles, 16u);

  FrameworkOptions fopt;
  fopt.num_threads = 4;
  const StressFramework fw(p, fopt);
  const TiledEvaluator tiled(fw, TiledOptions{400, false});
  std::atomic<int> inside{0};
  std::size_t expected_index = 0;
  std::vector<num::SymTensor2> got(grid.size());
  const TiledStats stats = tiled.evaluate(grid, [&](const Tile& tile) {
    EXPECT_EQ(inside.fetch_add(1), 0);
    EXPECT_EQ(tile.index, expected_index++);
    for (std::size_t ty = 0; ty < tile.ny; ++ty)
      for (std::size_t tx = 0; tx < tile.nx; ++tx)
        got[(tile.iy0 + ty) * grid.nx() + (tile.ix0 + tx)] =
            tile.stress[ty * tile.nx + tx];
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    inside.fetch_sub(1);
  });
  EXPECT_EQ(expected_index, serial.tiles);
  expect_bitwise(got, want);

  // Every count is the 1-thread run's; only the timings differ.
  EXPECT_EQ(stats.tiles, serial.tiles);
  EXPECT_EQ(stats.tiles_x, serial.tiles_x);
  EXPECT_EQ(stats.tiles_y, serial.tiles_y);
  EXPECT_EQ(stats.points, serial.points);
  EXPECT_EQ(stats.peak_tile_points, serial.peak_tile_points);
  EXPECT_EQ(stats.total_pairs, serial.total_pairs);
  EXPECT_EQ(stats.culled_pairs, serial.culled_pairs);
  EXPECT_EQ(stats.resumed_tiles, 0u);
  EXPECT_EQ(stats.checkpoints_written, 0u);
  EXPECT_GT(stats.stage1_seconds, 0.0);
  EXPECT_GT(stats.stage2_seconds, 0.0);
}

// --- checkpoint / resume -------------------------------------------------

/// Runs a tiled evaluation collecting the full field; with `stop_after` >= 0
/// the consumer throws after that many tiles (simulating an interruption).
struct InterruptedRun : std::runtime_error {
  InterruptedRun() : std::runtime_error("interrupted") {}
};

std::vector<num::SymTensor2> collect(const geo::SampleGrid& grid,
                                     const TiledEvaluator& tiled,
                                     const CheckpointConfig& config,
                                     TiledStats* stats_out = nullptr,
                                     std::ptrdiff_t stop_after = -1) {
  std::vector<num::SymTensor2> out(grid.size());
  std::ptrdiff_t seen = 0;
  const TiledStats stats = tiled.evaluate(grid, [&](const Tile& tile) {
    if (stop_after >= 0 && seen++ == stop_after) throw InterruptedRun{};
    for (std::size_t ty = 0; ty < tile.ny; ++ty)
      for (std::size_t tx = 0; tx < tile.nx; ++tx)
        out[(tile.iy0 + ty) * grid.nx() + (tile.ix0 + tx)] =
            tile.stress[ty * tile.nx + tx];
  }, config);
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

TEST(TiledEvaluator, CheckpointWriterSeesMonotonicState) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  TiledOptions topt;
  topt.max_tile_points = 200;
  const TiledEvaluator tiled(fw, topt);

  std::vector<TiledCheckpoint> saved;
  CheckpointConfig config;
  config.every_tiles = 2;
  config.writer = [&](const TiledCheckpoint& cp) { saved.push_back(cp); };
  TiledStats stats;
  collect(grid, tiled, config, &stats);

  ASSERT_GT(stats.tiles, 4u);
  EXPECT_EQ(stats.checkpoints_written, saved.size());
  // Every other tile triggers a write, but never the final one.
  EXPECT_EQ(saved.size(), (stats.tiles - 1) / 2);
  std::size_t prev_tiles = 0;
  for (const TiledCheckpoint& cp : saved) {
    EXPECT_EQ(cp.fingerprint, tiled.fingerprint(grid));
    EXPECT_GT(cp.tiles_done, prev_tiles);
    EXPECT_LT(cp.tiles_done, stats.tiles);
    prev_tiles = cp.tiles_done;
  }
  EXPECT_EQ(stats.resumed_tiles, 0u);
}

TEST(TiledEvaluator, ResumeReplaysInterruptedRunBitwise) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  TiledOptions topt;
  topt.max_tile_points = 200;
  const TiledEvaluator tiled(fw, topt);

  // Clean reference run, no checkpointing.
  const std::vector<num::SymTensor2> want =
      collect(grid, tiled, CheckpointConfig{0, nullptr, nullptr});

  // Interrupted run: keep the latest checkpoint, die after 5 tiles.
  TiledCheckpoint last;
  CheckpointConfig config;
  config.every_tiles = 2;
  config.writer = [&](const TiledCheckpoint& cp) { last = cp; };
  EXPECT_THROW(collect(grid, tiled, config, nullptr, 5), InterruptedRun);
  ASSERT_EQ(last.tiles_done, 4u);  // tiles 0..3 checkpointed before death

  // Resumed run: replays the 4 finished tiles, computes the rest.
  CheckpointConfig resume_config;
  resume_config.resume = &last;
  TiledStats stats;
  const std::vector<num::SymTensor2> got =
      collect(grid, tiled, resume_config, &stats);
  EXPECT_EQ(stats.resumed_tiles, 4u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }
}

// The same interruption on the tile pipeline: the throw reaches the caller,
// no tile is streamed after it, the checkpoints hold only tiles streamed
// before it, and a resumed 4-thread run is bitwise the 1-thread map.
TEST(TiledEvaluator, PipelineRethrowsConsumerErrorAndResumesBitwise) {
  const tsvlib::Placement p = cluster_placement();
  const geo::SampleGrid grid = test_grid(p);
  const std::vector<num::SymTensor2> want = tiled_map(p, grid, 1, 200);

  FrameworkOptions fopt;
  fopt.num_threads = 4;
  const StressFramework fw(p, fopt);
  const TiledEvaluator tiled(fw, TiledOptions{200, false});
  TiledCheckpoint last;
  std::size_t writes = 0;
  CheckpointConfig config;
  config.every_tiles = 2;
  config.writer = [&](const TiledCheckpoint& cp) {
    last = cp;
    ++writes;
  };
  std::size_t seen = 0;
  EXPECT_THROW(tiled.evaluate(grid,
                              [&](const Tile&) {
                                if (seen++ == 5) throw InterruptedRun{};
                              },
                              config),
               InterruptedRun);
  EXPECT_EQ(seen, 6u);
  EXPECT_EQ(writes, 2u);
  ASSERT_EQ(last.tiles_done, 4u);

  CheckpointConfig resume_config;
  resume_config.resume = &last;
  TiledStats stats;
  const std::vector<num::SymTensor2> got =
      collect(grid, tiled, resume_config, &stats);
  EXPECT_EQ(stats.resumed_tiles, 4u);
  expect_bitwise(got, want);
}

TEST(TiledEvaluator, ResumeKeepsInteractiveFields) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  TiledOptions topt;
  topt.max_tile_points = 200;
  topt.keep_interactive = true;
  const TiledEvaluator tiled(fw, topt);

  std::vector<num::SymTensor2> want(grid.size());
  tiled.evaluate(grid, [&](const Tile& tile) {
    for (std::size_t ty = 0; ty < tile.ny; ++ty)
      for (std::size_t tx = 0; tx < tile.nx; ++tx)
        want[(tile.iy0 + ty) * grid.nx() + (tile.ix0 + tx)] =
            tile.interactive[ty * tile.nx + tx];
  });

  TiledCheckpoint last;
  CheckpointConfig config;
  config.every_tiles = 1;
  config.writer = [&](const TiledCheckpoint& cp) { last = cp; };
  std::ptrdiff_t seen = 0;
  EXPECT_THROW(tiled.evaluate(grid,
                              [&](const Tile&) {
                                if (seen++ == 3) throw InterruptedRun{};
                              },
                              config),
               InterruptedRun);
  ASSERT_GT(last.tiles_done, 0u);
  ASSERT_EQ(last.interactive.size(), last.stress.size());

  CheckpointConfig resume_config;
  resume_config.resume = &last;
  std::vector<num::SymTensor2> got(grid.size());
  tiled.evaluate(grid, [&](const Tile& tile) {
    for (std::size_t ty = 0; ty < tile.ny; ++ty)
      for (std::size_t tx = 0; tx < tile.nx; ++tx)
        got[(tile.iy0 + ty) * grid.nx() + (tile.ix0 + tx)] =
            tile.interactive[ty * tile.nx + tx];
  }, resume_config);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }
}

TEST(TiledEvaluator, MismatchedCheckpointRejected) {
  const tsvlib::Placement p = cluster_placement();
  const StressFramework fw(p);
  const geo::SampleGrid grid = test_grid(p);
  const TiledEvaluator tiled(fw, TiledOptions{200, false});

  TiledCheckpoint stale;
  stale.fingerprint = tiled.fingerprint(grid) ^ 1;  // wrong configuration
  stale.tiles_done = 1;
  CheckpointConfig config;
  config.resume = &stale;
  EXPECT_THROW(tiled.evaluate(grid, [](const Tile&) {}, config),
               tsv::InvalidInputError);

  // Right fingerprint but lying tile count: also rejected, not crashed.
  TiledCheckpoint lying;
  lying.fingerprint = tiled.fingerprint(grid);
  lying.tiles_done = 2;  // claims 2 tiles but holds no field data
  config.resume = &lying;
  EXPECT_THROW(tiled.evaluate(grid, [](const Tile&) {}, config),
               tsv::InvalidInputError);
}

TEST(TiledEvaluator, FingerprintSeparatesConfigurations) {
  const tsvlib::Placement p = cluster_placement();
  const geo::SampleGrid grid = test_grid(p);
  const StressFramework fw(p);
  const TiledEvaluator a(fw, TiledOptions{200, false});
  const TiledEvaluator b(fw, TiledOptions{300, false});  // different tiling
  EXPECT_NE(a.fingerprint(grid), b.fingerprint(grid));
  EXPECT_EQ(a.fingerprint(grid), a.fingerprint(grid));

  // Different placement: different fingerprint.
  const tsvlib::Placement q =
      tsvlib::make_random(kS, 40, geo::Box{{0, 0}, {150, 150}}, 10.0, 100);
  const StressFramework fwq(q);
  const TiledEvaluator c(fwq, TiledOptions{200, false});
  EXPECT_NE(a.fingerprint(grid), c.fingerprint(grid));
}

}  // namespace
}  // namespace tsv::core

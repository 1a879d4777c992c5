#include "core/tiled_evaluator.h"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <tuple>

#include "core/error.h"
#include "numeric/parallel.h"

namespace tsv::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 1099511628211ull;
    }
  }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// One tile's extent, points and fields, computed or replayed, with what
/// computing it cost.
struct TileData {
  std::size_t ix0 = 0, ix1 = 0;  ///< grid columns [ix0, ix1)
  std::size_t iy0 = 0, iy1 = 0;  ///< grid rows [iy0, iy1)
  std::vector<geo::Point> points;
  std::vector<num::SymTensor2> stress;
  std::vector<num::SymTensor2> interactive;
  double stage1_seconds = 0.0;
  double stage2_seconds = 0.0;
  std::size_t pairs = 0;  ///< ordered pairs Stage II evaluated

  geo::Box bounds(const geo::SampleGrid& grid) const {
    return {grid.point(ix0, iy0), grid.point(ix1 - 1, iy1 - 1)};
  }
};

}  // namespace

TiledEvaluator::TiledEvaluator(const StressFramework& framework,
                               const TiledOptions& options)
    : framework_(&framework), options_(options) {
  TSV_REQUIRE(options_.max_tile_points >= 1,
              "need at least one point per tile");
}

std::uint64_t TiledEvaluator::fingerprint(const geo::SampleGrid& grid) const {
  Fnv1a h;
  const tsvlib::Placement& p = framework_->stage1().placement();
  h.u64(p.size());
  for (const geo::Point& c : p.centers()) {
    h.f64(c.x);
    h.f64(c.y);
  }
  h.f64(p.structure().body_radius);
  h.f64(p.structure().liner_thickness);
  h.f64(grid.box().lo.x);
  h.f64(grid.box().lo.y);
  h.f64(grid.box().hi.x);
  h.f64(grid.box().hi.y);
  h.u64(grid.nx());
  h.u64(grid.ny());
  h.u64(options_.max_tile_points);
  h.u64(options_.keep_interactive ? 1 : 0);
  h.u64(framework_->stage2() != nullptr ? 1 : 0);
  return h.value();
}

TiledStats TiledEvaluator::evaluate(const geo::SampleGrid& grid,
                                    const TileConsumer& consume) const {
  return evaluate(grid, consume, CheckpointConfig{0, nullptr, nullptr});
}

TiledStats TiledEvaluator::evaluate(const geo::SampleGrid& grid,
                                    const TileConsumer& consume,
                                    const CheckpointConfig& checkpoint) const {
  TSV_REQUIRE(consume != nullptr, "null tile consumer");
  TiledStats stats;
  // Square-ish tiles: side = floor(sqrt(max_tile_points)) capped by the grid
  // extents, split evenly so tile sizes differ by at most one row/column.
  const std::size_t side = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(std::sqrt(static_cast<double>(
                 options_.max_tile_points)))));
  stats.tiles_x = (grid.nx() + side - 1) / side;
  stats.tiles_y = (grid.ny() + side - 1) / side;
  const InteractiveStage* stage2 = framework_->stage2();
  if (stage2 != nullptr) stats.total_pairs = stage2->ordered_pairs().size();
  const bool keep_interactive = options_.keep_interactive && stage2 != nullptr;

  const bool checkpointing =
      checkpoint.writer != nullptr && checkpoint.every_tiles > 0;
  const std::size_t total_tiles = stats.tiles_x * stats.tiles_y;

  // Accumulated completed-tile state (only when a writer may need it).
  TiledCheckpoint cp;
  cp.fingerprint = fingerprint(grid);
  if (checkpointing) {
    cp.stress.reserve(grid.size());
    if (keep_interactive) cp.interactive.reserve(grid.size());
  }
  const TiledCheckpoint* resume = checkpoint.resume;
  if (resume != nullptr) {
    if (resume->fingerprint != cp.fingerprint)
      throw InvalidInputError(
          "tiled checkpoint does not match this run (different placement, "
          "grid, or tiling configuration)");
    if (resume->tiles_done > total_tiles)
      throw InvalidInputError(
          "tiled checkpoint claims more finished tiles than the run has");
  }
  const std::size_t resumed = resume != nullptr ? resume->tiles_done : 0;

  // Tile t's points, row-major within the tile.
  const auto tile_points = [&](std::size_t t, TileData& d) {
    std::tie(d.iy0, d.iy1) =
        num::chunk_bounds(grid.ny(), stats.tiles_y, t / stats.tiles_x);
    std::tie(d.ix0, d.ix1) =
        num::chunk_bounds(grid.nx(), stats.tiles_x, t % stats.tiles_x);
    d.points.clear();
    d.points.reserve((d.ix1 - d.ix0) * (d.iy1 - d.iy0));
    for (std::size_t iy = d.iy0; iy < d.iy1; ++iy)
      for (std::size_t ix = d.ix0; ix < d.ix1; ++ix)
        d.points.push_back(grid.point(ix, iy));
  };
  const auto compute = [&](std::size_t t, TileData& d) {
    tile_points(t, d);
    const auto t0 = Clock::now();
    d.stress = framework_->stage1().evaluate(d.points);
    d.stage1_seconds = seconds_since(t0);
    d.stage2_seconds = 0.0;
    d.pairs = 0;
    if (stage2 == nullptr) return;
    const auto t1 = Clock::now();
    // One pair enumeration per tile, shared between the statistics and the
    // evaluation (evaluate(points, bounds) would re-derive it).
    const auto pairs = stage2->ordered_pairs_near(d.bounds(grid));
    d.pairs = pairs.size();
    d.interactive = stage2->evaluate_with_pairs(d.points, pairs);
    num::parallel_for(d.points.size(),
                      framework_->options().stage2.num_threads,
                      [&](std::size_t i) { d.stress[i] += d.interactive[i]; });
    d.stage2_seconds = seconds_since(t1);
  };

  // Hands tile t to the consumer and the checkpoint, strictly in tile order.
  std::size_t fresh_tiles = 0;  // computed (not replayed) since last write
  const std::vector<num::SymTensor2> empty;
  const auto emit = [&](std::size_t t, const TileData& d, bool replay) {
    Tile tile{t,
              d.ix0,
              d.iy0,
              d.ix1 - d.ix0,
              d.iy1 - d.iy0,
              d.bounds(grid),
              d.points,
              d.stress,
              keep_interactive ? d.interactive : empty};
    consume(tile);
    ++stats.tiles;
    stats.points += d.points.size();
    stats.peak_tile_points = std::max(stats.peak_tile_points, d.points.size());
    stats.stage1_seconds += d.stage1_seconds;
    stats.stage2_seconds += d.stage2_seconds;
    stats.culled_pairs += d.pairs;
    if (!checkpointing) return;
    cp.stress.insert(cp.stress.end(), d.stress.begin(), d.stress.end());
    if (keep_interactive)
      cp.interactive.insert(cp.interactive.end(), d.interactive.begin(),
                            d.interactive.end());
    cp.tiles_done = stats.tiles;
    if (replay) return;
    // The final tile needs no checkpoint: the run is complete.
    if (++fresh_tiles % checkpoint.every_tiles == 0 &&
        stats.tiles < total_tiles) {
      const auto t2 = Clock::now();
      checkpoint.writer(cp);
      stats.checkpoint_seconds += seconds_since(t2);
      ++stats.checkpoints_written;
    }
  };

  // Finished before the interruption: stream the stored fields instead of
  // re-evaluating (bitwise what the original run produced).
  std::size_t resume_offset = 0;  // cursor into resume->stress
  TileData d;
  for (std::size_t t = 0; t < resumed; ++t) {
    tile_points(t, d);
    const std::size_t n = d.points.size();
    if (resume_offset + n > resume->stress.size())
      throw InvalidInputError(
          "tiled checkpoint is shorter than its tile count claims");
    const auto from = static_cast<std::ptrdiff_t>(resume_offset);
    const auto to = static_cast<std::ptrdiff_t>(resume_offset + n);
    d.stress.assign(resume->stress.begin() + from,
                    resume->stress.begin() + to);
    if (keep_interactive) {
      if (resume_offset + n > resume->interactive.size())
        throw InvalidInputError(
            "tiled checkpoint is missing its interactive fields");
      d.interactive.assign(resume->interactive.begin() + from,
                           resume->interactive.begin() + to);
    }
    resume_offset += n;
    ++stats.resumed_tiles;
    emit(t, d, true);
  }

  const std::size_t fresh = total_tiles - resumed;
  const FrameworkOptions& fopt = framework_->options();
  const std::size_t threads =
      std::max(num::resolve_thread_count(fopt.stage1.num_threads),
               num::resolve_thread_count(fopt.stage2.num_threads));
  if (threads <= 1 || fresh < threads) {
    // Too few tiles to go round: one tile at a time, each stage parallel
    // inside the tile.
    for (std::size_t t = resumed; t < total_tiles; ++t) {
      compute(t, d);
      emit(t, d, false);
    }
    return stats;
  }

  // Tile pipeline: every tile is one pool job whose stage calls, nested,
  // run serially on its thread, so each point gets the 1-thread sum. A
  // finished tile whose predecessor is still being computed is parked; the
  // thread that finishes the head tile drains the parked run in order
  // (consumer, checkpoint accumulation, writer) while the other threads go
  // on computing. At most `lookahead` tiles are computed or parked ahead of
  // the head, which keeps memory at O(threads x tile).
  const std::size_t lookahead = 2 * threads;
  std::mutex mutex;  // guards ready, head, draining and failed
  std::condition_variable room;  // the head advanced or the run failed
  std::vector<std::unique_ptr<TileData>> ready(fresh);
  std::size_t head = 0;  // next fresh tile to emit
  bool draining = false;
  bool failed = false;
  const auto fail = [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      failed = true;
    }
    room.notify_all();
  };
  const auto job = [&](std::size_t j) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      room.wait(lock, [&] { return failed || j < head + lookahead; });
      if (failed) return;
    }
    auto out = std::make_unique<TileData>();
    try {
      compute(resumed + j, *out);
    } catch (...) {
      fail();
      throw;
    }
    std::unique_lock<std::mutex> lock(mutex);
    ready[j] = std::move(out);
    if (draining) return;  // the draining thread will reach it
    draining = true;
    while (head < fresh && ready[head]) {
      const std::unique_ptr<TileData> done = std::move(ready[head]);
      const std::size_t t = resumed + head;
      lock.unlock();
      try {
        emit(t, *done, false);
      } catch (...) {
        fail();  // leaves `draining` set: nothing is emitted after this
        throw;
      }
      lock.lock();
      ++head;
      room.notify_all();
    }
    draining = false;
  };
  num::ThreadPool::shared().run(fresh, job, threads);
  return stats;
}

}  // namespace tsv::core

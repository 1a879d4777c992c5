#pragma once
// Tiled, streaming evaluation of the two-stage framework over a sample
// grid — the full-chip driver. A 10k-TSV chip sampled at sub-um spacing has
// millions of points; materializing the whole field (plus the Stage II
// partial buffers of the pair-parallel reduce) costs O(chip) memory. This
// driver splits the grid into cache-sized tiles, evaluates both stages per
// tile (Stage II enumerates only the pairs whose victim can reach the tile,
// via the TSV grid index) and hands each finished tile to a consumer, so
// peak memory is O(threads x tile) and results stream in deterministic
// row-major tile order.
//
// Threads: with at least as many tiles to compute as threads, the tiles
// run as a pipeline on the shared pool — each tile whole on one thread, so
// every point gets the 1-thread sum and the map is bitwise the same at any
// thread count. Finished tiles are handed on strictly in order by whichever
// thread completes the head tile (consumer, checkpoint accumulation,
// writer) while the other threads compute later tiles, so checkpoint writes
// overlap evaluation. With fewer tiles than threads each tile is evaluated
// in turn with its stages parallel inside it, which regroups Stage II sums
// (<= 1e-12 relative to the serial map).

#include <cstdint>
#include <functional>
#include <vector>

#include "core/framework.h"
#include "geometry/sample_grid.h"

namespace tsv::core {

struct TiledOptions {
  /// Upper bound on points per tile. The default keeps a tile's output plus
  /// one private Stage II buffer per thread comfortably inside the last
  /// level cache for typical thread counts (64k points x 24 B/tensor =
  /// 1.5 MB per buffer).
  std::size_t max_tile_points = 64 * 1024;
  /// Also expose the Stage II part of each tile (Tile::interactive). Off by
  /// default: most consumers only need the total field.
  bool keep_interactive = false;
};

/// One finished tile, valid only for the duration of the consumer call.
struct Tile {
  std::size_t index = 0;  ///< running number, row-major (y-outer) tile order
  std::size_t ix0 = 0;    ///< first grid column of the tile
  std::size_t iy0 = 0;    ///< first grid row of the tile
  std::size_t nx = 0;     ///< tile extent in columns
  std::size_t ny = 0;     ///< tile extent in rows
  geo::Box bounds;        ///< hull of the tile's points
  /// Tile points, row-major within the tile (y outer), and the fields at
  /// them; `interactive` is empty unless TiledOptions::keep_interactive.
  const std::vector<geo::Point>& points;
  const std::vector<num::SymTensor2>& stress;
  const std::vector<num::SymTensor2>& interactive;
};

using TileConsumer = std::function<void(const Tile&)>;

/// Completed-tile state of an interrupted (or in-flight) tiled run — enough
/// to resume without re-evaluating finished tiles. The fingerprint binds
/// the state to one (placement, grid, tiling) configuration so a stale
/// checkpoint can never be resumed against the wrong run. Persistence is
/// the io layer's job (io::save_tiled_checkpoint / load_tiled_checkpoint).
struct TiledCheckpoint {
  std::uint64_t fingerprint = 0;
  std::size_t tiles_done = 0;
  /// Fields of the finished tiles, concatenated in row-major tile order
  /// (each tile row-major internally, matching Tile::stress).
  std::vector<num::SymTensor2> stress;
  /// Stage II parts, only populated when TiledOptions::keep_interactive.
  std::vector<num::SymTensor2> interactive;
};

/// Checkpointing policy for one evaluate() run.
struct CheckpointConfig {
  /// Call `writer` after every this many freshly computed tiles. The final
  /// tile never triggers a write: a completed run needs no checkpoint.
  std::size_t every_tiles = 16;
  /// Persistence hook (e.g. [&](const auto& cp) {
  /// io::save_tiled_checkpoint(path, cp); }). Null disables writing, which
  /// makes resume-only replay possible. Called like the consumer: in tile
  /// order, never concurrently, possibly on a pool thread.
  std::function<void(const TiledCheckpoint&)> writer;
  /// Resume state: finished tiles are replayed to the consumer from the
  /// stored fields (bitwise identical, no re-evaluation) and computation
  /// continues at the first unfinished tile. Must match this run's
  /// fingerprint (throws tsv::InvalidInputError otherwise).
  const TiledCheckpoint* resume = nullptr;
};

struct TiledStats {
  std::size_t tiles = 0;
  std::size_t tiles_x = 0;
  std::size_t tiles_y = 0;
  std::size_t points = 0;
  std::size_t peak_tile_points = 0;
  /// Time in each stage, summed over tiles. On the tile pipeline tiles run
  /// concurrently, so these are summed worker time and can exceed the wall.
  double stage1_seconds = 0.0;
  double stage2_seconds = 0.0;
  /// Ordered pairs in the whole design, and the total over tiles of the
  /// pairs each tile actually evaluated. Their ratio measures how much the
  /// per-tile culling saves vs. evaluating every pair against every tile.
  std::size_t total_pairs = 0;
  std::size_t culled_pairs = 0;
  /// Checkpoint accounting: tiles replayed from a resume checkpoint instead
  /// of evaluated, checkpoint writes performed, and the time spent in the
  /// writer. On the tile pipeline the writer runs while other threads keep
  /// computing, so this is not the wall-clock overhead of checkpointing
  /// (bench_fullchip measures that against the ≤5% budget).
  std::size_t resumed_tiles = 0;
  std::size_t checkpoints_written = 0;
  double checkpoint_seconds = 0.0;
};

class TiledEvaluator {
 public:
  explicit TiledEvaluator(const StressFramework& framework,
                          const TiledOptions& options = {});

  const TiledOptions& options() const { return options_; }

  /// Evaluates the framework over `grid`, streaming tiles to `consume` in
  /// row-major tile order. The Tile references are only valid inside the
  /// callback — copy what you keep. Calls never overlap, but on the tile
  /// pipeline each may run on a pool thread rather than the caller's, so
  /// the consumer must not rely on thread-local state; an exception it
  /// throws stops the run (no tile is streamed after it) and is rethrown
  /// here.
  TiledStats evaluate(const geo::SampleGrid& grid,
                      const TileConsumer& consume) const;

  /// Same, with periodic checkpointing and/or resume (see CheckpointConfig).
  /// The streamed tiles — replayed and computed — are identical to an
  /// uninterrupted run's.
  TiledStats evaluate(const geo::SampleGrid& grid, const TileConsumer& consume,
                      const CheckpointConfig& checkpoint) const;

  /// FNV-1a fingerprint of everything a checkpoint must agree on: the
  /// placement (centers + structure), the grid geometry, the tile budget,
  /// and keep_interactive.
  std::uint64_t fingerprint(const geo::SampleGrid& grid) const;

 private:
  const StressFramework* framework_;
  TiledOptions options_;
};

}  // namespace tsv::core

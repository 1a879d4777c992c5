#pragma once
// The Stage I / Stage II replay every traced run makes: each tile of a grid
// goes through the three public stage calls the tiled evaluator makes
// (LinearSuperposition::evaluate, InteractiveStage::ordered_pairs_near,
// InteractiveStage::evaluate_with_pairs), one span per call. It gives the
// per-layer metrics all three workloads share.

#include <cstddef>
#include <vector>

#include "common.h"
#include "core/interactive_stage.h"
#include "core/superposition.h"
#include "geometry/sample_grid.h"

namespace perfbench {

struct TileGeometry {
  std::size_t ix0, iy0, nx, ny;
  tsv::geo::Box bounds;
};

/// The tiles TiledEvaluator cuts `grid` into for a tile budget of
/// `max_tile_points`: square-ish, split evenly, in row-major tile order.
std::vector<TileGeometry> evaluator_tiles(const tsv::geo::SampleGrid& grid,
                                          std::size_t max_tile_points);

struct Replay {
  double superposition_s = 0.0;
  double pairs_near_s = 0.0;
  double interactive_s = 0.0;
  std::size_t jobs = 0;   ///< (tile, ordered pair) jobs
  std::size_t evals = 0;  ///< (pair, point in the victim's disc) evaluations
};

/// Replays every tile; spans are named "<stage call><suffix>". Counting the
/// (pair, point) evaluations walks the geometry and is skipped unless
/// `count_evals`.
Replay replay_tiles(const tsv::core::LinearSuperposition& stage1,
                    const tsv::core::InteractiveStage& stage2,
                    const tsv::geo::SampleGrid& grid,
                    const std::vector<TileGeometry>& tiles, bool count_evals,
                    Tracer& tracer, const char* suffix = "");

/// The per-layer metrics of a counted replay.
void report_replay(Report& report, const Replay& r,
                   const tsv::core::InteractiveStage& stage2,
                   const std::string& note);

}  // namespace perfbench

#include "replay.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace perfbench {

using namespace tsv;

std::vector<TileGeometry> evaluator_tiles(const geo::SampleGrid& grid,
                                          std::size_t max_tile_points) {
  // Mirrors TiledEvaluator::evaluate: side = floor(sqrt(budget)), then
  // each axis split evenly into ceil(n / side) chunks.
  const std::size_t side = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(std::sqrt(static_cast<double>(max_tile_points)))));
  const std::size_t tx = (grid.nx() + side - 1) / side;
  const std::size_t ty = (grid.ny() + side - 1) / side;
  std::vector<TileGeometry> tiles;
  for (std::size_t j = 0; j < ty; ++j) {
    const std::size_t iy0 = grid.ny() * j / ty;
    const std::size_t iy1 = grid.ny() * (j + 1) / ty;
    for (std::size_t i = 0; i < tx; ++i) {
      const std::size_t ix0 = grid.nx() * i / tx;
      const std::size_t ix1 = grid.nx() * (i + 1) / tx;
      tiles.push_back({ix0, iy0, ix1 - ix0, iy1 - iy0,
                       geo::Box{grid.point(ix0, iy0),
                                grid.point(ix1 - 1, iy1 - 1)}});
    }
  }
  return tiles;
}

namespace {

/// (pair, point) evaluations a tile's pair list implies: grid points of the
/// tile within the influence radius of each pair's victim.
std::size_t pair_point_evals(
    const geo::SampleGrid& grid, const TileGeometry& t,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
    const std::vector<geo::Point>& centers, double radius) {
  std::size_t total = 0;
  const geo::Point origin = grid.point(0, 0);
  for (const auto& [v, a] : pairs) {
    const geo::Point c = centers[v];
    for (std::size_t iy = t.iy0; iy < t.iy0 + t.ny; ++iy) {
      const double dy = origin.y + static_cast<double>(iy) * grid.dy() - c.y;
      if (std::abs(dy) > radius) continue;
      const double half = std::sqrt(radius * radius - dy * dy);
      const double lo = std::ceil((c.x - half - origin.x) / grid.dx());
      const double hi = std::floor((c.x + half - origin.x) / grid.dx());
      const double x0 = std::max(lo, static_cast<double>(t.ix0));
      const double x1 = std::min(hi, static_cast<double>(t.ix0 + t.nx - 1));
      if (x1 >= x0) total += static_cast<std::size_t>(x1 - x0) + 1;
    }
  }
  return total;
}

}  // namespace

Replay replay_tiles(const core::LinearSuperposition& stage1,
                    const core::InteractiveStage& stage2,
                    const geo::SampleGrid& grid,
                    const std::vector<TileGeometry>& tiles, bool count_evals,
                    Tracer& tracer, const char* suffix) {
  const std::string s1 = std::string("core.superposition.evaluate") + suffix;
  const std::string pn =
      std::string("core.interactive_stage.pairs_near") + suffix;
  const std::string s2 =
      std::string("core.interactive_stage.evaluate") + suffix;
  Replay r;
  std::vector<geo::Point> points;
  for (const TileGeometry& t : tiles) {
    points.clear();
    for (std::size_t iy = t.iy0; iy < t.iy0 + t.ny; ++iy)
      for (std::size_t ix = t.ix0; ix < t.ix0 + t.nx; ++ix)
        points.push_back(grid.point(ix, iy));
    {
      Tracer::Scope span(tracer, s1.c_str());
      const auto stress = stage1.evaluate(points);
      r.superposition_s += span.end();
    }
    Tracer::Scope pairs_span(tracer, pn.c_str());
    const auto pairs = stage2.ordered_pairs_near(t.bounds);
    r.pairs_near_s += pairs_span.end();
    {
      Tracer::Scope span(tracer, s2.c_str());
      const auto interactive = stage2.evaluate_with_pairs(points, pairs);
      r.interactive_s += span.end();
    }
    r.jobs += pairs.size();
    if (count_evals)
      r.evals += pair_point_evals(grid, t, pairs, stage1.placement().centers(),
                                  stage2.options().influence_radius);
  }
  return r;
}

void report_replay(Report& report, const Replay& r,
                   const core::InteractiveStage& stage2,
                   const std::string& note) {
  const std::size_t ordered = stage2.ordered_pairs().size();
  report.metric("core.superposition.evaluate_s", r.superposition_s, "s", note);
  report.metric("core.interactive_stage.pairs_near_s", r.pairs_near_s, "s");
  report.metric("core.interactive_stage.evaluate_s", r.interactive_s, "s");
  report.metric("core.interactive_stage.pair_tile_jobs",
                static_cast<double>(r.jobs), "count");
  report.metric("core.interactive_stage.ordered_pairs",
                static_cast<double>(ordered), "count");
  report.metric("core.interactive_stage.pair_dup_ratio",
                static_cast<double>(r.jobs) / static_cast<double>(ordered),
                "ratio");
  report.metric("core.interactive_stage.pair_point_evals",
                static_cast<double>(r.evals), "count");
  report.metric("core.interactive_stage.ns_per_pair_point",
                1e9 * r.interactive_s / static_cast<double>(r.evals), "ns");
}

}  // namespace perfbench

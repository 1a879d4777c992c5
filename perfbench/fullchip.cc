// fullchip-10k: a cold full-chip stress map. 10k TSVs on a 2 um grid, a
// certified PairSurrogate attached, every other framework and tiling option
// at its default, evaluated through io::evaluate_with_checkpoint (about
// three checkpoint writes) at 4 threads. The operation is one such map; the
// timed phase repeats it.
//
// The traced run replays each tile through the three public stage calls the
// tiled evaluator makes (see replay.h) using tile geometry captured in the
// consumer, at 1 thread and at 4, and times the checkpoint writer through a
// caller-supplied CheckpointConfig::writer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "analytic/interaction.h"
#include "analytic/single_tsv.h"
#include "analytic/surrogate.h"
#include "common.h"
#include "core/framework.h"
#include "core/tiled_evaluator.h"
#include "geometry/sample_grid.h"
#include "io/snapshot.h"
#include "replay.h"
#include "tsv/fullchip.h"

namespace perfbench {
namespace {

using namespace tsv;

constexpr double kDensity = 0.0025;  // TSVs per um^2
constexpr double kSpacing = 2.0;     // um
constexpr double kMargin = 25.0;     // um halo around the placement
constexpr std::size_t kProbeStride = 101;
constexpr const char* kCheckpoint = "map.ckpt";

/// Everything the setup phase builds.
struct Setup {
  tsvlib::FullChipDesign design;
  std::shared_ptr<const ana::InclusionResponse> response;
  std::shared_ptr<const ana::InteractiveStressModel> model;
  std::shared_ptr<const ana::PairSurrogate> surrogate;
  std::unique_ptr<core::StressFramework> fw1;
  std::unique_ptr<core::StressFramework> fw4;
  std::unique_ptr<core::TiledEvaluator> tiled4;
};

std::unique_ptr<Setup> build(std::size_t tsvs, std::uint64_t seed,
                             Tracer& tracer) {
  auto s = std::make_unique<Setup>();
  const tsvlib::TsvStructure structure{};
  {
    Tracer::Scope span(tracer, "tsv.make_fullchip");
    s->design = tsvlib::make_fullchip(
        structure, tsvlib::spec_for_count(tsvs, kDensity, seed));
  }
  {
    Tracer::Scope span(tracer, "analytic.characterize");
    const ana::SingleTsvModel single(structure, mat::ThermalLoad{});
    s->response = std::make_shared<const ana::InclusionResponse>(structure);
    s->model = std::make_shared<const ana::InteractiveStressModel>(
        s->response, single.k_hat());
  }
  {
    Tracer::Scope span(tracer, "analytic.surrogate_fit");
    s->surrogate = std::make_shared<const ana::PairSurrogate>(
        ana::PairSurrogate::fit(*s->model));
  }
  s->model->attach_surrogate(s->surrogate);
  {
    Tracer::Scope span(tracer, "core.framework_build");
    core::FrameworkOptions one;
    core::FrameworkOptions four;
    four.num_threads = 4;
    s->fw1 = std::make_unique<core::StressFramework>(s->design.placement,
                                                     s->model, one);
    s->fw4 = std::make_unique<core::StressFramework>(s->design.placement,
                                                     s->model, four);
    s->tiled4 = std::make_unique<core::TiledEvaluator>(*s->fw4);
  }
  return s;
}

geo::SampleGrid grid_for(const Setup& s) {
  return geo::SampleGrid::with_spacing(
      s.design.placement.bounding_box().expanded(kMargin), kSpacing);
}

/// Writes every this many tiles give about three checkpoints per map (the
/// tiled evaluator's square tiles of floor(sqrt(max_tile_points)) points).
std::size_t checkpoint_every(const geo::SampleGrid& grid,
                             const core::TiledOptions& options) {
  const auto side = static_cast<std::size_t>(
      std::floor(std::sqrt(static_cast<double>(options.max_tile_points))));
  const std::size_t tiles =
      ((grid.nx() + side - 1) / side) * ((grid.ny() + side - 1) / side);
  return std::max<std::size_t>(1, tiles / 3);
}

/// What one map run leaves behind: the probe values and, when traced, the
/// tile geometry and the consumer/writer accounting.
struct MapRun {
  double wall_s = 0.0;
  std::vector<num::SymTensor2> probe;  ///< stress at grid index k*stride
  std::size_t points = 0;
  std::vector<TileGeometry> tiles;
  std::vector<double> tile_gap_ms;  ///< between consumer callbacks
  double consumer_s = 0.0;
  double write_s = 0.0;
  std::size_t writes = 0;
  std::uintmax_t bytes = 0;
};

/// One cold map. Untraced: io::evaluate_with_checkpoint. Traced: the same
/// evaluate-with-writer call that function makes, with the writer
/// (io::save_tiled_checkpoint) and the consumer wrapped in spans.
MapRun run_map(const core::TiledEvaluator& tiled, const geo::SampleGrid& grid,
               std::size_t every, bool traced, Tracer& tracer,
               const char* span_name) {
  MapRun r;
  r.probe.resize((grid.size() + kProbeStride - 1) / kProbeStride);
  Clock::time_point last;
  const auto consume = [&](const core::Tile& tile) {
    const Clock::time_point enter = Clock::now();
    Tracer::Scope span(tracer, "consumer");
    for (std::size_t k = 0; k < tile.stress.size(); ++k) {
      const std::size_t g =
          (tile.iy0 + k / tile.nx) * grid.nx() + tile.ix0 + k % tile.nx;
      if (g % kProbeStride == 0) r.probe[g / kProbeStride] = tile.stress[k];
    }
    r.points += tile.stress.size();
    if (traced) {
      r.tiles.push_back({tile.ix0, tile.iy0, tile.nx, tile.ny, tile.bounds});
      r.tile_gap_ms.push_back(
          std::chrono::duration<double, std::milli>(enter - last).count());
      r.consumer_s += span.end();
      last = Clock::now();
    }
  };
  std::error_code ec;
  std::filesystem::remove(kCheckpoint, ec);
  Tracer::Scope map_span(tracer, span_name);
  const Clock::time_point t0 = Clock::now();
  last = t0;
  if (!traced) {
    io::evaluate_with_checkpoint(tiled, grid, consume, kCheckpoint, every);
  } else {
    core::CheckpointConfig config;
    config.every_tiles = every;
    config.writer = [&](const core::TiledCheckpoint& cp) {
      Tracer::Scope span(tracer, "io.checkpoint.write");
      io::save_tiled_checkpoint(kCheckpoint, cp);
      r.write_s += span.end();
      ++r.writes;
      r.bytes += std::filesystem::file_size(kCheckpoint);
    };
    tiled.evaluate(grid, consume, config);
    std::filesystem::remove(kCheckpoint, ec);
  }
  r.wall_s = seconds_since(t0);
  return r;
}

/// The correctness gate: at every probe, |map - exact series| must stay
/// within (ordered pairs whose victim reaches the probe) x certified
/// relative bound x field scale, plus 1e-12 of the field scale for
/// floating-point regrouping in Stage I.
class ProbeGate {
 public:
  ProbeGate(const Setup& s, const geo::SampleGrid& grid) {
    for (std::size_t g = 0; g < grid.size(); g += kProbeStride)
      points_.push_back(grid.point(g));
    // The exact series: same characterization, no surrogate attached.
    const auto exact_model =
        std::make_shared<const ana::InteractiveStressModel>(s.response,
                                                            s.model->k_hat());
    core::FrameworkOptions opt;
    opt.num_threads = 4;
    const core::StressFramework exact(s.design.placement, exact_model, opt);
    exact_ = exact.evaluate(points_).stress;

    const ana::SurrogateCertificate& cert = s.surrogate->certificate();
    const core::InteractiveStage& stage2 = *s.fw1->stage2();
    const double radius = stage2.options().influence_radius;
    const auto& centers = s.design.placement.centers();
    bound_.reserve(points_.size());
    for (const geo::Point& p : points_) {
      std::size_t reaching = 0;
      for (const auto& [v, a] : stage2.ordered_pairs_near(geo::Box{p, p}))
        if (geo::distance(centers[v], p) <= radius) ++reaching;
      bound_.push_back(
          (static_cast<double>(reaching) * cert.certified_rel_bound + 1e-12) *
          cert.field_scale);
    }
  }

  /// Returns the worst deviation as a share of its bound (<= 1 passes).
  double worst_share(const std::vector<num::SymTensor2>& probe) const {
    double worst = 0.0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const num::SymTensor2& a = probe[i];
      const num::SymTensor2& b = exact_[i];
      const double dev = std::max({std::abs(a.s11 - b.s11),
                                   std::abs(a.s22 - b.s22),
                                   std::abs(a.s12 - b.s12)});
      worst = std::max(worst, dev / bound_[i]);
    }
    return worst;
  }

 private:
  std::vector<geo::Point> points_;
  std::vector<num::SymTensor2> exact_;
  std::vector<double> bound_;
};

void check_map(const MapRun& r, const geo::SampleGrid& grid,
               const ProbeGate& gate, Report& report, const char* what) {
  const double share = gate.worst_share(r.probe);
  char msg[160];
  std::snprintf(msg, sizeof(msg),
                "%s: %zu of %zu points, worst probe deviation %.3g of bound",
                what, r.points, grid.size(), share);
  report.operation(r.points == grid.size() && share <= 1.0, msg);
}

}  // namespace

void run_fullchip(const Args& args, Report& report, Tracer& tracer) {
  const std::size_t tsvs = args.smoke ? 1000 : 10000;
  const std::uint64_t seed = design_seed(args, tsvs);
  const std::size_t setup_reps = args.smoke ? 2 : 5;
  reset_peak_rss();

  // Setup: repeated, median reported. In the traced run half the repeats
  // are traced, so setup's tracing overhead is measured too.
  std::vector<double> setup_s;
  std::vector<double> setup_traced_s;
  std::unique_ptr<Setup> s;
  const bool traced_run = tracer.enabled();
  for (std::size_t i = 0; i < setup_reps; ++i) {
    for (const bool traced : {false, true}) {
      if (traced && !traced_run) continue;
      tracer.set_enabled(traced);
      s.reset();
      const Clock::time_point t0 = Clock::now();
      s = build(tsvs, seed, tracer);
      (traced ? setup_traced_s : setup_s).push_back(seconds_since(t0));
    }
  }
  tracer.set_enabled(traced_run);
  const geo::SampleGrid grid = grid_for(*s);
  const std::size_t every = checkpoint_every(grid, s->tiled4->options());
  std::printf("fullchip: %zu TSVs, %zu x %zu = %zu points, checkpoint every "
              "%zu tiles, surrogate %llu coefficients, bound %.3g\n",
              s->design.placement.size(), grid.nx(), grid.ny(), grid.size(),
              every,
              static_cast<unsigned long long>(
                  s->surrogate->coefficient_count()),
              s->surrogate->certificate().certified_rel_bound);
  const ProbeGate gate(*s, grid);

  // Timed phase: 4-thread maps until the time is used. The traced run
  // alternates untraced and traced maps.
  std::vector<double> map_ms, map_traced_ms;
  MapRun traced4;
  const Clock::time_point phase = Clock::now();
  do {
    for (const bool traced : {false, true}) {
      if (traced && !traced_run) continue;
      tracer.set_enabled(traced);
      MapRun r = run_map(*s->tiled4, grid, every, traced, tracer, "map_4t");
      check_map(r, grid, gate, report, "map_4t");
      (traced ? map_traced_ms : map_ms).push_back(1e3 * r.wall_s);
      if (traced) traced4 = std::move(r);
    }
  } while (seconds_since(phase) < args.seconds);
  tracer.set_enabled(traced_run);

  if (!traced_run) {
    report.metric("setup_s", median(setup_s), "s", describe(setup_s));
    report.metric("op_median_ms", median(map_ms), "ms",
                  describe(map_ms) + " checkpointed 4-thread maps");
    // Per second of map time: the probe checks between maps are not part
    // of the operation.
    report.metric("ops_per_s", per_second(map_ms), "1/s", "maps per second");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Per-layer metrics. Setup spans come from the traced setups.
  const double reps = static_cast<double>(setup_traced_s.size());
  report.metric("tsv.make_fullchip_s",
                tracer.total_seconds("tsv.make_fullchip") / reps, "s");
  report.detail("analytic.surrogate_fit_s",
                tracer.total_seconds("analytic.surrogate_fit") / reps, "s");
  report.detail("core.framework_build_s",
                tracer.total_seconds("core.framework_build") / reps, "s");

  // Replay the captured tiles at both thread counts.
  s->surrogate->reset_use_stats();
  const core::InteractiveStage& stage2_1t = *s->fw1->stage2();
  const Replay r1 = replay_tiles(s->fw1->stage1(), stage2_1t, grid,
                                 traced4.tiles, true, tracer);
  const ana::SurrogateUseStats use = s->surrogate->use_stats();
  const Replay r4 = replay_tiles(s->fw4->stage1(), *s->fw4->stage2(), grid,
                                 traced4.tiles, false, tracer, "[4t]");
  report_replay(report, r1, stage2_1t, "1-thread replay of the map's tiles");
  report.detail("core.superposition.evaluate_4t_s", r4.superposition_s, "s");
  report.detail("core.interactive_stage.evaluate_4t_s", r4.interactive_s,
                "s");
  report.detail("core.superposition.scaling_4t",
                r1.superposition_s / r4.superposition_s, "ratio");
  report.detail("core.interactive_stage.scaling_4t",
                r1.interactive_s / r4.interactive_s, "ratio");
  const double calls = static_cast<double>(use.surrogate_pairs +
                                           use.fallback_pairs);
  report.detail("analytic.surrogate.pairs",
                static_cast<double>(use.surrogate_pairs), "count");
  report.detail("analytic.surrogate.fallbacks",
                static_cast<double>(use.fallback_pairs), "count");
  report.detail("analytic.surrogate.hit_ratio",
                calls > 0 ? static_cast<double>(use.surrogate_pairs) / calls
                          : 0.0,
                "ratio");
  report.detail("io.checkpoint.write_s", traced4.write_s, "s");
  report.detail("io.checkpoint.writes", static_cast<double>(traced4.writes),
                "count");
  report.detail("io.checkpoint.bytes", static_cast<double>(traced4.bytes),
                "B");
  // The evaluator's own time: map wall minus the stage calls it makes (as
  // replayed), the checkpoint writer and the consumer.
  report.detail("core.tiled_evaluator.self_s",
                traced4.wall_s - r4.superposition_s - r4.pairs_near_s -
                    r4.interactive_s - traced4.write_s - traced4.consumer_s,
                "s");
  report.detail("core.tiled_evaluator.tile_ms_p50",
                median(traced4.tile_gap_ms), "ms",
                "median gap of " + std::to_string(traced4.tile_gap_ms.size()) +
                    " consumer callbacks");
  report.detail("core.tiled_evaluator.tile_ms_max",
                *std::max_element(traced4.tile_gap_ms.begin(),
                                  traced4.tile_gap_ms.end()),
                "ms");
  report.metric("trace.overhead.setup_s",
                median(setup_traced_s) - median(setup_s), "s");
  report.metric("trace.overhead.op_median_ms",
                median(map_traced_ms) - median(map_ms), "ms");
  report.metric("trace.overhead.ops_per_s",
                per_second(map_traced_ms) - per_second(map_ms), "1/s");
  report.metric("trace.peak_rss_mb", peak_rss_mb(), "MB",
                "traced process; compare with the untraced peak_rss_mb");
}

}  // namespace perfbench

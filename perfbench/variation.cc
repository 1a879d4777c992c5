// variation-1k: a VariationEngine over the 1k design on a 2.5 um grid,
// sweeping the four material_corners with fit_surrogate, parallel_corners
// and num_threads = 4; other spec and option fields stay at their defaults
// (8 jittered TSVs per sample). The operation is one run() sweep of 64
// samples over the four corners; the timed phase repeats it.
//
// The traced run replays the first corner's Stage I / Stage II build over
// the grid (see replay.h), and replays the samplers' edits
// (VariationSampler::realize) on each corner's engine to split a corner's
// sample time into the engine's apply and the stats accumulation around it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "analytic/interaction.h"
#include "analytic/single_tsv.h"
#include "analytic/surrogate.h"
#include "common.h"
#include "core/tiled_evaluator.h"
#include "replay.h"
#include "stats/variation_engine.h"
#include "tsv/fullchip.h"

namespace perfbench {
namespace {

using namespace tsv;

constexpr double kDensity = 0.0025;
constexpr double kSpacing = 2.5;  // um
constexpr double kMargin = 25.0;  // um

/// Edits taking the engine from sample `prev` to `next` (both relative to
/// the nominal placement), in ascending id order as the engine's own sweep
/// issues them: a TSV jittered in `prev` only goes home, a TSV jittered in
/// `next` moves to its new center. Both id lists are sorted.
core::Delta delta_between(const std::vector<geo::Point>& nominal,
                          const stats::SampleRealization& prev,
                          const stats::SampleRealization& next) {
  core::Delta delta;
  const auto& a = prev.jittered_ids;
  const auto& b = next.jittered_ids;
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      delta.push_back(core::EcoOp::move(a[i], nominal[a[i]]));
      ++i;
    } else {
      if (i < a.size() && a[i] == b[j]) ++i;
      delta.push_back(core::EcoOp::move(b[j], next.jittered_centers[j]));
      ++j;
    }
  }
  return delta;
}

bool sane(const std::vector<stats::CornerResult>& results,
          std::size_t corners, std::size_t samples) {
  if (results.size() != corners) return false;
  for (const stats::CornerResult& r : results) {
    if (r.samples != samples || r.mean.empty()) return false;
    for (const double m : r.mean)
      if (!std::isfinite(m) || m < 0.0) return false;
  }
  return true;
}

}  // namespace

void run_variation(const Args& args, Report& report, Tracer& tracer) {
  const std::size_t tsvs = args.smoke ? 100 : 1000;
  const std::uint64_t seed = design_seed(args, tsvs);
  const bool traced_run = tracer.enabled();
  const std::size_t setup_reps = traced_run ? 2 : (args.smoke ? 2 : 3);
  reset_peak_rss();

  const tsvlib::TsvStructure structure{};
  stats::VariationSpec vspec;
  vspec.seed = seed;
  vspec.samples = 64;  // 256 corner-samples: p95 of apply needs 200
  vspec.corners = stats::material_corners(structure);
  stats::VariationOptions vopt;
  vopt.fit_surrogate = true;
  vopt.parallel_corners = true;
  vopt.num_threads = 4;

  std::unique_ptr<stats::VariationEngine> engine;
  tsvlib::FullChipDesign design;
  std::vector<double> setup_s;
  double setup_traced_s = 0.0;
  double make_fullchip_s = 0.0;
  double build_s = 0.0;
  for (std::size_t rep = 0; rep < setup_reps; ++rep) {
    const bool traced = traced_run && rep + 1 == setup_reps;
    tracer.set_enabled(traced);
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "tsv.make_fullchip");
      design = tsvlib::make_fullchip(
          structure, tsvlib::spec_for_count(tsvs, kDensity, seed));
      make_fullchip_s = span.end();
    }
    const geo::SampleGrid grid = geo::SampleGrid::with_spacing(
        design.placement.bounding_box().expanded(kMargin), kSpacing);
    {
      Tracer::Scope span(tracer, "stats.variation_engine.build");
      engine = std::make_unique<stats::VariationEngine>(design.placement,
                                                        grid, vspec, vopt);
      build_s = span.end();
    }
    (traced ? setup_traced_s : setup_s.emplace_back()) = seconds_since(t0);
  }
  tracer.set_enabled(traced_run);
  const std::size_t corners = engine->corner_count();
  std::printf("variation: %zu TSVs, %zu points, %zu corners x %zu samples "
              "per run\n",
              design.placement.size(), engine->grid().size(), corners,
              vspec.samples);

  // Timed phase: repeated sweeps; the traced run alternates untraced and
  // traced sweeps.
  std::vector<double> sweep_ms;
  std::vector<double> sweep_traced_ms;
  std::vector<stats::CornerResult> last;
  const Clock::time_point phase = Clock::now();
  do {
    for (const bool traced : {false, true}) {
      if (traced && !traced_run) continue;
      tracer.set_enabled(traced);
      if (traced)
        for (std::size_t c = 0; c < corners; ++c)
          engine->engine(c).model()->surrogate()->reset_use_stats();
      Tracer::Scope span(tracer, "stats.variation_engine.run");
      std::vector<stats::CornerResult> results = engine->run();
      const double wall = span.end();
      report.operation(sane(results, corners, vspec.samples),
                       "variation run returned inconsistent results");
      (traced ? sweep_traced_ms : sweep_ms).push_back(1e3 * wall);
      if (traced) last = std::move(results);
    }
  } while (seconds_since(phase) < args.seconds);
  tracer.set_enabled(traced_run);

  std::vector<ana::SurrogateUseStats> use(corners);
  for (std::size_t c = 0; c < corners; ++c)
    use[c] = engine->engine(c).model()->surrogate()->use_stats();

  // Traced run: replay the samplers' edits on each corner's engine.
  std::vector<double> apply_ms;
  std::vector<core::ApplyStats> apply_stats;
  double accumulate_self_s = 0.0;
  if (traced_run) {
    const std::vector<geo::Point>& nominal =
        engine->sampler().nominal_centers();
    for (std::size_t c = 0; c < corners; ++c) {
      core::IncrementalEngine& e = engine->engine(c);
      double applied_s = 0.0;
      stats::SampleRealization prev;
      for (std::size_t s = 0; s <= vspec.samples; ++s) {
        const stats::SampleRealization next =
            s < vspec.samples ? engine->sampler().realize(s)
                              : stats::SampleRealization{};
        const core::Delta delta = delta_between(nominal, prev, next);
        prev = next;
        if (delta.empty()) continue;
        Tracer::Scope span(tracer, "core.incremental_engine.apply");
        const core::ApplyStats st = e.apply(delta);
        const double sec = span.end();
        applied_s += sec;  // sample_seconds covers the way home too
        if (s == vspec.samples) continue;  // but it is not a sample
        apply_ms.push_back(1e3 * sec);
        apply_stats.push_back(st);
      }
      accumulate_self_s += last[c].sample_seconds - applied_s;
    }
  }

  // Correctness: every corner's incremental field stays within 1e-12 of
  // its scale of a fresh rebuild.
  for (std::size_t c = 0; c < corners; ++c) {
    core::IncrementalEngine& e = engine->engine(c);
    const double drift = e.rebuild();
    double scale = 0.0;
    for (const num::SymTensor2& t : e.total_field())
      scale = std::max({scale, std::abs(t.s11), std::abs(t.s22),
                        std::abs(t.s12)});
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "corner %zu rebuild drift %.3g MPa vs field scale %.3g MPa",
                  c, drift, scale);
    std::printf("%s\n", msg);
    report.operation(drift <= 1e-12 * scale, msg);
  }

  const double corner_samples = static_cast<double>(corners * vspec.samples);
  if (!traced_run) {
    report.metric("setup_s", median(setup_s), "s", describe(setup_s));
    report.metric("op_median_ms", median(sweep_ms), "ms",
                  describe(sweep_ms) + " sweeps");
    report.metric("ops_per_s", per_second(sweep_ms), "1/s",
                  "sweeps per second");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.detail("samples_per_s", corner_samples * per_second(sweep_ms),
                  "1/s", "corner-samples per second");
    return;
  }

  // --- Per-layer metrics of the traced run ---
  report.metric("tsv.make_fullchip_s", make_fullchip_s, "s");
  {
    // The first corner's Stage I / Stage II over the grid, in the tiled
    // evaluator's tiles, with the engine's own table, model and options.
    const core::IncrementalEngine& e = engine->engine(0);
    const tsvlib::Placement placement = e.placement();
    const core::LinearSuperposition stage1(placement, e.shared_table(),
                                           e.options().stage1);
    const core::InteractiveStage stage2(placement, e.model(),
                                        e.options().stage2);
    const Replay r = replay_tiles(
        stage1, stage2, e.grid(),
        evaluator_tiles(e.grid(), core::TiledOptions{}.max_tile_points), true,
        tracer);
    report_replay(report, r, stage2, "replay of corner 0 over the grid");
  }
  report.detail("stats.variation_engine.build_s", build_s, "s");
  // The fits the engine makes per corner, repeated from outside.
  double fit_s = 0.0;
  for (std::size_t c = 0; c < corners; ++c) {
    const tsvlib::TsvStructure& s = engine->corner(c).structure;
    const ana::SingleTsvModel single(s, vopt.load);
    const ana::InteractiveStressModel model(
        std::make_shared<const ana::InclusionResponse>(s), single.k_hat());
    Tracer::Scope span(tracer, "analytic.surrogate_fit");
    const ana::PairSurrogate fit = ana::PairSurrogate::fit(model);
    fit_s += span.end();
  }
  report.detail("analytic.surrogate_fit_s", fit_s, "s",
                "sum over " + std::to_string(corners) + " corners");
  std::uint64_t pairs = 0, fallbacks = 0;
  for (const ana::SurrogateUseStats& u : use) {
    pairs += u.surrogate_pairs;
    fallbacks += u.fallback_pairs;
  }
  report.detail("analytic.surrogate.pairs", static_cast<double>(pairs),
                "count", "last traced sweep, all corners");
  report.detail("analytic.surrogate.fallbacks",
                static_cast<double>(fallbacks), "count");
  report.detail("analytic.surrogate.hit_ratio",
                pairs + fallbacks > 0
                    ? static_cast<double>(pairs) /
                          static_cast<double>(pairs + fallbacks)
                    : 0.0,
                "ratio");
  report.detail_percentile("core.incremental_engine.apply_ms_p50",
                           nearest_rank(apply_ms, 0.50), "ms");
  report.detail_percentile("core.incremental_engine.apply_ms_p95",
                           nearest_rank(apply_ms, 0.95), "ms");
  double dirty = 0, s2 = 0, added = 0;
  for (const core::ApplyStats& st : apply_stats) {
    dirty += static_cast<double>(st.dirty_points);
    s2 += static_cast<double>(st.stage2_point_updates);
    added += static_cast<double>(st.added_pairs);
  }
  const double n_apply = static_cast<double>(apply_stats.size());
  report.detail("core.incremental_engine.dirty_points", dirty / n_apply,
                "count", "mean per sample");
  report.detail("core.incremental_engine.stage2_point_updates", s2 / n_apply,
                "count", "mean per sample");
  report.detail("core.incremental_engine.added_pairs", added / n_apply,
                "count", "mean per sample");
  report.detail("stats.accumulate_self_s", accumulate_self_s, "s",
                "corner sample time minus replayed apply, summed");
  double max_s = 0.0, sum_s = 0.0;
  for (const stats::CornerResult& r : last) {
    max_s = std::max(max_s, r.sample_seconds);
    sum_s += r.sample_seconds;
  }
  report.detail("numeric.parallel.corner_imbalance",
                max_s / (sum_s / static_cast<double>(last.size())), "ratio");
  report.metric("trace.overhead.setup_s", setup_traced_s - setup_s.front(),
                "s", "one traced and one untraced setup");
  report.metric("trace.overhead.op_median_ms",
                median(sweep_traced_ms) - median(sweep_ms), "ms");
  report.metric("trace.overhead.ops_per_s",
                per_second(sweep_traced_ms) - per_second(sweep_ms), "1/s");
  report.metric("trace.peak_rss_mb", peak_rss_mb(), "MB",
                "traced process; compare with the untraced peak_rss_mb");
}

}  // namespace perfbench

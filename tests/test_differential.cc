// Cross-path differential harness: the same seeded random placements
// evaluated through all four Stage II paths —
//   1. exact potential series      (the reference)
//   2. quantized PairStressTable   (use_lookup_table + pitch_quant_step)
//   3. certified Chebyshev surrogate
//   4. tiled evaluator             (streaming tiles over the exact path)
// asserting pairwise agreement within each path's documented bound:
// 1e-12 of the field scale for tiling (pure regrouping), 0.61% for the
// quantized table (interpolation + quantization budget), and the
// surrogate's machine-checked certificate (<= 4.2e-7 relative per pair).
// A certificate audit holds the surrogate to that same per-pair budget on
// further fixed-seed designs and grids. Plus: seeded random edit scripts
// through the incremental engine — on the exact and quantized paths —
// checked against a from-scratch build after every batch.
// Runs under the ASan tier via the `differential` ctest label.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analytic/interaction.h"
#include "analytic/surrogate.h"
#include "core/framework.h"
#include "core/incremental_engine.h"
#include "core/tiled_evaluator.h"
#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

struct Design {
  tsvlib::Placement placement;
  geo::SampleGrid grid;

  /// `count` random TSVs at >= `min_pitch` in an `extent`-wide square,
  /// sampled at `spacing` over the bounding box plus the influence halo.
  explicit Design(std::uint64_t seed, std::size_t count = 24,
                  double extent = 120.0, double min_pitch = 9.0,
                  double spacing = 3.0)
      : placement(tsvlib::make_random(
            kS, count, geo::Box{{0.0, 0.0}, {extent, extent}}, min_pitch,
            static_cast<unsigned>(seed))),
        grid(geo::SampleGrid::with_spacing(
            placement.bounding_box().expanded(25.0), spacing)) {}
};

/// Largest per-component |a - b| divided by the field scale of `b`.
double max_rel_err(const std::vector<num::SymTensor2>& a,
                   const std::vector<num::SymTensor2>& b) {
  EXPECT_EQ(a.size(), b.size());
  double scale = 0.0;
  for (const auto& t : b)
    scale = std::max({scale, std::abs(t.s11), std::abs(t.s22),
                      std::abs(t.s12)});
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max({worst, std::abs(a[i].s11 - b[i].s11),
                      std::abs(a[i].s22 - b[i].s22),
                      std::abs(a[i].s12 - b[i].s12)});
  return scale > 0.0 ? worst / scale : worst;
}

std::shared_ptr<const ana::InteractiveStressModel> fresh_model() {
  return std::make_shared<const ana::InteractiveStressModel>(
      kS, mat::ThermalLoad{});
}

std::shared_ptr<const RadialStressTable> shared_table() {
  static auto table = std::make_shared<const RadialStressTable>(
      RadialStressTable::from_analytic(ana::SingleTsvModel(kS, {}), 30.0,
                                       4096));
  return table;
}

std::vector<num::SymTensor2> evaluate_path(const Design& d,
                                           const FrameworkOptions& opt,
                                           const std::shared_ptr<
                                               const ana::InteractiveStressModel>&
                                               model) {
  const StressFramework fw(d.placement, shared_table(), model, opt);
  return fw.evaluate(d.grid).stress;
}

/// Absolute per-component budget of the certified surrogate on `d`: every
/// ordered pair in range of a point adds at most certified_rel_bound *
/// field_scale. N^2 over-counts the <= 25 um-cutoff pairs, and still sits
/// orders of magnitude below the table budget.
double surrogate_budget(const Design& d,
                        const ana::SurrogateCertificate& cert) {
  const double n = static_cast<double>(d.placement.size());
  return n * n * cert.certified_rel_bound * cert.field_scale;
}

/// Exact series and certified-surrogate fields of `d`, held point by point
/// to surrogate_budget. Failure messages carry `seed` and the point index.
void expect_surrogate_within_certificate(
    const Design& d, std::uint64_t seed,
    const std::shared_ptr<const ana::PairSurrogate>& surrogate) {
  const std::vector<num::SymTensor2> exact =
      evaluate_path(d, FrameworkOptions{}, fresh_model());
  const auto sur_model = fresh_model();
  sur_model->attach_surrogate(surrogate);
  const std::vector<num::SymTensor2> fast =
      evaluate_path(d, FrameworkOptions{}, sur_model);
  const double budget = surrogate_budget(d, surrogate->certificate());
  ASSERT_EQ(fast.size(), exact.size()) << "seed " << seed;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    ASSERT_NEAR(fast[i].s11, exact[i].s11, budget)
        << "seed " << seed << " point " << i;
    ASSERT_NEAR(fast[i].s22, exact[i].s22, budget)
        << "seed " << seed << " point " << i;
    ASSERT_NEAR(fast[i].s12, exact[i].s12, budget)
        << "seed " << seed << " point " << i;
  }
}

TEST(Differential, FiveStageTwoPathsAgreeWithinDocumentedBounds) {
  for (const std::uint64_t seed : {31u, 57u, 98u}) {
    SCOPED_TRACE(seed);
    const Design d(seed);

    // Path 1: exact series — the reference all others are held to.
    const std::vector<num::SymTensor2> exact =
        evaluate_path(d, FrameworkOptions{}, fresh_model());

    // Path 2: quantized lookup-table cache, documented <= 0.61% of the
    // field (ROADMAP / test_quantized_cache budget at 0.25 um steps).
    FrameworkOptions table_opt;
    table_opt.stage2.use_lookup_table = true;
    table_opt.stage2.pitch_quant_step = 0.25;
    const std::vector<num::SymTensor2> table =
        evaluate_path(d, table_opt, fresh_model());
    EXPECT_LE(max_rel_err(table, exact), 0.0061);

    // Path 3: certified surrogate. Its certificate is the bound — every
    // pair it takes contributes at most certified_rel_bound * field_scale
    // absolute error, and the fit is documented to certify at <= 4.2e-7.
    const auto sur_model = fresh_model();
    const auto surrogate = std::make_shared<const ana::PairSurrogate>(
        ana::PairSurrogate::fit(*sur_model));
    const ana::SurrogateCertificate& cert = surrogate->certificate();
    EXPECT_LE(cert.certified_rel_bound, 4.2e-7);
    sur_model->attach_surrogate(surrogate);
    const std::vector<num::SymTensor2> fast =
        evaluate_path(d, FrameworkOptions{}, sur_model);
    const double budget = surrogate_budget(d, cert);
    for (std::size_t i = 0; i < exact.size(); ++i) {
      ASSERT_NEAR(fast[i].s11, exact[i].s11, budget) << i;
      ASSERT_NEAR(fast[i].s22, exact[i].s22, budget) << i;
      ASSERT_NEAR(fast[i].s12, exact[i].s12, budget) << i;
    }

    // Path 4: tiled streaming over the exact path — pure regrouping of the
    // same sums, so <= 1e-12 of the field scale.
    const StressFramework fw(d.placement, shared_table(), fresh_model(),
                             FrameworkOptions{});
    TiledOptions topt;
    topt.max_tile_points = 1024;  // force a real multi-tile run
    const TiledEvaluator tiled(fw, topt);
    std::vector<num::SymTensor2> assembled(d.grid.size());
    const TiledStats st = tiled.evaluate(d.grid, [&](const Tile& tile) {
      for (std::size_t ty = 0; ty < tile.ny; ++ty)
        for (std::size_t tx = 0; tx < tile.nx; ++tx)
          assembled[(tile.iy0 + ty) * d.grid.nx() + (tile.ix0 + tx)] =
              tile.stress[ty * tile.nx + tx];
    });
    EXPECT_GT(st.tiles, 1u);
    EXPECT_EQ(st.points, d.grid.size());
    EXPECT_LE(max_rel_err(assembled, exact), 1e-12);

    // Transitivity sanity: the approximate paths also agree with each
    // other within the sum of their budgets.
    EXPECT_LE(max_rel_err(fast, table), 0.0061 + 1e-4);
  }
}

TEST(Differential, SurrogateCertificateHoldsOnAuditDesigns) {
  // Designs and grids disjoint from the cross-path test above (seeds 31,
  // 57, 98 at 24 TSVs, 9 um pitch, 3 um grid): other seeds, densities,
  // minimum pitches and grid spacings, including pitches near the 2R'
  // floor and grids finer and coarser than 3 um. One fit serves every
  // design, as it does a full-chip session.
  struct Audit {
    std::uint64_t seed;
    std::size_t count;
    double extent;
    double min_pitch;
    double spacing;
  };
  const Audit audits[] = {
      {101u, 24, 120.0, 9.0, 2.0},  {202u, 40, 120.0, 7.0, 2.5},
      {303u, 16, 90.0, 12.0, 3.5},  {404u, 30, 100.0, 6.0, 1.75},
      {505u, 20, 140.0, 10.0, 4.0}, {606u, 36, 110.0, 8.0, 2.25},
      {707u, 12, 60.0, 6.5, 1.5},
  };
  const auto surrogate = std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*fresh_model()));
  for (const Audit& a : audits) {
    SCOPED_TRACE("seed " + std::to_string(a.seed));
    const Design d(a.seed, a.count, a.extent, a.min_pitch, a.spacing);
    expect_surrogate_within_certificate(d, a.seed, surrogate);
  }
}

/// One legal random edit batch against `engine`: moves of random active
/// TSVs by sub-um offsets, occasionally an add/remove — all guaranteed
/// legal by construction (candidate positions keep >= 2 R' + margin to
/// every active TSV).
Delta random_batch(const IncrementalEngine& engine, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> angle(0.0, 6.28318530717958647692);
  std::uniform_real_distribution<double> step(0.2, 1.0);
  const double min_clear = 2.0 * kS.outer_radius() + 0.5;

  const auto legal_for = [&](const geo::Point& cand, std::uint32_t self) {
    for (const std::uint32_t id : engine.active_ids()) {
      if (id == self) continue;
      if (geo::distance(cand, engine.center(id)) < min_clear) return false;
    }
    return true;
  };

  Delta delta;
  const std::vector<std::uint32_t> active = engine.active_ids();
  std::uniform_int_distribution<std::size_t> pick(0, active.size() - 1);
  for (int attempts = 0; attempts < 40 && delta.size() < 3; ++attempts) {
    const std::uint32_t id = active[pick(rng)];
    const double a = angle(rng);
    const double r = step(rng);
    const geo::Point c = engine.center(id);
    const geo::Point cand{c.x + r * std::cos(a), c.y + r * std::sin(a)};
    bool already = false;
    for (const EcoOp& op : delta)
      if (op.kind != EcoOp::Kind::kAdd && op.id == id) already = true;
    if (already || !legal_for(cand, id)) continue;
    delta.push_back(EcoOp::move(id, cand));
  }
  return delta;
}

TEST(Differential, RandomEditScriptTracksFullRecompute) {
  for (const bool quantized : {false, true}) {
    SCOPED_TRACE(quantized ? "quantized-table path" : "exact-series path");
    const Design d(7);
    IncrementalOptions opt;
    if (quantized) {
      opt.stage2.use_lookup_table = true;
      opt.stage2.pitch_quant_step = 0.25;
    }
    IncrementalEngine engine(d.placement, d.grid, shared_table(),
                             fresh_model(), opt);

    std::mt19937_64 rng(0xd1ffu);
    std::size_t applied = 0;
    for (int batch = 0; batch < 6; ++batch) {
      Delta delta = random_batch(engine, rng);
      // Mix structural edits into two of the batches.
      if (batch == 2) delta.push_back(EcoOp::add({-18.0, -18.0}));
      if (batch == 4) delta.push_back(EcoOp::remove(engine.active_ids()[0]));
      if (delta.empty()) continue;
      engine.apply(delta);
      applied += delta.size();

      const IncrementalEngine fresh(engine.placement(), engine.grid(),
                                    engine.shared_table(), engine.model(),
                                    engine.options());
      EXPECT_LE(max_rel_err(engine.total_field(), fresh.total_field()),
                1e-12)
          << "after batch " << batch;
    }
    EXPECT_GE(applied, 12u);
  }
}

}  // namespace
}  // namespace tsv::core

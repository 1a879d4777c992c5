// The hierarchical far-field aggregate (core/far_field.h): partition of
// unity, certificate validity, end-to-end accuracy against the exact
// series, the allow_surrogate-style gating contract (flag inert without a
// matching certified aggregate), thread-count-independent tiles, and the
// incremental engine's cluster maintenance — touched clusters re-folded
// bitwise identical to a fresh build over the edited placement. The
// `farfield` ctest label forms the suite the Release and ASan/UBSan CI
// jobs run as their own step.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "analytic/interaction.h"
#include "analytic/surrogate.h"
#include "core/far_field.h"
#include "core/framework.h"
#include "core/incremental_engine.h"
#include "core/interactive_stage.h"
#include "io/snapshot.h"
#include "tsv/generators.h"
#include "scratch_dir.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

struct Design {
  tsvlib::Placement placement;
  geo::SampleGrid grid;

  explicit Design(std::uint64_t seed, std::size_t count = 24,
                  double extent = 120.0)
      : placement(tsvlib::make_random(
            kS, count, geo::Box{{0.0, 0.0}, {extent, extent}}, 9.0,
            static_cast<unsigned>(seed))),
        grid(geo::SampleGrid::with_spacing(
            placement.bounding_box().expanded(25.0), 3.0)) {}
};

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

/// Far-field knobs sized for the small test designs: several clusters
/// across a ~120 um chip, tiles fine enough to certify comfortably inside
/// the default 1e-2 tolerance.
FarFieldOptions test_far_options() {
  FarFieldOptions o;
  o.cell_size = 30.0;
  o.tile_spacing = 1.0;
  return o;
}

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

void expect_bitwise_eq(const std::vector<num::SymTensor2>& a,
                       const std::vector<num::SymTensor2>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].s11, b[i].s11) << i;
    ASSERT_EQ(a[i].s22, b[i].s22) << i;
    ASSERT_EQ(a[i].s12, b[i].s12) << i;
  }
}

TEST(FarField, PartitionOfUnityIsMonotoneC0AndClamped) {
  const double r0 = 6.0, r1 = 10.0;
  EXPECT_EQ(far_weight(0.0, r0, r1), 0.0);
  EXPECT_EQ(far_weight(r0, r0, r1), 0.0);
  EXPECT_EQ(far_weight(r1, r0, r1), 1.0);
  EXPECT_EQ(far_weight(25.0, r0, r1), 1.0);
  EXPECT_NEAR(far_weight(0.5 * (r0 + r1), r0, r1), 0.5, 1e-15);
  double prev = 0.0;
  for (double r = r0; r <= r1; r += 0.01) {
    const double w = far_weight(r, r0, r1);
    EXPECT_GE(w, prev);
    EXPECT_LE(w - prev, 0.01 * 1.6 / (r1 - r0));  // bounded slope (C1)
    prev = w;
  }
}

TEST(FarField, FingerprintTracksCenterBitsAndOrder) {
  std::vector<geo::Point> a{{1.0, 2.0}, {3.0, 4.0}};
  std::vector<geo::Point> b = a;
  EXPECT_EQ(fingerprint_centers(a), fingerprint_centers(b));
  b[1].y = std::nextafter(b[1].y, 5.0);
  EXPECT_NE(fingerprint_centers(a), fingerprint_centers(b));
  std::vector<geo::Point> swapped{a[1], a[0]};
  EXPECT_NE(fingerprint_centers(a), fingerprint_centers(swapped));
}

TEST(FarField, BuildCertifiesWithinDefaultTolerance) {
  const Design d(31);
  const auto model = fresh_model();
  InteractiveOptions s2;
  const auto far =
      FarFieldAggregate::build(d.placement, *model, s2, test_far_options());
  ASSERT_NE(far, nullptr);
  EXPECT_GE(far->cluster_count(), 4u);

  const FarFieldCertificate& cert = far->certificate();
  EXPECT_GT(cert.sample_count, 0u);
  EXPECT_GT(cert.probed_clusters, 0u);
  EXPECT_GT(cert.field_scale, 0.0);
  EXPECT_GT(cert.certified_rel_bound, 0.0);
  EXPECT_TRUE(cert.certified_within(1e-2))
      << "bound=" << cert.certified_rel_bound
      << " max_abs=" << cert.max_abs_error << " scale=" << cert.field_scale
      << " samples=" << cert.sample_count
      << " probed=" << cert.probed_clusters;
  EXPECT_FALSE(cert.certified_within(cert.certified_rel_bound * 0.5));

  const FarFieldBuildStats& st = far->build_stats();
  EXPECT_GT(st.pairs, 0u);
  EXPECT_EQ(st.surrogate_pairs + st.table_pairs + st.series_pairs, st.pairs);
  // No surrogate attached and no lookup table: everything folds through
  // the exact series.
  EXPECT_EQ(st.series_pairs, st.pairs);
  EXPECT_GT(st.tile_samples, 0u);
  EXPECT_GT(far->tile_bytes(), 0u);
  EXPECT_EQ(far->near_radius(), test_far_options().blend_r1);
}

TEST(FarField, BuildFoldsThroughAttachedSurrogate) {
  const Design d(31);
  const auto model = fresh_model();
  model->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model)));
  InteractiveOptions s2;
  const auto far =
      FarFieldAggregate::build(d.placement, *model, s2, test_far_options());
  const FarFieldBuildStats& st = far->build_stats();
  EXPECT_GT(st.surrogate_pairs, 0u);
  EXPECT_EQ(st.surrogate_pairs + st.table_pairs + st.series_pairs, st.pairs);
}

TEST(FarField, EvaluateMatchesExactSeriesWithinCertifiedBound) {
  const Design d(57);
  const auto model = fresh_model();

  FrameworkOptions exact_opt;
  const StressFramework exact_fw(d.placement, shared_table(), model,
                                 exact_opt);
  const std::vector<num::SymTensor2> exact =
      exact_fw.evaluate(d.grid).stress;

  FrameworkOptions far_opt;
  far_opt.stage2.use_far_field = true;
  far_opt.stage2.far_field = test_far_options();
  const StressFramework far_fw(d.placement, shared_table(), model, far_opt);
  const std::vector<num::SymTensor2> far = far_fw.evaluate(d.grid).stress;

  // The acceptance bar: within 1% of the exact series, and the machine
  // certificate already attests (a margin over) the probe deviation.
  EXPECT_LE(max_rel_err(far, exact), 1e-2);
  EXPECT_GT(max_rel_err(far, exact), 0.0);  // the far path really ran
}

TEST(FarField, AccumulateMatchesScalarEval) {
  const Design d(98);
  const auto model = fresh_model();
  const auto far = FarFieldAggregate::build(d.placement, *model, {},
                                            test_far_options());
  const std::vector<geo::Point>& pts = d.grid.points();
  std::vector<num::SymTensor2> batch(pts.size());
  far->accumulate(pts.data(), pts.size(), batch.data());
  for (std::size_t i = 0; i < pts.size(); i += 7) {
    const num::SymTensor2 one = far->eval(pts[i]);
    ASSERT_EQ(batch[i].s11, one.s11) << i;
    ASSERT_EQ(batch[i].s22, one.s22) << i;
    ASSERT_EQ(batch[i].s12, one.s12) << i;
  }
}

TEST(FarField, TilesAreBitwiseIdenticalAcrossThreadCounts) {
  const Design d(31);
  const auto model = fresh_model();
  InteractiveOptions serial;
  serial.num_threads = 1;
  InteractiveOptions threaded;
  threaded.num_threads = 4;
  const auto a = FarFieldAggregate::build(d.placement, *model, serial,
                                          test_far_options());
  const auto b = FarFieldAggregate::build(d.placement, *model, threaded,
                                          test_far_options());
  ASSERT_EQ(a->cluster_count(), b->cluster_count());
  for (const geo::Point& p : d.grid.points()) {
    const num::SymTensor2 ta = a->eval(p);
    const num::SymTensor2 tb = b->eval(p);
    ASSERT_EQ(ta.s11, tb.s11);
    ASSERT_EQ(ta.s22, tb.s22);
    ASSERT_EQ(ta.s12, tb.s12);
  }
  EXPECT_EQ(a->certificate().max_abs_error, b->certificate().max_abs_error);
}

TEST(FarField, FlagIsInertWithoutAnAttachedAggregate) {
  const Design d(31);
  const auto model = fresh_model();
  InteractiveOptions off;
  InteractiveOptions on;
  on.use_far_field = true;  // nothing attached -> must change nothing
  const InteractiveStage plain(d.placement, model, off);
  const InteractiveStage flagged(d.placement, model, on);
  EXPECT_EQ(flagged.active_far_field(), nullptr);
  expect_bitwise_eq(flagged.evaluate(d.grid.points()),
                    plain.evaluate(d.grid.points()));
}

TEST(FarField, MismatchedPlacementFingerprintKeepsAggregateInert) {
  const Design a(31);
  const Design b(57);
  const auto model = fresh_model();
  InteractiveOptions on;
  on.use_far_field = true;
  const auto far_a = FarFieldAggregate::build(a.placement, *model, on,
                                              test_far_options());
  InteractiveStage stage_b(b.placement, model, on);
  stage_b.attach_far_field(far_a);  // wrong placement
  EXPECT_EQ(stage_b.active_far_field(), nullptr);
  const InteractiveStage plain_b(b.placement, model, {});
  expect_bitwise_eq(stage_b.evaluate(b.grid.points()),
                    plain_b.evaluate(b.grid.points()));
}

TEST(FarField, MismatchedCutoffsKeepAggregateInert) {
  const Design d(31);
  const auto model = fresh_model();
  InteractiveOptions built_with;
  const auto far = FarFieldAggregate::build(d.placement, *model, built_with,
                                            test_far_options());
  InteractiveOptions narrower;
  narrower.use_far_field = true;
  narrower.influence_radius = 20.0;  // != the cutoff the tiles folded
  InteractiveStage stage(d.placement, model, narrower);
  stage.attach_far_field(far);
  EXPECT_EQ(stage.active_far_field(), nullptr);
}

TEST(FarField, FailedToleranceGateFallsBackBitwise) {
  const Design d(31);
  const auto model = fresh_model();
  FrameworkOptions off;
  const StressFramework plain(d.placement, shared_table(), model, off);

  FrameworkOptions strict;
  strict.stage2.use_far_field = true;
  strict.stage2.far_field = test_far_options();
  strict.stage2.far_field_tolerance = 1e-18;  // no tile can certify this
  const StressFramework gated(d.placement, shared_table(), model, strict);

  expect_bitwise_eq(gated.evaluate(d.grid).stress,
                    plain.evaluate(d.grid).stress);
}

TEST(FarField, EngineRebuildsOnlyTouchedClustersBitwise) {
  const Design d(7);
  IncrementalOptions opt;
  opt.stage2.use_far_field = true;
  opt.stage2.far_field = test_far_options();
  IncrementalEngine engine(d.placement, d.grid, shared_table(), fresh_model(),
                           opt);

  // A local edit script: two moves, one add, one remove.
  const std::vector<std::uint32_t> ids = engine.active_ids();
  const geo::Point c0 = engine.center(ids[0]);
  ApplyStats st = engine.apply({EcoOp::move(ids[0], {c0.x + 0.7, c0.y - 0.4}),
                                EcoOp::add({-18.0, -18.0})});
  EXPECT_GT(st.clusters_rebuilt, 0u);
  EXPECT_GT(st.farfield_point_updates, 0u);
  st = engine.apply({EcoOp::remove(ids[1])});
  EXPECT_GT(st.clusters_rebuilt, 0u);

  const FarFieldAggregate* maintained = engine.far_field();
  ASSERT_NE(maintained, nullptr);
  EXPECT_TRUE(maintained->certificate().certified_within(
      opt.stage2.far_field_tolerance));
  EXPECT_GT(maintained->build_stats().clusters_rebuilt, 0u);

  // The maintained tiles must be bitwise the tiles a fresh fold over the
  // edited placement produces — same canonical pair order, same float32
  // narrowing point.
  const auto fresh = FarFieldAggregate::build(
      engine.placement(), *engine.model(), opt.stage2, opt.stage2.far_field);
  EXPECT_EQ(maintained->placement_fingerprint(),
            fresh->placement_fingerprint());
  EXPECT_EQ(maintained->cluster_count(), fresh->cluster_count());
  for (const geo::Point& p : d.grid.points()) {
    const num::SymTensor2 tm = maintained->eval(p);
    const num::SymTensor2 tf = fresh->eval(p);
    ASSERT_EQ(tm.s11, tf.s11);
    ASSERT_EQ(tm.s22, tf.s22);
    ASSERT_EQ(tm.s12, tf.s12);
  }
}

TEST(FarField, EngineEditScriptTracksFullRecompute) {
  const Design d(7);
  IncrementalOptions opt;
  opt.stage2.use_far_field = true;
  opt.stage2.far_field = test_far_options();
  IncrementalEngine engine(d.placement, d.grid, shared_table(), fresh_model(),
                           opt);

  const std::vector<std::uint32_t> ids = engine.active_ids();
  engine.apply({EcoOp::move(ids[2], {engine.center(ids[2]).x + 0.9,
                                     engine.center(ids[2]).y + 0.3})});
  engine.apply({EcoOp::add({-15.0, 135.0}), EcoOp::remove(ids[5])});
  engine.apply({EcoOp::move(ids[3], {engine.center(ids[3]).x - 0.5,
                                     engine.center(ids[3]).y + 0.8})});

  const IncrementalEngine fresh(engine.placement(), engine.grid(),
                                engine.shared_table(), engine.model(),
                                engine.options());
  EXPECT_LE(max_rel_err(engine.total_field(), fresh.total_field()), 1e-10);
}

TEST(FarField, EngineGrowsDenseIndexForVirginCells) {
  const Design d(7);
  IncrementalOptions opt;
  opt.stage2.use_far_field = true;
  opt.stage2.far_field = test_far_options();
  IncrementalEngine engine(d.placement, d.grid, shared_table(), fresh_model(),
                           opt);
  const std::size_t before = engine.far_field() == nullptr
                                 ? 0
                                 : engine.far_field()->cluster_count();

  // Two TSVs far outside the original cluster extent: the pair lands in
  // cells the dense index has never seen, forcing a grow + re-index.
  const std::uint32_t a = engine.add({260.0, 260.0});
  engine.add({268.0, 260.0});
  const FarFieldAggregate* far = engine.far_field();
  ASSERT_NE(far, nullptr);
  EXPECT_GT(far->cluster_count(), before);
  EXPECT_TRUE(std::isfinite(far->eval({264.0, 260.0}).s11));

  const auto fresh = FarFieldAggregate::build(
      engine.placement(), *engine.model(), opt.stage2, opt.stage2.far_field);
  for (double x = 230.0; x <= 300.0; x += 3.7) {
    const geo::Point p{x, 261.0};
    ASSERT_EQ(far->eval(p).s11, fresh->eval(p).s11) << x;
    ASSERT_EQ(far->eval(p).s12, fresh->eval(p).s12) << x;
  }
  engine.remove(a);  // and removal from a grown cell stays consistent
  const auto fresh2 = FarFieldAggregate::build(
      engine.placement(), *engine.model(), opt.stage2, opt.stage2.far_field);
  for (double x = 230.0; x <= 300.0; x += 3.7) {
    const geo::Point p{x, 261.0};
    ASSERT_EQ(engine.far_field()->eval(p).s11, fresh2->eval(p).s11) << x;
  }
}

TEST(FarField, EngineSnapshotRoundTripsFarFieldOptions) {
  const Design d(7);
  IncrementalOptions opt;
  opt.stage2.use_far_field = true;
  opt.stage2.far_field_tolerance = 3.5e-3;
  opt.stage2.far_field = test_far_options();
  opt.stage2.far_field.edge_width = 1.75;
  opt.stage2.far_field.cert_margin = 2.25;
  IncrementalEngine engine(d.placement, d.grid, shared_table(), fresh_model(),
                           opt);

  const std::string path = testutil::scratch_file("farfield_engine.snap");
  io::save_engine_state(path, engine);
  const IncrementalEngine loaded = io::load_engine_state(path);
  const InteractiveOptions& got = loaded.options().stage2;
  EXPECT_TRUE(got.use_far_field);
  EXPECT_EQ(got.far_field_tolerance, 3.5e-3);
  EXPECT_EQ(got.far_field.cell_size, opt.stage2.far_field.cell_size);
  EXPECT_EQ(got.far_field.tile_spacing, opt.stage2.far_field.tile_spacing);
  EXPECT_EQ(got.far_field.blend_r0, opt.stage2.far_field.blend_r0);
  EXPECT_EQ(got.far_field.blend_r1, opt.stage2.far_field.blend_r1);
  EXPECT_EQ(got.far_field.edge_width, 1.75);
  EXPECT_EQ(got.far_field.cert_margin, 2.25);
  expect_bitwise_eq(loaded.stage2_field(), engine.stage2_field());
}

}  // namespace
}  // namespace tsv::core

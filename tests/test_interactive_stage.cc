#include "core/interactive_stage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <random>
#include <string>

#include "analytic/surrogate.h"
#include "numeric/parallel.h"
#include "tsv/generators.h"

namespace tsv::core {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

std::shared_ptr<const ana::InteractiveStressModel> make_model() {
  static auto model = std::make_shared<const ana::InteractiveStressModel>(
      kS, mat::ThermalLoad{});
  return model;
}

TEST(InteractiveStage, SingleTsvHasNoPairs) {
  const tsvlib::Placement p(kS, {{0.0, 0.0}});
  const InteractiveStage stage(p, make_model());
  EXPECT_TRUE(stage.ordered_pairs().empty());
  EXPECT_DOUBLE_EQ(stage.stress_at({4.0, 0.0}).s11, 0.0);
}

TEST(InteractiveStage, PairYieldsTwoOrderedRounds) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, make_model());
  const auto pairs = stage.ordered_pairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_NE(pairs[0].first, pairs[0].second);
  EXPECT_EQ(pairs[0].first, pairs[1].second);
  EXPECT_EQ(pairs[0].second, pairs[1].first);
}

TEST(InteractiveStage, PitchCutoffExcludesFarPairs) {
  const tsvlib::Placement p(kS, {{0.0, 0.0}, {40.0, 0.0}});
  InteractiveOptions opt;
  opt.pair_pitch_cutoff = 25.0;
  const InteractiveStage stage(p, make_model(), opt);
  EXPECT_TRUE(stage.ordered_pairs().empty());
}

TEST(InteractiveStage, PointwiseSumsBothRounds) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, make_model());
  const geo::Point p{0.0, 2.5};
  const num::SymTensor2 got = stage.stress_at(p);
  const auto& c = pair.centers();
  const num::SymTensor2 want = make_model()->stress_at(c[0], c[1], p) +
                               make_model()->stress_at(c[1], c[0], p);
  EXPECT_NEAR(got.s11, want.s11, 1e-12);
  EXPECT_NEAR(got.s22, want.s22, 1e-12);
}

TEST(InteractiveStage, BatchMatchesPointwise) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 2, 9.0);
  const InteractiveStage stage(arr, make_model());
  std::vector<geo::Point> pts;
  for (double x = -4; x <= 22; x += 2.9)
    for (double y = -4; y <= 13; y += 3.3) pts.push_back({x, y});
  const auto batch = stage.evaluate(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const num::SymTensor2 single = stage.stress_at(pts[i]);
    EXPECT_NEAR(batch[i].s11, single.s11, 1e-10) << i;
    EXPECT_NEAR(batch[i].s22, single.s22, 1e-10) << i;
    EXPECT_NEAR(batch[i].s12, single.s12, 1e-10) << i;
  }
}

TEST(InteractiveStage, InfluenceRadiusLimitsPointCoverage) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  InteractiveOptions opt;
  opt.influence_radius = 10.0;
  const InteractiveStage stage(pair, make_model(), opt);
  // A point 40 um away from both TSVs gets no interactive contribution.
  EXPECT_DOUBLE_EQ(stage.stress_at({0.0, 40.0}).s11, 0.0);
  const auto batch = stage.evaluate({{0.0, 40.0}, {0.0, 2.0}});
  EXPECT_DOUBLE_EQ(batch[0].s11, 0.0);
  EXPECT_NE(batch[1].s11, 0.0);
}

// Determinism: Stage II is pair-parallel and merges per-chunk partial sums
// in chunk index order, so a parallel run may differ from the serial sum by
// floating-point regrouping only. The contract (documented on
// InteractiveOptions::num_threads) is <= 1e-12 RELATIVE to the serial
// value — not bitwise, because chunk boundaries regroup the pair sum.
TEST(InteractiveStage, ParallelEvaluateMatchesSerialWithinTolerance) {
  const tsvlib::Placement cluster = tsvlib::make_jittered_array(
      kS, 30, 1.0e-2, 10.0, 777);
  std::vector<geo::Point> pts;
  const geo::Box roi = cluster.bounding_box().expanded(10.0);
  for (double x = roi.lo.x; x <= roi.hi.x; x += 2.9)
    for (double y = roi.lo.y; y <= roi.hi.y; y += 3.3) pts.push_back({x, y});

  InteractiveOptions serial_opt;
  serial_opt.num_threads = 1;
  const InteractiveStage serial(cluster, make_model(), serial_opt);
  const auto want = serial.evaluate(pts);

  for (const std::size_t threads : {2u, 4u}) {
    InteractiveOptions opt;
    opt.num_threads = threads;
    const InteractiveStage stage(cluster, make_model(), opt);
    const auto got = stage.evaluate(pts);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double tol11 = 1e-12 * std::max(1.0, std::abs(want[i].s11));
      const double tol22 = 1e-12 * std::max(1.0, std::abs(want[i].s22));
      const double tol12 = 1e-12 * std::max(1.0, std::abs(want[i].s12));
      EXPECT_NEAR(got[i].s11, want[i].s11, tol11) << "threads=" << threads;
      EXPECT_NEAR(got[i].s22, want[i].s22, tol22) << "threads=" << threads;
      EXPECT_NEAR(got[i].s12, want[i].s12, tol12) << "threads=" << threads;
    }
  }
}

// For a FIXED thread count, repeated parallel runs must be bitwise
// reproducible: static chunking plus chunk-order merge leaves no
// scheduling-dependent freedom.
TEST(InteractiveStage, ParallelEvaluateIsReproducibleAtFixedThreadCount) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 4, 3, 9.0);
  InteractiveOptions opt;
  opt.num_threads = 4;
  const InteractiveStage stage(arr, make_model(), opt);
  std::vector<geo::Point> pts;
  for (double x = -4; x <= 31; x += 1.7)
    for (double y = -4; y <= 22; y += 2.1) pts.push_back({x, y});
  const auto first = stage.evaluate(pts);
  const auto second = stage.evaluate(pts);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(first[i].s11, second[i].s11) << i;
    EXPECT_EQ(first[i].s22, second[i].s22) << i;
    EXPECT_EQ(first[i].s12, second[i].s12) << i;
  }
}

TEST(InteractiveStage, LookupTableParallelMatchesSerialWithinTolerance) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 3, 10.0);
  InteractiveOptions serial_opt;
  serial_opt.use_lookup_table = true;
  serial_opt.num_threads = 1;
  const InteractiveStage serial(arr, make_model(), serial_opt);
  InteractiveOptions par_opt = serial_opt;
  par_opt.num_threads = 3;
  const InteractiveStage parallel(arr, make_model(), par_opt);
  std::vector<geo::Point> pts;
  for (double x = -3; x <= 23; x += 2.3)
    for (double y = -3; y <= 23; y += 2.7) pts.push_back({x, y});
  const auto want = serial.evaluate(pts);
  const auto got = parallel.evaluate(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(got[i].s11, want[i].s11,
                1e-12 * std::max(1.0, std::abs(want[i].s11)))
        << i;
  }
}

// Regression for the former `hi + 1e-9` epsilon hack: simulation points
// lying EXACTLY on the bounding-box edges of the point set must still
// receive their interactive contribution (the hull built by Box::bounding
// is closed, and GridIndex clamps hull-edge points into the last cell).
TEST(InteractiveStage, PointsExactlyOnBoundingBoxEdgeAreEvaluated) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, make_model());
  // All extreme coordinates are attained exactly by several points, so the
  // hull's hi edge passes through points carrying nonzero stress.
  const std::vector<geo::Point> pts = {{-8.0, -6.0}, {8.0, -6.0},
                                       {8.0, 6.0},   {-8.0, 6.0},
                                       {8.0, 0.0},   {0.0, 6.0},
                                       {0.0, 0.5}};
  const auto batch = stage.evaluate(pts);
  ASSERT_EQ(batch.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const num::SymTensor2 single = stage.stress_at(pts[i]);
    EXPECT_DOUBLE_EQ(batch[i].s11, single.s11) << i;
    EXPECT_DOUBLE_EQ(batch[i].s22, single.s22) << i;
    EXPECT_DOUBLE_EQ(batch[i].s12, single.s12) << i;
  }
  // The corner/edge points sit within the influence radius of the pair, so
  // their interactive field must be nonzero — they were not dropped.
  EXPECT_NE(batch[4].s11, 0.0);
  EXPECT_NE(batch[5].s11, 0.0);
}

// Regression for the stale-fingerprint hazard of the point-index cache:
// the cache key is a CONTENT hash (FNV-1a over the coordinate bytes plus
// the count), not the vector's identity, so mutating a point buffer in
// place — to a new set of the SAME length, the case an address-or-size key
// would miss — must rebuild the index. A stale index would hand pairs the
// wrong affected-point sets and silently drop or misplace contributions.
TEST(InteractiveStage, MutatedPointBufferOfEqualLengthRebuildsTheIndex) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const InteractiveStage stage(pair, make_model());
  std::vector<geo::Point> pts;
  for (double x = -8; x <= 18; x += 1.3)
    for (double y = -8; y <= 8; y += 1.7) pts.push_back({x, y});

  // Prime the cache with the original coordinates.
  const auto first = stage.evaluate(pts);
  ASSERT_EQ(first.size(), pts.size());

  // Mutate IN PLACE: same vector object, same length, every coordinate
  // changed (a quarter turn about the origin — exact in floating point, so
  // the round trip below is bitwise).
  for (geo::Point& p : pts) p = {-p.y, p.x};
  const auto got = stage.evaluate(pts);

  // A fresh stage has no cache to go stale; its field is the truth.
  const InteractiveStage fresh(pair, make_model());
  const auto want = fresh.evaluate(pts);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }
  // And mutating back re-keys again (no one-shot invalidation).
  for (geo::Point& p : pts) p = {p.y, -p.x};
  const auto back = stage.evaluate(pts);
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_EQ(back[i].s11, first[i].s11) << i;
}

TEST(InteractiveStage, FiveCrossSymmetry) {
  // The 5-TSV cross is symmetric under 90-degree rotation; von Mises of the
  // interactive field must match at rotated points.
  const tsvlib::Placement five = tsvlib::make_five_cross(kS, 10.0);
  const InteractiveStage stage(five, make_model());
  const num::SymTensor2 a = stage.stress_at({4.0, 1.0});
  const num::SymTensor2 b = stage.stress_at({-1.0, 4.0});  // rotated 90 deg
  EXPECT_NEAR(num::von_mises_plane_stress(a), num::von_mises_plane_stress(b),
              1e-9);
}

// --- Pair-order lock ---------------------------------------------------------
//
// evaluate_with_pairs reuses a victim's point query and gather across the
// victim's run of pairs. The lock: for every thread count, its output is
// bitwise the plain reference below — each chunk of the pair list (the
// chunking of num::parallel_reduce) walks its pairs in order, evaluates each
// pair over the points within the influence radius of its victim through
// the batch kernel, scatters, and the chunk partials merge in order. Pair
// lists come grouped by victim (victim runs straddle chunk boundaries at 3
// and 4 threads) and deliberately interleaved.

using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
using BatchKernel =
    std::function<void(const geo::Point& victim, const geo::Point& aggressor,
                        const geo::Point* points, std::size_t n,
                        num::SymTensor2* out)>;

std::vector<num::SymTensor2> reference_pair_loop(
    const std::vector<geo::Point>& centers,
    const std::vector<geo::Point>& points, const PairList& pairs,
    double radius, std::size_t threads, const BatchKernel& kernel) {
  const std::size_t chunks = std::min(threads, pairs.size());
  std::vector<num::SymTensor2> total(points.size());
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<num::SymTensor2> part(points.size());
    const auto [begin, end] = num::chunk_bounds(pairs.size(), chunks, c);
    for (std::size_t k = begin; k < end; ++k) {
      const geo::Point& victim = centers[pairs[k].first];
      const geo::Point& aggressor = centers[pairs[k].second];
      std::vector<std::uint32_t> near;
      std::vector<geo::Point> gathered;
      for (std::uint32_t i = 0; i < points.size(); ++i) {
        if (geo::distance_squared(points[i], victim) <= radius * radius) {
          near.push_back(i);
          gathered.push_back(points[i]);
        }
      }
      std::vector<num::SymTensor2> contrib(near.size());
      kernel(victim, aggressor, gathered.data(), gathered.size(),
             contrib.data());
      for (std::size_t j = 0; j < near.size(); ++j) part[near[j]] += contrib[j];
    }
    if (c == 0) {
      total = std::move(part);
    } else {
      for (std::size_t n = 0; n < total.size(); ++n) total[n] += part[n];
    }
  }
  return total;
}

void expect_bitwise(const std::vector<num::SymTensor2>& got,
                    const std::vector<num::SymTensor2>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        want.size() * sizeof(num::SymTensor2)),
            0)
      << what;
}

/// The grouped pair list of `stage` plus a seeded shuffle of it, where
/// consecutive pairs almost never share a victim.
std::vector<std::pair<const char*, PairList>> lock_pair_lists(
    const InteractiveStage& stage) {
  PairList grouped = stage.ordered_pairs();
  PairList interleaved = grouped;
  std::mt19937_64 rng(1234);
  std::shuffle(interleaved.begin(), interleaved.end(), rng);
  return {{"grouped", grouped}, {"interleaved", interleaved}};
}

std::vector<geo::Point> lock_points(const tsvlib::Placement& placement) {
  std::vector<geo::Point> pts;
  const geo::Box roi = placement.bounding_box().expanded(8.0);
  for (double x = roi.lo.x; x <= roi.hi.x; x += 2.3)
    for (double y = roi.lo.y; y <= roi.hi.y; y += 1.9) pts.push_back({x, y});
  return pts;
}

TEST(InteractiveStagePairOrderLock, SurrogatePathIsBitwiseThePlainPairLoop) {
  // A private model: the shared one must stay surrogate-free for the rest
  // of the suite. Every pitch of the jittered array (>= 10 um, <= the
  // 25 um cutoff) lies in the fitted domain.
  const auto model = std::make_shared<const ana::InteractiveStressModel>(
      kS, mat::ThermalLoad{});
  const auto sur = std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model));
  model->attach_surrogate(sur);
  const tsvlib::Placement cluster =
      tsvlib::make_jittered_array(kS, 30, 1.0e-2, 10.0, 777);
  const std::vector<geo::Point> pts = lock_points(cluster);
  const BatchKernel kernel = [&](const geo::Point& v, const geo::Point& a,
                                 const geo::Point* p, std::size_t n,
                                 num::SymTensor2* out) {
    ASSERT_TRUE(sur->covers(geo::distance(v, a)));
    sur->accumulate(v, a, p, n, out);
  };
  for (const std::size_t threads : {1u, 3u, 4u}) {
    InteractiveOptions opt;
    opt.num_threads = threads;
    opt.surrogate_tolerance = sur->certificate().certified_rel_bound;
    const InteractiveStage stage(cluster, model, opt);
    for (const auto& [name, pairs] : lock_pair_lists(stage)) {
      sur->reset_use_stats();
      const auto got = stage.evaluate_with_pairs(pts, pairs);
      EXPECT_EQ(sur->use_stats().surrogate_pairs, pairs.size());
      expect_bitwise(got,
                     reference_pair_loop(cluster.centers(), pts, pairs,
                                         opt.influence_radius, threads,
                                         kernel),
                     std::string(name) + " @ " + std::to_string(threads) +
                         " threads");
    }
  }
}

TEST(InteractiveStagePairOrderLock, LookupTablePathIsBitwiseThePlainPairLoop) {
  const tsvlib::Placement cluster =
      tsvlib::make_jittered_array(kS, 30, 1.0e-2, 10.0, 777);
  const std::vector<geo::Point> pts = lock_points(cluster);
  for (const std::size_t threads : {1u, 3u, 4u}) {
    InteractiveOptions opt;
    opt.num_threads = threads;
    opt.use_lookup_table = true;
    opt.pitch_quant_step = 0.25;
    const InteractiveStage stage(cluster, make_model(), opt);
    const BatchKernel kernel = [&](const geo::Point& v, const geo::Point& a,
                                   const geo::Point* p, std::size_t n,
                                   num::SymTensor2* out) {
      make_model()
          ->table_for_pitch(geo::distance(v, a), opt.influence_radius,
                            opt.pitch_quant_step)
          .accumulate(v, a, p, n, out);
    };
    for (const auto& [name, pairs] : lock_pair_lists(stage)) {
      expect_bitwise(stage.evaluate_with_pairs(pts, pairs),
                     reference_pair_loop(cluster.centers(), pts, pairs,
                                         opt.influence_radius, threads,
                                         kernel),
                     std::string(name) + " @ " + std::to_string(threads) +
                         " threads");
    }
  }
}

}  // namespace
}  // namespace tsv::core

// Certification property suite for the Stage II Chebyshev surrogate
// (analytic/surrogate.h). The surrogate's contract is stronger than the
// lookup table's: a machine-checked relative error bound (the
// SurrogateCertificate) that consumers gate on, exact-series fallback for
// out-of-domain pitches, and bitwise-deterministic evaluation regardless of
// thread count. Each claim is pinned here:
//
//   - the certified bound holds on fresh adversarial samples it was NOT
//     fitted or certified against;
//   - the scalar path is bitwise the batch kernel, and concurrent batch
//     evaluations from many threads are bitwise the serial ones;
//   - out-of-domain pitches provably fall back to the exact series
//     (counter-tracked), and points beyond the fitted radius contribute
//     exactly zero;
//   - theta-mirror antisymmetry of the shear is exact (bitwise), because
//     the kernel represents s12 as sin(theta) * even-polynomial;
//   - snapshot round-trips (io/snapshot, SnapshotKind::kSurrogate) are
//     bitwise for coefficients and certificate alike;
//   - InteractiveStage, the quantized-cache composition, and the
//     incremental engine all dispatch through the surrogate when its
//     certificate passes and fall back when it does not.

#include "analytic/surrogate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numbers>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analytic/interaction.h"
#include "core/incremental_engine.h"
#include "core/interactive_stage.h"
#include "core/stress_table.h"
#include "io/snapshot.h"
#include "tsv/generators.h"
#include "scratch_dir.h"

namespace tsv::ana {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

std::shared_ptr<const InteractiveStressModel> shared_model() {
  static auto model = std::make_shared<const InteractiveStressModel>(
      kS, mat::ThermalLoad{});
  return model;
}

/// One default-options fit shared across the suite (the fit itself is
/// deterministic, and every test resets the use counters it asserts on).
std::shared_ptr<const PairSurrogate> fitted_shared() {
  static auto sur = std::make_shared<const PairSurrogate>(
      PairSurrogate::fit(*shared_model()));
  return sur;
}

const PairSurrogate& fitted() { return *fitted_shared(); }

/// Attaches a surrogate to the shared model for one test body and always
/// detaches on scope exit, so the suite's tests stay order-independent.
struct ScopedAttach {
  explicit ScopedAttach(std::shared_ptr<const PairSurrogate> sur) {
    shared_model()->attach_surrogate(std::move(sur));
  }
  ~ScopedAttach() { shared_model()->attach_surrogate(nullptr); }
};

void expect_bitwise_equal(const std::vector<num::SymTensor2>& got,
                          const std::vector<num::SymTensor2>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }
}

TEST(Surrogate, FitCertifiesWithinTheDefaultTolerance) {
  const SurrogateCertificate& c = fitted().certificate();
  // The defaults are calibrated to certify at <= 1e-6 relative field error
  // (the InteractiveOptions::surrogate_tolerance gate).
  EXPECT_GT(c.certified_rel_bound, 0.0);
  EXPECT_LE(c.certified_rel_bound, 1e-6);
  EXPECT_TRUE(c.certified_within(1e-6));
  // A tolerance below the attested bound must NOT pass the gate.
  EXPECT_FALSE(c.certified_within(0.5 * c.certified_rel_bound));
  // An empty certificate attests nothing.
  EXPECT_FALSE(SurrogateCertificate{}.certified_within(1.0));

  EXPECT_EQ(c.pitch_min, 8.0);
  EXPECT_EQ(c.pitch_max, 25.0);
  EXPECT_EQ(c.r_max, 25.0);
  EXPECT_EQ(c.coefficient_count, fitted().coefficient_count());
  const SurrogateFitOptions defaults;
  EXPECT_GE(c.sample_count,
            defaults.cert_pitches * defaults.cert_points_per_pitch);
  // The bound is margin * max_abs / scale by construction.
  EXPECT_NEAR(c.certified_rel_bound,
              defaults.cert_margin * c.max_abs_error / c.field_scale,
              1e-18);
}

TEST(Surrogate, StaysWithinTheCertifiedBoundOnFreshAdversarialSamples) {
  const PairSurrogate& sur = fitted();
  const SurrogateCertificate& c = sur.certificate();
  const auto model = shared_model();
  // The certificate normalizes by the field scale it observed; fresh
  // samples are held to the same absolute budget.
  const double budget = c.certified_rel_bound * c.field_scale;

  std::mt19937_64 rng(0xf2e54u);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const std::vector<double> boundaries = sur.radial_boundaries();
  std::size_t samples = 0;
  double worst = 0.0;
  // 24 pitches x 448 points > 10k samples, none of them the fit nodes or
  // the certification set (different seed, different construction).
  for (int pi = 0; pi < 24; ++pi) {
    const double pitch =
        pi == 0 ? sur.pitch_min()
                : (pi == 1 ? sur.pitch_max()
                           : sur.pitch_min() + (sur.pitch_max() -
                                                sur.pitch_min()) *
                                                   u01(rng));
    // Random pair frame, victim off-origin: exercises the global->pair
    // rotation alongside the kernel.
    const double phi = 2.0 * std::numbers::pi * u01(rng);
    const geo::Point v{10.0 * (u01(rng) - 0.5), 10.0 * (u01(rng) - 0.5)};
    const geo::Point a{v.x + pitch * std::cos(phi),
                       v.y + pitch * std::sin(phi)};
    const RegionField& combined = model->combined_for_pitch(pitch);
    for (int k = 0; k < 448; ++k) {
      double r;
      if (k % 4 == 0) {
        // Adversarial: hug a random segment interface from either side.
        const double edge =
            boundaries[1 + static_cast<std::size_t>(
                               u01(rng) *
                               static_cast<double>(boundaries.size() - 2))];
        r = std::min(24.999, std::max(1e-3, edge + (u01(rng) - 0.5) * 2e-6));
      } else {
        r = 0.05 + 24.9 * u01(rng);
      }
      const double th = 2.0 * std::numbers::pi * u01(rng);
      const geo::Point p{v.x + r * std::cos(th), v.y + r * std::sin(th)};
      const num::SymTensor2 exact =
          model->stress_with_combined(combined, v, a, pitch, p);
      const num::SymTensor2 got = sur.stress_at(v, a, p);
      worst = std::max({worst, std::abs(got.s11 - exact.s11),
                        std::abs(got.s22 - exact.s22),
                        std::abs(got.s12 - exact.s12)});
      ++samples;
    }
  }
  EXPECT_GE(samples, 10000u);
  EXPECT_LE(worst, budget) << "worst " << worst << " MPa vs certified budget "
                           << budget << " MPa";
}

TEST(Surrogate, ScalarPathIsBitwiseTheBatchKernel) {
  const PairSurrogate& sur = fitted();
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> coord(-24.0, 24.0);
  std::vector<geo::Point> pts(777);  // odd count: exercises the partial
                                     // final SIMD chunk and its pad lanes
  for (geo::Point& p : pts) p = {coord(rng), coord(rng)};
  const geo::Point v{1.25, -0.5}, a{1.25 + 6.0, -0.5 + 7.0};  // pitch ~9.22
  std::vector<num::SymTensor2> batch(pts.size());
  sur.accumulate(v, a, pts.data(), pts.size(), batch.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const num::SymTensor2 one = sur.stress_at(v, a, pts[i]);
    EXPECT_EQ(batch[i].s11, one.s11) << i;
    EXPECT_EQ(batch[i].s22, one.s22) << i;
    EXPECT_EQ(batch[i].s12, one.s12) << i;
  }
}

TEST(Surrogate, BatchEvaluationIsBitwiseDeterministicAcrossThreads) {
  const PairSurrogate& sur = fitted();
  std::mt19937_64 rng(47);
  std::uniform_real_distribution<double> coord(-24.0, 24.0);
  std::vector<geo::Point> pts(4096);
  for (geo::Point& p : pts) p = {coord(rng), coord(rng)};
  const geo::Point v{0.0, 0.0}, a{11.3, 4.7};

  std::vector<num::SymTensor2> want(pts.size());
  sur.accumulate(v, a, pts.data(), pts.size(), want.data());

  // Eight threads evaluate the same (pair, points) concurrently into
  // private buffers. Each thread builds its own per-thread pitch
  // contraction memo; the contract is that this recomputation is bitwise
  // identical, so every buffer must equal the serial result exactly.
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<num::SymTensor2>> results(
      kThreads, std::vector<num::SymTensor2>(pts.size()));
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        results[t].assign(pts.size(), num::SymTensor2{});
        sur.accumulate(v, a, pts.data(), pts.size(), results[t].data());
      }
    });
  for (std::thread& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) expect_bitwise_equal(results[t],
                                                                  want);
}

TEST(Surrogate, OutOfDomainPitchFallsBackAndIsCounted) {
  const PairSurrogate& sur = fitted();
  sur.reset_use_stats();

  EXPECT_TRUE(sur.covers(8.0));    // domain ends are inclusive
  EXPECT_TRUE(sur.covers(25.0));
  EXPECT_FALSE(sur.covers(7.999));
  EXPECT_FALSE(sur.covers(25.001));

  const geo::Point v{0, 0};
  const geo::Point near_a{7.0, 0.0};  // valid placement (diameter 6), below
                                      // the fitted pitch_min of 8
  std::vector<geo::Point> pts = {{1.0, 2.0}, {-3.0, 0.5}};
  std::vector<num::SymTensor2> out = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const std::vector<num::SymTensor2> sentinel = out;
  EXPECT_FALSE(sur.try_accumulate(v, near_a, pts.data(), pts.size(),
                                  out.data()));
  expect_bitwise_equal(out, sentinel);  // untouched on decline

  const geo::Point in_a{10.0, 0.0};
  EXPECT_TRUE(sur.try_accumulate(v, in_a, pts.data(), pts.size(),
                                 out.data()));
  const SurrogateUseStats stats = sur.use_stats();
  EXPECT_EQ(stats.fallback_pairs, 1u);
  EXPECT_EQ(stats.surrogate_pairs, 1u);
  sur.reset_use_stats();
  EXPECT_EQ(sur.use_stats().surrogate_pairs, 0u);
  EXPECT_EQ(sur.use_stats().fallback_pairs, 0u);

  // Points at or beyond the fitted radius contribute exactly zero (the
  // PairStressTable convention the consumers rely on).
  std::vector<geo::Point> far = {{sur.r_max(), 0.0}, {0.0, 30.0}};
  std::vector<num::SymTensor2> fout(far.size());
  sur.accumulate(v, in_a, far.data(), far.size(), fout.data());
  for (const num::SymTensor2& s : fout) {
    EXPECT_EQ(s.s11, 0.0);
    EXPECT_EQ(s.s22, 0.0);
    EXPECT_EQ(s.s12, 0.0);
  }
}

TEST(Surrogate, StageFallsBackToTheExactSeriesBitwise) {
  // A pair below the fitted pitch_min evaluated through InteractiveStage
  // with a surrogate attached must produce the exact series field — the
  // same bits as a run with no surrogate at all.
  const tsvlib::Placement close(kS, {{0.0, 0.0}, {7.0, 0.0}});
  std::vector<geo::Point> pts;
  for (double x = -8; x <= 15; x += 1.9)
    for (double y = -8; y <= 8; y += 2.3) pts.push_back({x, y});

  const core::InteractiveStage plain(close, shared_model());
  const auto want = plain.evaluate(pts);

  ScopedAttach attach(fitted_shared());
  fitted_shared()->reset_use_stats();
  const core::InteractiveStage stage(close, shared_model());
  const auto got = stage.evaluate(pts);
  expect_bitwise_equal(got, want);
  EXPECT_EQ(fitted_shared()->use_stats().surrogate_pairs, 0u);
  EXPECT_EQ(fitted_shared()->use_stats().fallback_pairs, 2u);
}

TEST(Surrogate, ThetaMirrorShearAntisymmetryIsExact) {
  // With the pair on the x axis, mirroring a point about the pair axis
  // negates sin(theta) and nothing else; because the kernel stores
  // s12 / sin(theta) as an even polynomial, the mirrored shear is the exact
  // negation and the normal components are bitwise unchanged.
  const PairSurrogate& sur = fitted();
  const geo::Point v{0, 0}, a{9.5, 0.0};
  std::mt19937_64 rng(53);
  std::uniform_real_distribution<double> ux(-20.0, 20.0);
  std::uniform_real_distribution<double> uy(0.1, 20.0);
  for (int k = 0; k < 500; ++k) {
    const geo::Point p{ux(rng), uy(rng)};
    const geo::Point m{p.x, -p.y};
    const num::SymTensor2 up = sur.stress_at(v, a, p);
    const num::SymTensor2 dn = sur.stress_at(v, a, m);
    EXPECT_EQ(dn.s11, up.s11) << k;
    EXPECT_EQ(dn.s22, up.s22) << k;
    EXPECT_EQ(dn.s12, -up.s12) << k;
  }
}

TEST(Surrogate, SnapshotRoundTripIsBitwise) {
  const PairSurrogate& sur = fitted();
  const std::string path = testutil::scratch_file("surrogate_roundtrip.snap");
  io::save_surrogate(path, sur);

  const io::SnapshotInfo info = io::read_snapshot_info(path);
  EXPECT_EQ(info.kind, io::SnapshotKind::kSurrogate);

  const PairSurrogate loaded = io::load_surrogate(path);
  const PairSurrogate::Data a = sur.to_data();
  const PairSurrogate::Data b = loaded.to_data();
  EXPECT_EQ(b.pitch_min, a.pitch_min);
  EXPECT_EQ(b.pitch_max, a.pitch_max);
  EXPECT_EQ(b.r_max, a.r_max);
  EXPECT_EQ(b.pitch_order, a.pitch_order);
  ASSERT_EQ(b.segments.size(), a.segments.size());
  for (std::size_t s = 0; s < a.segments.size(); ++s) {
    const auto& sa = a.segments[s];
    const auto& sb = b.segments[s];
    EXPECT_EQ(sb.inverse_radial, sa.inverse_radial);
    EXPECT_EQ(sb.r0, sa.r0);
    EXPECT_EQ(sb.r1, sa.r1);
    EXPECT_EQ(sb.nr, sa.nr);
    EXPECT_EQ(sb.nx, sa.nx);
    ASSERT_EQ(sb.coeffs.size(), sa.coeffs.size());
    for (std::size_t i = 0; i < sa.coeffs.size(); ++i)
      EXPECT_EQ(sb.coeffs[i], sa.coeffs[i]) << "segment " << s << " coeff "
                                            << i;
  }
  // The certificate — the recorded verification — survives bitwise too.
  const SurrogateCertificate& ca = sur.certificate();
  const SurrogateCertificate& cb = loaded.certificate();
  EXPECT_EQ(cb.pitch_min, ca.pitch_min);
  EXPECT_EQ(cb.pitch_max, ca.pitch_max);
  EXPECT_EQ(cb.r_max, ca.r_max);
  EXPECT_EQ(cb.coefficient_count, ca.coefficient_count);
  EXPECT_EQ(cb.sample_count, ca.sample_count);
  EXPECT_EQ(cb.field_scale, ca.field_scale);
  EXPECT_EQ(cb.max_abs_error, ca.max_abs_error);
  EXPECT_EQ(cb.certified_rel_bound, ca.certified_rel_bound);

  // And the loaded surrogate evaluates bitwise the fitted one.
  std::mt19937_64 rng(61);
  std::uniform_real_distribution<double> coord(-24.0, 24.0);
  std::vector<geo::Point> pts(513);
  for (geo::Point& p : pts) p = {coord(rng), coord(rng)};
  const geo::Point v{0, 0}, aa{12.7, 3.1};
  std::vector<num::SymTensor2> want(pts.size()), got(pts.size());
  sur.accumulate(v, aa, pts.data(), pts.size(), want.data());
  loaded.accumulate(v, aa, pts.data(), pts.size(), got.data());
  expect_bitwise_equal(got, want);
  std::remove(path.c_str());
}

TEST(Surrogate, ModelGateChecksToleranceAndRadius) {
  ScopedAttach attach(fitted_shared());
  const auto model = shared_model();
  const double bound = fitted_shared()->certificate().certified_rel_bound;
  EXPECT_EQ(model->surrogate_for(1e-6, 25.0), fitted_shared());
  // Demanding better than the attested bound refuses the surrogate.
  EXPECT_EQ(model->surrogate_for(0.5 * bound, 25.0), nullptr);
  // A needed radius beyond the fitted r_max refuses it too (points past
  // r_max would silently evaluate to zero).
  EXPECT_EQ(model->surrogate_for(1e-6, 25.5), nullptr);
  model->attach_surrogate(nullptr);
  EXPECT_EQ(model->surrogate_for(1e-6, 25.0), nullptr);
  EXPECT_EQ(model->surrogate(), nullptr);
}

TEST(Surrogate, InteractiveStageDispatchesThroughTheSurrogate) {
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 3, 9.0);
  std::vector<geo::Point> pts;
  for (double x = -5; x <= 23; x += 1.7)
    for (double y = -5; y <= 23; y += 2.1) pts.push_back({x, y});

  const core::InteractiveStage series(arr, shared_model());
  const auto want = series.evaluate(pts);

  ScopedAttach attach(fitted_shared());
  fitted_shared()->reset_use_stats();
  const core::InteractiveStage fast(arr, shared_model());
  const auto got = fast.evaluate(pts);

  // Every ordered pair of the 9-TSV array sits inside the fitted pitch
  // domain, so the surrogate took them all.
  const SurrogateUseStats stats = fitted_shared()->use_stats();
  EXPECT_EQ(stats.surrogate_pairs, fast.ordered_pairs().size());
  EXPECT_EQ(stats.fallback_pairs, 0u);

  // Accuracy: each point sums at most ordered_pairs() surrogate errors,
  // each within the certified absolute budget.
  const SurrogateCertificate& c = fitted_shared()->certificate();
  const double budget = static_cast<double>(fast.ordered_pairs().size()) *
                        c.certified_rel_bound * c.field_scale;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(got[i].s11, want[i].s11, budget) << i;
    EXPECT_NEAR(got[i].s22, want[i].s22, budget) << i;
    EXPECT_NEAR(got[i].s12, want[i].s12, budget) << i;
  }

  // Opting out per stage forces the exact path bitwise, attached or not.
  core::InteractiveOptions off;
  off.allow_surrogate = false;
  fitted_shared()->reset_use_stats();
  const core::InteractiveStage forced(arr, shared_model(), off);
  expect_bitwise_equal(forced.evaluate(pts), want);
  EXPECT_EQ(fitted_shared()->use_stats().surrogate_pairs, 0u);
  EXPECT_EQ(fitted_shared()->use_stats().fallback_pairs, 0u);
}

TEST(Surrogate, ComposesWithTheQuantizedLookupCache) {
  // A 6.5 um array mixes pitches below the fitted pitch_min (6.5) with
  // covered ones (9.19, 13, ...): in-domain pairs ride the surrogate and
  // out-of-domain pairs fall back to the quantized lookup cache — both
  // accelerators active in one evaluate, each within its own budget.
  const tsvlib::Placement arr = tsvlib::make_array(kS, 3, 3, 6.5);
  std::vector<geo::Point> pts;
  for (double x = -5; x <= 18; x += 1.9)
    for (double y = -5; y <= 18; y += 2.3) pts.push_back({x, y});

  const auto series_model = std::make_shared<const InteractiveStressModel>(
      kS, mat::ThermalLoad{});
  const core::InteractiveStage series(arr, series_model);
  const auto want = series.evaluate(pts);

  const auto fast_model = std::make_shared<const InteractiveStressModel>(
      kS, mat::ThermalLoad{});
  fast_model->attach_surrogate(fitted_shared());
  fitted_shared()->reset_use_stats();
  core::InteractiveOptions qopt;
  qopt.use_lookup_table = true;
  qopt.pitch_quant_step = 0.25;
  const core::InteractiveStage fast(arr, fast_model, qopt);
  const auto got = fast.evaluate(pts);

  // Both dispatch tiers were exercised, and together they cover every pair.
  std::size_t covered = 0;
  const auto& centers = arr.centers();
  for (const auto& [vi, ai] : fast.ordered_pairs())
    covered += fitted_shared()->covers(geo::distance(centers[vi],
                                                     centers[ai]))
                   ? 1u
                   : 0u;
  const SurrogateUseStats stats = fitted_shared()->use_stats();
  EXPECT_EQ(stats.surrogate_pairs, covered);
  EXPECT_EQ(stats.fallback_pairs, fast.ordered_pairs().size() - covered);
  EXPECT_GT(stats.surrogate_pairs, 0u);
  EXPECT_GT(stats.fallback_pairs, 0u);
  // The fallbacks really went through the lookup cache (tables got built),
  // and only the fallbacks did.
  EXPECT_EQ(series_model->table_cache_stats().lookups(), 0u);
  EXPECT_EQ(fast_model->table_cache_stats().lookups(), stats.fallback_pairs);
  EXPECT_GT(fast_model->table_cache_size(), 0u);

  // Combined accuracy is dominated by the lookup budget (the same bound
  // test_quantized_cache locks); the surrogate contributes ~1e-6 relative.
  double scale = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    scale = std::max({scale, std::abs(want[i].s11), std::abs(want[i].s22)});
    worst = std::max({worst, std::abs(got[i].s11 - want[i].s11),
                      std::abs(got[i].s22 - want[i].s22),
                      std::abs(got[i].s12 - want[i].s12)});
  }
  ASSERT_GT(scale, 0.0);
  EXPECT_LT(worst, 0.03 * scale + 0.02);
  fitted_shared()->reset_use_stats();
}

TEST(Surrogate, IncrementalEngineDispatchesThroughTheSurrogate) {
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const geo::SampleGrid grid =
      geo::SampleGrid::with_spacing(pair.bounding_box().expanded(8.0), 1.5);
  const auto table = std::make_shared<const core::RadialStressTable>(
      core::RadialStressTable::from_analytic(
          ana::SingleTsvModel(kS, mat::ThermalLoad{}), 30.0, 4096));

  ScopedAttach attach(fitted_shared());
  fitted_shared()->reset_use_stats();
  core::IncrementalEngine engine(pair, grid, table, shared_model());
  // The initial full build already routed its pairs through the surrogate.
  EXPECT_GT(fitted_shared()->use_stats().surrogate_pairs, 0u);

  // An edit adds/removes the same surrogate contributions a full
  // evaluation would, so the maintained field tracks a fresh engine built
  // at the final placement to regrouping noise only.
  const std::uint64_t before =
      fitted_shared()->use_stats().surrogate_pairs;
  engine.move(1, {11.5, 0.5});
  EXPECT_GT(fitted_shared()->use_stats().surrogate_pairs, before);

  core::IncrementalEngine fresh(engine.placement(), grid, table,
                                shared_model());
  const auto& got = engine.stage2_field();
  const auto& want = fresh.stage2_field();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i].s11, want[i].s11, 1e-9) << i;
    EXPECT_NEAR(got[i].s22, want[i].s22, 1e-9) << i;
    EXPECT_NEAR(got[i].s12, want[i].s12, 1e-9) << i;
  }
  fitted_shared()->reset_use_stats();
}

// The per-thread contraction memo holds several pitches of several
// surrogates. Cycling more distinct pitches than it has ways (so ways are
// evicted and refilled) over two interleaved surrogates must never change a
// value: every stress_at equals the same call on a fresh thread, whose memo
// has only ever seen that one pitch.
TEST(Surrogate, MultiWayMemoIsBitwiseAFreshSinglePitchCall) {
  const PairSurrogate& first = fitted();
  // A second surrogate with different coefficients, so a hit on the wrong
  // surrogate's way would show in the values.
  PairSurrogate::Data data = first.to_data();
  for (PairSurrogate::Data::Segment& seg : data.segments)
    for (double& c : seg.coeffs) c *= 1.5;
  const PairSurrogate second(std::move(data));
  const PairSurrogate* surrogates[] = {&first, &second};

  constexpr std::size_t kPitches = 40;  // well above the memo's ways
  std::vector<geo::Point> aggressors;
  for (std::size_t i = 0; i < kPitches; ++i) {
    const double pitch = 8.0 + 17.0 * static_cast<double>(i) /
                                   static_cast<double>(kPitches - 1);
    const double phi = 0.37 * static_cast<double>(i);
    aggressors.push_back({pitch * std::cos(phi), pitch * std::sin(phi)});
  }
  const geo::Point victim{0.0, 0.0};
  const geo::Point p{3.7, -2.1};
  num::SymTensor2 fresh[2][kPitches];
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t i = 0; i < kPitches; ++i) {
      std::thread([&] {
        fresh[s][i] = surrogates[s]->stress_at(victim, aggressors[i], p);
      }).join();
    }
  }

  // Sequential sweeps (every access evicts), a small working set (hits),
  // and a strided walk, each alternating between the two surrogates.
  std::vector<std::size_t> order;
  for (int rep = 0; rep < 3; ++rep)
    for (std::size_t i = 0; i < kPitches; ++i) order.push_back(i);
  for (int rep = 0; rep < 5; ++rep)
    for (std::size_t i = 0; i < 6; ++i) order.push_back((7 * i) % kPitches);
  for (std::size_t i = 0; i < 3 * kPitches; ++i)
    order.push_back((i * 17) % kPitches);
  std::size_t k = 0;
  for (const std::size_t i : order) {
    for (std::size_t s = 0; s < 2; ++s, ++k) {
      const std::size_t which = (k / 3) % 2 == 0 ? s : 1 - s;
      const num::SymTensor2 got =
          surrogates[which]->stress_at(victim, aggressors[i], p);
      EXPECT_EQ(std::memcmp(&got, &fresh[which][i], sizeof(got)), 0)
          << "surrogate " << which << " pitch index " << i << " access "
          << k;
    }
  }
  // The two surrogates really differ, so the check above can tell them
  // apart.
  EXPECT_NE(fresh[0][0].s11, fresh[1][0].s11);
}

// Every compiled variant of the pitch contraction is bitwise the plain
// scalar loop: the same multiply and add per term, in plane order, with no
// fused multiply-add. Block sizes cover whole register strips, single
// registers, and scalar tails.
TEST(Surrogate, ContractionVariantsAreBitwiseThePlainLoop) {
  std::mt19937_64 rng(61);
  std::uniform_real_distribution<double> coeff(-1.0e3, 1.0e3);
  std::uniform_real_distribution<double> weight(-1.0, 1.0);
  const std::vector<SurrogateIsa> isas = host_surrogate_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), SurrogateIsa::kGeneric);
  for (const std::size_t planes : {2u, 7u, 16u}) {
    for (const std::size_t block : {1u, 3u, 8u, 37u, 150u, 840u}) {
      std::vector<double> src(planes * block);
      for (double& c : src) c = coeff(rng);
      std::vector<double> t(planes);
      for (double& w : t) w = weight(rng);
      std::vector<double> want(block);
      for (std::size_t q = 0; q < block; ++q) {
        double acc = src[q];
        for (std::size_t a = 1; a < planes; ++a)
          acc += t[a] * src[a * block + q];
        want[q] = acc;
      }
      for (const SurrogateIsa isa : isas) {
        std::vector<double> got(block, -1.0);
        contract_pitch_planes(isa, src.data(), planes, block, t.data(),
                              got.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              block * sizeof(double)),
                  0)
            << "isa " << static_cast<int>(isa) << " planes " << planes
            << " block " << block;
      }
    }
  }
}

}  // namespace
}  // namespace tsv::ana

#include "tsv/fullchip.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "geometry/point.h"
#include "scratch_dir.h"

namespace tsv::tsvlib {
namespace {

const TsvStructure kS = TsvStructure::baseline_bcb();

FullChipSpec small_spec(std::uint64_t seed) {
  FullChipSpec spec;
  spec.chip = geo::Box{{0.0, 0.0}, {300.0, 300.0}};
  spec.seed = seed;
  spec.array_blocks = 1;
  spec.array_nx = 4;
  spec.array_ny = 4;
  spec.array_pitch = 10.0;
  spec.bank_count = 2;
  spec.bank_size = 8;
  spec.bank_radius = 20.0;
  spec.random_count = 30;
  return spec;
}

TEST(FullChip, PopulationCountsMatchSpec) {
  const FullChipSpec spec = small_spec(5);
  const FullChipDesign d = make_fullchip(kS, spec);
  ASSERT_EQ(d.placement.size(), spec.total());
  ASSERT_EQ(d.kinds.size(), spec.total());
  EXPECT_EQ(d.count(TsvKind::kArray),
            spec.array_blocks * spec.array_nx * spec.array_ny);
  EXPECT_EQ(d.count(TsvKind::kBank), spec.bank_count * spec.bank_size);
  EXPECT_EQ(d.count(TsvKind::kRandom), spec.random_count);
}

TEST(FullChip, RespectsGlobalMinPitch) {
  const FullChipSpec spec = small_spec(7);
  const FullChipDesign d = make_fullchip(kS, spec);
  // Placement::min_pitch is the O(n^2) ground truth the incremental
  // occupancy-grid check must agree with.
  EXPECT_GE(d.placement.min_pitch(), spec.min_pitch * (1.0 - 1e-9));
}

TEST(FullChip, AllCentersInsideChip) {
  const FullChipSpec spec = small_spec(11);
  const FullChipDesign d = make_fullchip(kS, spec);
  for (const geo::Point& c : d.placement.centers())
    EXPECT_TRUE(spec.chip.contains(c)) << c.x << "," << c.y;
}

TEST(FullChip, DeterministicPerSeed) {
  const FullChipDesign a = make_fullchip(kS, small_spec(42));
  const FullChipDesign b = make_fullchip(kS, small_spec(42));
  const FullChipDesign c = make_fullchip(kS, small_spec(43));
  ASSERT_EQ(a.placement.size(), b.placement.size());
  for (std::size_t i = 0; i < a.placement.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.placement.centers()[i].x, b.placement.centers()[i].x);
    EXPECT_DOUBLE_EQ(a.placement.centers()[i].y, b.placement.centers()[i].y);
    EXPECT_EQ(a.kinds[i], b.kinds[i]);
  }
  bool any_diff = false;
  for (std::size_t i = 0; i < a.placement.size(); ++i)
    any_diff |= a.placement.centers()[i].x != c.placement.centers()[i].x;
  EXPECT_TRUE(any_diff);
}

TEST(FullChip, SpecForCountHitsExactTotals) {
  for (const std::size_t count : {1u, 10u, 100u, 1000u, 12345u}) {
    const FullChipSpec spec = spec_for_count(count, 0.25e-2, 9);
    EXPECT_EQ(spec.total(), count) << count;
  }
}

TEST(FullChip, SpecForCountMixesPopulationsAtScale) {
  const FullChipSpec spec = spec_for_count(1000, 0.25e-2, 9);
  EXPECT_GT(spec.array_blocks, 0u);
  EXPECT_GT(spec.bank_count, 0u);
  EXPECT_GT(spec.random_count, 0u);
  const FullChipDesign d = make_fullchip(kS, spec);
  EXPECT_EQ(d.placement.size(), 1000u);
  EXPECT_GE(d.placement.min_pitch(), spec.min_pitch * (1.0 - 1e-9));
}

TEST(FullChip, MinPitchBelowDiameterThrows) {
  FullChipSpec spec = small_spec(1);
  spec.min_pitch = 1.0;  // below 2 * R'
  spec.array_pitch = 1.0;
  EXPECT_THROW(make_fullchip(kS, spec), std::invalid_argument);
}

TEST(FullChip, ArrayPitchBelowMinPitchThrows) {
  FullChipSpec spec = small_spec(1);
  spec.array_pitch = spec.min_pitch / 2.0;
  EXPECT_THROW(make_fullchip(kS, spec), std::invalid_argument);
}

TEST(FullChip, ArrayBlockLargerThanChipThrows) {
  FullChipSpec spec = small_spec(1);
  spec.array_nx = 100;  // 99 * 10 um exceeds the 300 um chip
  EXPECT_THROW(make_fullchip(kS, spec), std::invalid_argument);
}

TEST(FullChip, ImpossiblePackingThrows) {
  FullChipSpec spec = small_spec(1);
  spec.chip = geo::Box{{0.0, 0.0}, {60.0, 60.0}};
  spec.array_blocks = 0;
  spec.bank_count = 0;
  spec.random_count = 200;  // cannot fit 200 TSVs at pitch 10 in 60x60
  EXPECT_THROW(make_fullchip(kS, spec), std::runtime_error);
}

TEST(FullChip, CsvExportRoundTrips) {
  const FullChipDesign d = make_fullchip(kS, small_spec(3));
  const std::string path = testutil::scratch_file("fullchip_roundtrip.csv");
  write_fullchip_csv(path, d);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "x_um,y_um,kind");
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string x, y, kind;
    ASSERT_TRUE(std::getline(fields, x, ','));
    ASSERT_TRUE(std::getline(fields, y, ','));
    ASSERT_TRUE(std::getline(fields, kind));
    ASSERT_LT(rows, d.placement.size());
    EXPECT_NEAR(std::stod(x), d.placement.centers()[rows].x, 1e-5);
    EXPECT_NEAR(std::stod(y), d.placement.centers()[rows].y, 1e-5);
    EXPECT_EQ(kind, to_string(d.kinds[rows]));
    ++rows;
  }
  EXPECT_EQ(rows, d.placement.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tsv::tsvlib

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/line_scan.h"
#include "io/csv.h"
#include "io/table_printer.h"
#include "scratch_dir.h"

namespace tsv {
namespace {

std::string temp_path(const char* name) {
  return testutil::scratch_file(name);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Csv, WriterEnforcesWidth) {
  const std::string path = temp_path("w.csv");
  io::CsvWriter w(path);
  w.header({"a", "b"});
  w.row(std::vector<double>{1.0, 2.0});
  EXPECT_THROW(w.row(std::vector<double>{1.0, 2.0, 3.0}),
               std::invalid_argument);
}

TEST(Csv, ScalarFieldRoundtripsText) {
  const std::string path = temp_path("s.csv");
  io::write_scalar_field(path, {{1.0, 2.0}, {3.0, 4.0}}, {10.0, 20.0});
  const std::string text = slurp(path);
  EXPECT_NE(text.find("x,y,value"), std::string::npos);
  EXPECT_NE(text.find("1,2,10"), std::string::npos);
  EXPECT_NE(text.find("3,4,20"), std::string::npos);
}

TEST(Csv, TensorFieldColumns) {
  const std::string path = temp_path("t.csv");
  io::write_tensor_field(path, {{0.0, 0.0}}, {{1.0, 2.0, 3.0}});
  const std::string text = slurp(path);
  EXPECT_NE(text.find("sxx,syy,sxy"), std::string::npos);
  EXPECT_NE(text.find("0,0,1,2,3"), std::string::npos);
}

TEST(Csv, SizeMismatchThrows) {
  EXPECT_THROW(
      io::write_scalar_field(temp_path("m.csv"), {{0.0, 0.0}}, {1.0, 2.0}),
      std::invalid_argument);
}

TEST(Csv, UnwritablePathThrows) {
  EXPECT_THROW(io::CsvWriter("/nonexistent-dir/x.csv"), std::runtime_error);
}

TEST(TablePrinter, AlignsColumns) {
  io::TablePrinter t({"name", "value"});
  t.add_row(std::vector<std::string>{"longer-name", "1"});
  t.add_row("x", {123.456}, 4);
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("longer-name"), std::string::npos);
  EXPECT_NE(text.find("123.5"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(TablePrinter, RejectsWrongWidth) {
  io::TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(LineScan, UniformArcLength) {
  const core::LineScan scan =
      core::make_line_scan({0.0, 0.0}, {10.0, 0.0}, 11);
  ASSERT_EQ(scan.points.size(), 11u);
  EXPECT_DOUBLE_EQ(scan.arc.front(), 0.0);
  EXPECT_DOUBLE_EQ(scan.arc.back(), 10.0);
  EXPECT_DOUBLE_EQ(scan.points[5].x, 5.0);
}

TEST(LineScan, SamplesFunctor) {
  const core::LineScan scan =
      core::make_line_scan({0.0, 0.0}, {4.0, 0.0}, 5);
  const auto vals = core::sample_line(scan, [](const geo::Point& p) {
    return num::SymTensor2{p.x, 0.0, 0.0};
  });
  ASSERT_EQ(vals.size(), 5u);
  EXPECT_DOUBLE_EQ(vals[2].s11, 2.0);
}

}  // namespace
}  // namespace tsv

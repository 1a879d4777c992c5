// The fault-injection harness (numeric/fault_injection.h) and the recovery
// paths it exists to prove:
//
//   - a NaN-poisoned CG iterate trips the solver fallback chain, and the
//     recovered FEM field is bitwise the clean direct-Cholesky solve;
//   - an injected snapshot-write failure neither kills a checkpointed tiled
//     run nor corrupts the previous checkpoint;
//   - a truncated checkpoint is discarded and the run restarts clean;
//   - a run killed mid-flight (real SIGKILL-style death via fork + _exit)
//     resumes from its checkpoint and streams a bitwise-identical field;
//   - the append-only checkpoint log: a torn last record resumes from the
//     record before it, a failed append is followed by a whole rewrite,
//     and a checkpoint of the earlier whole-file format is discarded;
//   - a bit-flipped surrogate snapshot is rejected by the payload checksum
//     (IoCorruptionError), and the warm-start flow degrades to the exact
//     series path instead of evaluating damaged coefficients.
//
// These tests carry the `fault` ctest label so the sanitizer CI can run
// them as a suite.

#include "numeric/fault_injection.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analytic/surrogate.h"
#include "core/error.h"
#include "core/interactive_stage.h"
#include "core/tiled_evaluator.h"
#include "fem/thermo_solver.h"
#include "io/snapshot.h"
#include "tsv/generators.h"
#include "scratch_dir.h"

namespace tsv {
namespace {

const tsvlib::TsvStructure kS = tsvlib::TsvStructure::baseline_bcb();

std::string temp_path(const std::string& name) {
  return testutil::scratch_file(name);
}

// --- registry semantics --------------------------------------------------

TEST(FaultInjection, DisarmedSitesNeverFire) {
  fault::disarm_all();
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(fault::should_fire(fault::Site::kCgPoisonNan));
  EXPECT_EQ(fault::fired_count(fault::Site::kCgPoisonNan), 0u);
}

TEST(FaultInjection, FiresExactlyOnceAtTheNthHitThenSelfDisarms) {
  fault::disarm_all();
  fault::arm(fault::Site::kSnapshotWriteFail, 3);
  EXPECT_FALSE(fault::should_fire(fault::Site::kSnapshotWriteFail));  // 1st
  EXPECT_FALSE(fault::should_fire(fault::Site::kSnapshotWriteFail));  // 2nd
  EXPECT_TRUE(fault::should_fire(fault::Site::kSnapshotWriteFail));   // 3rd
  // Self-disarmed: recovery retries run clean.
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(fault::should_fire(fault::Site::kSnapshotWriteFail));
  EXPECT_EQ(fault::fired_count(fault::Site::kSnapshotWriteFail), 1u);
  fault::disarm_all();
}

// --- solver fallback chain -----------------------------------------------

TEST(FaultInjection, PoisonedCgFallsBackToCholeskyBitwise) {
  const tsvlib::Placement p(kS, {{0.0, 0.0}});
  const geo::Box roi{{-4, -4}, {4, 4}};
  fem::FemOptions opt;
  opt.element_size = 0.5;
  opt.margin = 8.0;

  // Clean reference: direct Cholesky as the primary backend.
  opt.solver = fem::LinearSolver::kDirectCholesky;
  const fem::FemSolution clean =
      fem::solve_thermo_elastic(p, mat::ThermalLoad{}, roi, opt);
  ASSERT_FALSE(clean.report.fallback_used);

  // Poison the third CG iterate with NaN: the solver must detect it,
  // classify it, and recover through the fallback chain.
  opt.solver = fem::LinearSolver::kConjugateGradient;
  fault::disarm_all();
  fault::arm(fault::Site::kCgPoisonNan, 3);
  const fem::FemSolution recovered =
      fem::solve_thermo_elastic(p, mat::ThermalLoad{}, roi, opt);
  EXPECT_EQ(fault::fired_count(fault::Site::kCgPoisonNan), 1u);
  fault::disarm_all();

  EXPECT_TRUE(recovered.report.fallback_used);
  EXPECT_EQ(recovered.report.backend, fem::LinearSolver::kDirectCholesky);
  EXPECT_EQ(recovered.report.cg_failure, num::CgFailure::kNanDetected);
  EXPECT_LT(recovered.report.residual, 1e-8);

  // Same assembly, same deterministic factorization: the recovered field is
  // bitwise the clean direct solve (far inside the required 1e-12).
  for (double x = -3.5; x <= 3.5; x += 0.45) {
    for (double y = -3.5; y <= 3.5; y += 0.55) {
      const num::SymTensor2 a = recovered.stress.sample({x, y});
      const num::SymTensor2 b = clean.stress.sample({x, y});
      EXPECT_EQ(a.s11, b.s11);
      EXPECT_EQ(a.s22, b.s22);
      EXPECT_EQ(a.s12, b.s12);
    }
  }
}

// --- checkpointed tiled runs ----------------------------------------------

struct TiledFixture {
  tsvlib::Placement placement =
      tsvlib::make_random(kS, 40, geo::Box{{0, 0}, {150, 150}}, 10.0, 99);
  core::StressFramework framework{placement};
  geo::SampleGrid grid = geo::SampleGrid::with_spacing(
      placement.bounding_box().expanded(10.0), 3.0);
  core::TiledEvaluator tiled{framework, core::TiledOptions{200, false}};

  core::TileConsumer writer_into(std::vector<num::SymTensor2>& out) const {
    out.assign(grid.size(), num::SymTensor2{});
    return [&out, this](const core::Tile& tile) {
      for (std::size_t ty = 0; ty < tile.ny; ++ty)
        for (std::size_t tx = 0; tx < tile.nx; ++tx)
          out[(tile.iy0 + ty) * grid.nx() + (tile.ix0 + tx)] =
              tile.stress[ty * tile.nx + tx];
    };
  }
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

TEST(FaultInjection, FailedCheckpointWriteDoesNotKillTheRun) {
  TiledFixture f;
  std::vector<num::SymTensor2> want;
  f.tiled.evaluate(f.grid, f.writer_into(want));

  const std::string path = temp_path("ckpt_writefail.snap");
  fault::disarm_all();
  fault::arm(fault::Site::kSnapshotWriteFail, 2);  // 2nd checkpoint write
  std::vector<num::SymTensor2> got;
  const core::TiledStats stats = io::evaluate_with_checkpoint(
      f.tiled, f.grid, f.writer_into(got), path, 2);
  fault::disarm_all();

  // The run completed despite the failed write and produced the clean field.
  EXPECT_EQ(stats.points, f.grid.size());
  expect_bitwise_equal(got, want);
  // The checkpoint file was removed after the successful finish.
  EXPECT_FALSE(io::try_load_tiled_checkpoint(path).has_value());
}

TEST(FaultInjection, TruncatedCheckpointRestartsCleanAndStillMatches) {
  TiledFixture f;
  std::vector<num::SymTensor2> want;
  f.tiled.evaluate(f.grid, f.writer_into(want));

  // Write a valid checkpoint, then let the harness chop it in half —
  // simulating external disk damage between two runs.
  const std::string path = temp_path("ckpt_truncated.snap");
  core::TiledCheckpoint cp;
  cp.fingerprint = f.tiled.fingerprint(f.grid);
  cp.tiles_done = 2;
  fault::disarm_all();
  fault::arm(fault::Site::kCheckpointTruncate);
  io::save_tiled_checkpoint(path, cp);
  fault::disarm_all();

  std::vector<num::SymTensor2> got;
  core::TiledStats stats = io::evaluate_with_checkpoint(
      f.tiled, f.grid, f.writer_into(got), path, 4);
  // The damaged checkpoint was discarded: nothing resumed, everything
  // computed, and the field is the clean one.
  EXPECT_EQ(stats.resumed_tiles, 0u);
  expect_bitwise_equal(got, want);
}

TEST(FaultInjection, KilledRunResumesBitwiseIdentical) {
  TiledFixture f;
  std::vector<num::SymTensor2> want;
  f.tiled.evaluate(f.grid, f.writer_into(want));

  const std::string path = temp_path("ckpt_killed.snap");
  std::remove(path.c_str());

  // Child process: evaluate with checkpointing and die abruptly (_exit, no
  // destructors, no atexit — the closest in-process stand-in for SIGKILL)
  // after the 5th tile. With every_tiles=2 the checkpoint on disk then
  // covers tiles 0..3.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::size_t seen = 0;
    io::evaluate_with_checkpoint(
        f.tiled, f.grid,
        [&](const core::Tile&) {
          if (++seen == 5) _exit(42);
        },
        path, 2);
    _exit(0);  // not reached
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 42);

  // The atomic save left a loadable checkpoint behind.
  const auto cp = io::try_load_tiled_checkpoint(path);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->tiles_done, 4u);

  // Resume in this process: finished tiles replay from disk, the rest are
  // computed, and the assembled field is bitwise the uninterrupted run's.
  std::vector<num::SymTensor2> got;
  const core::TiledStats stats = io::evaluate_with_checkpoint(
      f.tiled, f.grid, f.writer_into(got), path, 2);
  EXPECT_EQ(stats.resumed_tiles, 4u);
  expect_bitwise_equal(got, want);
  // Completion removed the checkpoint: a re-run starts clean.
  EXPECT_FALSE(io::try_load_tiled_checkpoint(path).has_value());
}

// --- append-only checkpoint log -------------------------------------------

/// Runs a checkpointed map every 2 tiles in a child process that dies after
/// streaming `tiles` tiles, with the snapshot-write fault armed at its
/// `fail_write`-th hit (0 = none). Returns once the child is dead.
void run_killed_child(const TiledFixture& f, const std::string& path,
                      std::size_t tiles, std::uint64_t fail_write) {
  std::remove(path.c_str());
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    fault::disarm_all();
    if (fail_write > 0) fault::arm(fault::Site::kSnapshotWriteFail, fail_write);
    std::size_t seen = 0;
    io::evaluate_with_checkpoint(
        f.tiled, f.grid,
        [&](const core::Tile&) {
          if (++seen == tiles + 1) _exit(42);
        },
        path, 2);
    _exit(0);  // not reached
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 42);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(FaultInjection, TornLastCheckpointRecordResumesFromThePreviousOne) {
  TiledFixture f;
  std::vector<num::SymTensor2> want;
  f.tiled.evaluate(f.grid, f.writer_into(want));

  // Three writes (after tiles 2, 4, 6): one whole record, two appended.
  const std::string path = temp_path("ckpt_torn_tail.snap");
  run_killed_child(f, path, 6, 0);
  ASSERT_EQ(io::load_tiled_checkpoint(path).tiles_done, 6u);

  // Tear the last record: the two before it still load.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  ASSERT_EQ(io::load_tiled_checkpoint(path).tiles_done, 4u);

  std::vector<num::SymTensor2> got;
  const core::TiledStats stats = io::evaluate_with_checkpoint(
      f.tiled, f.grid, f.writer_into(got), path, 2);
  EXPECT_EQ(stats.resumed_tiles, 4u);
  expect_bitwise_equal(got, want);
}

TEST(FaultInjection, FailedCheckpointAppendIsFollowedByAWholeRewrite) {
  TiledFixture f;
  std::vector<num::SymTensor2> want;
  f.tiled.evaluate(f.grid, f.writer_into(want));
  const std::string path = temp_path("ckpt_failed_append.snap");

  // The 2nd write, the first append, fails half-way. Killed before the 3rd
  // write, the run leaves the first record and a torn one behind.
  run_killed_child(f, path, 5, 2);
  ASSERT_EQ(io::load_tiled_checkpoint(path).tiles_done, 2u);

  // Killed after the 3rd write, which rewrote the file whole: one record,
  // byte for byte what save_tiled_checkpoint writes for the same state.
  run_killed_child(f, path, 7, 2);
  const core::TiledCheckpoint cp = io::load_tiled_checkpoint(path);
  ASSERT_EQ(cp.tiles_done, 6u);
  const std::string fresh = temp_path("ckpt_failed_append_fresh.snap");
  io::save_tiled_checkpoint(fresh, cp);
  EXPECT_EQ(file_bytes(path), file_bytes(fresh));

  std::vector<num::SymTensor2> got;
  const core::TiledStats stats = io::evaluate_with_checkpoint(
      f.tiled, f.grid, f.writer_into(got), path, 2);
  EXPECT_EQ(stats.resumed_tiles, 6u);
  expect_bitwise_equal(got, want);
}

TEST(FaultInjection, OldFormatCheckpointIsDiscarded) {
  TiledFixture f;
  std::vector<num::SymTensor2> want;
  f.tiled.evaluate(f.grid, f.writer_into(want));

  // A whole-file checkpoint of the earlier format (snapshot version 4, kind
  // 5: fingerprint, tiles done, stress, interactive) holding 2 true tiles.
  core::TiledCheckpoint cp;
  core::CheckpointConfig config;
  config.every_tiles = 2;
  config.writer = [&](const core::TiledCheckpoint& c) {
    if (c.tiles_done == 2) cp = c;
  };
  f.tiled.evaluate(f.grid, [](const core::Tile&) {}, config);
  ASSERT_EQ(cp.tiles_done, 2u);
  std::string payload;
  const auto put = [&](std::uint64_t v) {
    payload.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(cp.fingerprint);
  put(cp.tiles_done);
  put(cp.stress.size());
  payload.append(reinterpret_cast<const char*>(cp.stress.data()),
                 cp.stress.size() * sizeof(num::SymTensor2));
  put(0);
  std::uint64_t checksum = 1469598103934665603ull;
  for (const char c : payload) {
    checksum ^= static_cast<unsigned char>(c);
    checksum *= 1099511628211ull;
  }
  std::string bytes("TSVSNAP", 8);
  const std::uint32_t version = 4;
  const std::uint32_t kind = 5;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.append(reinterpret_cast<const char*>(&kind), sizeof(kind));
  const std::uint64_t size = payload.size();
  bytes.append(reinterpret_cast<const char*>(&size), sizeof(size));
  bytes += payload;
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  const std::string path = temp_path("ckpt_old_format.snap");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  EXPECT_THROW(io::load_tiled_checkpoint(path), IoCorruptionError);
  std::vector<num::SymTensor2> got;
  const core::TiledStats stats = io::evaluate_with_checkpoint(
      f.tiled, f.grid, f.writer_into(got), path, 4);
  EXPECT_EQ(stats.resumed_tiles, 0u);
  expect_bitwise_equal(got, want);
}

// --- corrupted surrogate snapshots ----------------------------------------

TEST(FaultInjection, CorruptedSurrogateSnapshotDegradesToTheSeriesPath) {
  const auto model = std::make_shared<const ana::InteractiveStressModel>(
      kS, mat::ThermalLoad{});
  const auto surrogate = std::make_shared<const ana::PairSurrogate>(
      ana::PairSurrogate::fit(*model));
  const std::string path = temp_path("surrogate_bitrot.snap");

  // The armed save succeeds, then the harness flips one payload byte —
  // bit rot discovered at load time, after the atomic write completed.
  fault::disarm_all();
  fault::arm(fault::Site::kSurrogateCorrupt);
  io::save_surrogate(path, *surrogate);
  fault::disarm_all();
  EXPECT_EQ(fault::fired_count(fault::Site::kSurrogateCorrupt), 1u);

  // The checksum must catch the damage: the strict loader reports
  // IoCorruption, the best-effort loader declines.
  EXPECT_THROW(io::load_surrogate(path), IoCorruptionError);
  EXPECT_FALSE(io::try_load_surrogate(path).has_value());

  // Graceful degradation, end to end: a warm start that fails to load the
  // surrogate leaves the model without one, so Stage II runs the exact
  // series — bitwise the never-had-a-surrogate field, not a crash and not
  // damaged coefficients.
  auto warm = io::try_load_surrogate(path);
  if (warm.has_value())
    model->attach_surrogate(std::make_shared<const ana::PairSurrogate>(
        std::move(*warm)));
  const tsvlib::Placement pair = tsvlib::make_pair(kS, 10.0);
  const core::InteractiveStage stage(pair, model);
  std::vector<geo::Point> pts;
  for (double x = -8; x <= 18; x += 2.3)
    for (double y = -8; y <= 8; y += 2.7) pts.push_back({x, y});
  const auto got = stage.evaluate(pts);
  const auto fresh_model = std::make_shared<const ana::InteractiveStressModel>(
      kS, mat::ThermalLoad{});
  const core::InteractiveStage series(pair, fresh_model);
  const auto want = series.evaluate(pts);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].s11, want[i].s11) << i;
    EXPECT_EQ(got[i].s22, want[i].s22) << i;
    EXPECT_EQ(got[i].s12, want[i].s12) << i;
  }

  // The site self-disarmed: a recovery re-save produces a clean snapshot
  // that round-trips and re-arms the fast path.
  io::save_surrogate(path, *surrogate);
  const auto recovered = io::try_load_surrogate(path);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->certificate().certified_rel_bound,
            surrogate->certificate().certified_rel_bound);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tsv

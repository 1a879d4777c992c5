// Concurrent-session determinism: two sessions editing and querying
// simultaneously through SessionManager must produce bitwise-identical
// results to each session run alone (serial isolation). This is the
// service's core concurrency contract — per-session work mutexes serialize
// engine use, engines are serial inside, so cross-session interleaving can
// never leak into results. Runs under the tsan label to let the sanitizer
// chew on the guard/stats/eviction locking.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/session_manager.h"
#include "tsv/placement_io.h"
#include "scratch_dir.h"

namespace {

using namespace tsv;

tsvlib::Placement placement_from(const std::string& text) {
  std::istringstream in(text);
  return tsvlib::read_placement(in);
}

const char* kDesignA =
    "structure 2.5 0.1 BCB\n"
    "tsv 0 0\n"
    "tsv 10 0\n"
    "tsv 5 8\n";
const char* kDesignB =
    "structure 2.5 0.1 BCB\n"
    "tsv 0 0\n"
    "tsv 8 6\n"
    "tsv 16 0\n"
    "tsv 0 12\n";

server::SessionSpec spec() {
  server::SessionSpec s;
  s.spacing = 1.0;
  s.margin = 5.0;
  return s;
}

constexpr int kSteps = 8;
constexpr std::uint32_t kNoParked = 0xffffffffu;

/// One step of a session's scripted workload: jitter moves with an
/// add/remove cycle mixed in (`parked` carries the added slot id between
/// steps). `phase` staggers the two sessions' deltas so their fields
/// differ. Returns the full total field after the batch — the value the
/// bitwise comparison locks.
std::vector<num::SymTensor2> run_step(server::SessionManager& manager,
                                      const std::string& name, int step,
                                      double phase, std::uint32_t& parked) {
  server::SessionManager::Guard guard = manager.use(name);
  core::IncrementalEngine& engine = guard.engine();
  const double jitter = 0.1 * static_cast<double>(step + 1) + phase;
  core::Delta delta;
  if (step % 3 == 2) {
    if (parked != kNoParked) {
      delta.push_back(core::EcoOp::remove(parked));
      parked = kNoParked;
    } else {
      // New slot ids are allocated sequentially at the end of the table.
      parked = static_cast<std::uint32_t>(engine.slot_count());
      delta.push_back(core::EcoOp::add({-4.0 - jitter, -4.0}));
    }
  } else {
    delta.push_back(core::EcoOp::move(0, {jitter, jitter}));
  }
  engine.apply(delta);
  guard.count_eco(delta.size());
  return engine.total_field();
}

std::vector<std::vector<num::SymTensor2>> run_script(
    server::SessionManager& manager, const std::string& name, double phase) {
  std::vector<std::vector<num::SymTensor2>> fields;
  std::uint32_t parked = kNoParked;
  for (int step = 0; step < kSteps; ++step)
    fields.push_back(run_step(manager, name, step, phase, parked));
  return fields;
}

void expect_bitwise_equal(
    const std::vector<std::vector<num::SymTensor2>>& a,
    const std::vector<std::vector<num::SymTensor2>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t step = 0; step < a.size(); ++step) {
    ASSERT_EQ(a[step].size(), b[step].size()) << "step " << step;
    EXPECT_EQ(std::memcmp(a[step].data(), b[step].data(),
                          a[step].size() * sizeof(num::SymTensor2)),
              0)
        << "fields diverge at step " << step;
  }
}

TEST(ServerConcurrent, ParallelSessionsMatchSerialIsolationBitwise) {
  // Serial reference: each session runs its whole script alone.
  server::SessionManager serial(testutil::scratch_dir("serial"), {});
  serial.open("a", placement_from(kDesignA), spec());
  serial.open("b", placement_from(kDesignB), spec());
  const auto ref_a = run_script(serial, "a", 0.0);
  const auto ref_b = run_script(serial, "b", 0.05);

  // Concurrent run: both scripts at once, plus a stats hammer to exercise
  // the counters/summary locking while engines are busy.
  server::SessionManager concurrent(testutil::scratch_dir("concurrent"), {});
  concurrent.open("a", placement_from(kDesignA), spec());
  concurrent.open("b", placement_from(kDesignB), spec());
  std::vector<std::vector<num::SymTensor2>> got_a;
  std::vector<std::vector<num::SymTensor2>> got_b;
  std::atomic<bool> done{false};
  std::thread ta([&] { got_a = run_script(concurrent, "a", 0.0); });
  std::thread tb([&] { got_b = run_script(concurrent, "b", 0.05); });
  std::thread ts([&] {
    std::uint64_t polls = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const server::ManagerStats st = concurrent.stats();
      EXPECT_LE(st.resident_sessions, 2u);
      ++polls;
    }
    EXPECT_GT(polls, 0u);
  });
  ta.join();
  tb.join();
  done.store(true);
  ts.join();

  expect_bitwise_equal(ref_a, got_a);
  expect_bitwise_equal(ref_b, got_b);

  const server::ManagerStats st = concurrent.stats();
  ASSERT_EQ(st.sessions.size(), 2u);
  for (const server::SessionStats& s : st.sessions)
    EXPECT_EQ(s.counters.edits, static_cast<std::uint64_t>(kSteps)) << s.name;
}

TEST(ServerConcurrent, EvictionPingPongDoesNotPerturbResults) {
  // Interleave the two scripts step by step under a global budget that only
  // fits one resident session, so every step forces a snapshot eviction of
  // the peer and a transparent reload. Results must still match the
  // unlimited serial runs bitwise. (Interleaved on one thread on purpose:
  // with both sessions *simultaneously* busy and no idle victim, admission
  // correctly refuses the reload rather than evicting a busy session.)
  server::SessionManager serial(testutil::scratch_dir("pp_serial"), {});
  serial.open("a", placement_from(kDesignA), spec());
  serial.open("b", placement_from(kDesignB), spec());
  const auto ref_a = run_script(serial, "a", 0.0);
  const auto ref_b = run_script(serial, "b", 0.05);
  const std::uint64_t largest = [&] {
    std::uint64_t m = 0;
    for (const server::SessionStats& s : serial.stats().sessions)
      m = std::max(m, s.estimated_bytes);
    return m;
  }();

  server::SessionLimits limits;
  limits.global_budget_bytes = largest + largest / 4;
  server::SessionManager tight(testutil::scratch_dir("pp_tight"), limits);
  tight.open("a", placement_from(kDesignA), spec());
  tight.open("b", placement_from(kDesignB), spec());
  std::vector<std::vector<num::SymTensor2>> got_a;
  std::vector<std::vector<num::SymTensor2>> got_b;
  std::uint32_t parked_a = kNoParked;
  std::uint32_t parked_b = kNoParked;
  for (int step = 0; step < kSteps; ++step) {
    got_a.push_back(run_step(tight, "a", step, 0.0, parked_a));
    got_b.push_back(run_step(tight, "b", step, 0.05, parked_b));
  }

  expect_bitwise_equal(ref_a, got_a);
  expect_bitwise_equal(ref_b, got_b);
  const server::ManagerStats st = tight.stats();
  EXPECT_GE(st.reloads, 2u * kSteps - 2u);
  EXPECT_GE(st.evictions, 2u * kSteps - 2u);
}

}  // namespace

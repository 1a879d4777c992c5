#pragma once
// Test-only fault-injection points. Production code calls
// fault::should_fire(site) at the places where the fault-tolerance layer
// promises recovery; the call is a single relaxed atomic load unless a test
// armed the site, so leaving the hooks compiled in costs nothing
// measurable. Tests arm a site for its Nth upcoming hit, run the scenario,
// and assert that the recovery path actually triggered:
//
//   fault::arm(fault::Site::kCgPoisonNan, 3);   // poison the 3rd iteration
//   const auto sol = fem::solve_thermo_elastic(...);
//   EXPECT_TRUE(sol.report.fallback_used);
//   fault::disarm_all();
//
// A site fires exactly once per arm() and then disarms itself, so a
// recovery retry of the same code path (e.g. the snapshot re-save after a
// failed write) runs clean. The registry is process-global and atomic;
// tests that arm sites must not run concurrently with each other.

#include <atomic>
#include <cstdint>

namespace tsv::fault {

enum class Site : int {
  /// numeric/cg.cc: poison the CG iterate and residual with NaN at the
  /// armed iteration, exercising the NaN guard + solver fallback chain.
  kCgPoisonNan = 0,
  /// io/atomic_file.cc: the armed atomic_write_file call writes a partial
  /// temp file and fails, exercising write-crash atomicity; an armed
  /// append_file call writes part of its record and fails, leaving the
  /// torn tail the checkpoint log reader must cut off.
  kSnapshotWriteFail,
  /// io/snapshot.cc: truncate the checkpoint file right after a successful
  /// save, simulating a torn write discovered at resume time.
  kCheckpointTruncate,
  /// io/snapshot.cc: flip one payload byte of a surrogate snapshot right
  /// after a successful save, simulating bit rot the checksum must catch at
  /// load time (graceful degradation to the series path, not a crash).
  kSurrogateCorrupt,
  /// io/journal.cc: the armed journal append fails before writing any
  /// bytes (disk full / EIO), exercising the snapshot-fallback durability
  /// path in SessionManager.
  kJournalWriteFail,
  /// io/journal.cc: the armed journal append writes roughly half the
  /// record, then fails — a torn tail that recovery must cut back to the
  /// last complete record, loudly.
  kJournalTornTail,
  /// server/session_manager.cc: _exit(137) immediately after the journal
  /// append of the armed eco batch — the ack was never sent, the journal
  /// holds the batch. Crash recovery must replay it exactly once (the
  /// kill-via-fork chaos test).
  kEcoKillAfterJournal,
  kSiteCount_,  ///< sentinel, keep last
};

inline const char* to_string(Site s) {
  switch (s) {
    case Site::kCgPoisonNan:
      return "cg-poison-nan";
    case Site::kSnapshotWriteFail:
      return "snapshot-write-fail";
    case Site::kCheckpointTruncate:
      return "checkpoint-truncate";
    case Site::kSurrogateCorrupt:
      return "surrogate-corrupt";
    case Site::kJournalWriteFail:
      return "journal-write-fail";
    case Site::kJournalTornTail:
      return "journal-torn-tail";
    case Site::kEcoKillAfterJournal:
      return "eco-kill-after-journal";
    case Site::kSiteCount_:
      break;
  }
  return "unknown";
}

namespace detail {

struct SiteState {
  /// Hits remaining until the site fires; negative = disarmed.
  std::atomic<std::int64_t> countdown{-1};
  std::atomic<std::uint64_t> fired{0};
};

inline SiteState& state(Site s) {
  static SiteState states[static_cast<int>(Site::kSiteCount_)];
  return states[static_cast<int>(s)];
}

}  // namespace detail

/// Arms `site` to fire on its `nth_hit`-th upcoming should_fire() call
/// (1 = the very next hit). Re-arming overwrites the previous countdown.
inline void arm(Site site, std::uint64_t nth_hit = 1) {
  detail::state(site).countdown.store(static_cast<std::int64_t>(nth_hit),
                                      std::memory_order_relaxed);
}

inline void disarm(Site site) {
  detail::state(site).countdown.store(-1, std::memory_order_relaxed);
}

inline void disarm_all() {
  for (int i = 0; i < static_cast<int>(Site::kSiteCount_); ++i)
    disarm(static_cast<Site>(i));
}

/// Production-side hook: true exactly once, on the armed hit; the site then
/// disarms itself. Disarmed sites cost one relaxed load.
inline bool should_fire(Site site) {
  detail::SiteState& st = detail::state(site);
  if (st.countdown.load(std::memory_order_relaxed) < 0) return false;
  const std::int64_t prev =
      st.countdown.fetch_sub(1, std::memory_order_relaxed);
  if (prev == 1) {
    st.fired.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

/// How many times `site` has fired since process start (test assertions).
inline std::uint64_t fired_count(Site site) {
  return detail::state(site).fired.load(std::memory_order_relaxed);
}

}  // namespace tsv::fault

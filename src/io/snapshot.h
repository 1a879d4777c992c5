#pragma once
// Versioned, checksummed binary snapshots for the framework's expensive
// state: characterized tables, placements, and the incremental engine.
//
// Cold starts pay for every radial-table characterization and every
// Stage-II pair-table build; in an ECO loop (bench_eco) or a long-lived
// service those are pure re-derivations of state that never changes. A
// snapshot lets a warm start skip them entirely: save once, load in
// milliseconds.
//
// File layout (all integers and IEEE doubles in native little-endian byte
// order, written raw):
//
//   bytes 0..7   magic "TSVSNAP\0"
//   u32          format version (kSnapshotVersion)
//   u32          object kind (SnapshotKind)
//   u64          payload size in bytes
//   ...          payload
//   u64          FNV-1a 64 checksum of the payload
//
// Readers reject wrong magic, wrong version, wrong kind, truncation, and
// checksum mismatches with distinct std::runtime_error messages. Doubles
// are stored bitwise, so save -> load -> save round-trips byte-identically
// (std::map iteration makes the pair-cache export order deterministic).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analytic/interaction.h"
#include "analytic/surrogate.h"
#include "core/incremental_engine.h"
#include "core/stress_table.h"
#include "core/tiled_evaluator.h"
#include "tsv/placement.h"

namespace tsv::io {

// Version 2: engine-state snapshots gained an optional embedded surrogate
// section (has_surrogate byte + coefficients/certificate), so warm starts
// skip the ~40 ms fit as well as the table builds. Version-1 files still
// load — their engine-state payload simply ends at the pair tables, so the
// restored model has no surrogate and callers re-fit on demand — and the
// next save writes the current version (the upgrade path). Versions
// outside [kMinSnapshotVersion, kSnapshotVersion] are rejected with a
// clear mismatch error.
//
// Version 3: (a) pair-table samples are stored as float32 SoA — the
// table's native storage tier — shrinking pair-table-cache and
// engine-state payloads ~6x for that section (v1/v2 payloads still load;
// their f64 tensors are narrowed into the float tier on read, and the
// next save writes v3); (b) engine-state options gained the Stage II
// far-field fields (use_far_field, tolerance, FarFieldOptions), absent
// and defaulted in older payloads. Reads go through a memory-mapped view
// (io/mapped_file.h) instead of double-buffering the file in the heap.
// Fields that remain f64 (engine stage fields, radial table, surrogate
// coefficients) still round-trip bitwise.
//
// Version 4: engine-state options drop the far-field block again (the
// aggregate was removed). v3 payloads still load — the block is read and
// discarded — except one saved with use_far_field set, which is refused
// with an IoCorruptionError: its Stage II field carries tile error that
// exact ECO deltas would silently mix with.
inline constexpr std::uint32_t kSnapshotVersion = 4;
inline constexpr std::uint32_t kMinSnapshotVersion = 1;

enum class SnapshotKind : std::uint32_t {
  kRadialTable = 1,
  kPairTableCache = 2,
  kPlacement = 3,
  kEngineState = 4,
  kSurrogate = 6,
  /// One record of a tiled checkpoint log (see save_tiled_checkpoint).
  /// Kind 5 was the whole-file checkpoint written before the log; such
  /// files no longer load, so their run restarts from tile 0.
  kTiledCheckpoint = 7,
};

const char* to_string(SnapshotKind kind);

/// Parsed header of a snapshot file (payload checksum already verified).
struct SnapshotInfo {
  std::uint32_t version = 0;
  SnapshotKind kind = SnapshotKind::kRadialTable;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
};

/// Reads and validates a snapshot header + checksum without decoding the
/// payload (any kind). Throws std::runtime_error on malformed files.
SnapshotInfo read_snapshot_info(const std::string& path);

// --- Stage-I radial table ------------------------------------------------

void save_radial_table(const std::string& path,
                       const core::RadialStressTable& table);
core::RadialStressTable load_radial_table(const std::string& path);

// --- Stage-II pair-table cache -------------------------------------------

/// Saves every PairStressTable cached on `model` (the pitch-quantized
/// Stage-II cache). Returns the number of tables written.
std::size_t save_pair_table_cache(const std::string& path,
                                  const ana::InteractiveStressModel& model);

/// Pre-warms `model`'s table cache from a snapshot; returns the number of
/// tables inserted (existing entries win on collision).
std::size_t load_pair_table_cache(const std::string& path,
                                  const ana::InteractiveStressModel& model);

// --- Stage-II certified surrogate ----------------------------------------

/// Saves a fitted surrogate — coefficients plus its SurrogateCertificate —
/// so warm starts skip the fit *and* the certification (the certificate is
/// the recorded verification, protected by the payload checksum).
void save_surrogate(const std::string& path,
                    const ana::PairSurrogate& surrogate);

/// Loads a surrogate snapshot; bitwise the saved one (coefficients and
/// certificate alike). Throws IoCorruptionError on damage.
ana::PairSurrogate load_surrogate(const std::string& path);

/// Best-effort load: nullopt when the file is missing, truncated, corrupt,
/// or not a surrogate — all cases where the right recovery is to keep the
/// exact series path (and optionally re-fit).
std::optional<ana::PairSurrogate> try_load_surrogate(const std::string& path);

// --- Placements ----------------------------------------------------------

void save_placement(const std::string& path, const tsvlib::Placement& p);
tsvlib::Placement load_placement(const std::string& path);

/// In-memory equivalents of save/load_placement: the same payload bytes
/// (structure + bitwise f64 centers) without the file header. The eco
/// journal's open record embeds these so a session can be rebuilt exactly —
/// placement *text* round-trips at print precision, these round-trip bits.
std::string encode_placement(const tsvlib::Placement& p);
tsvlib::Placement decode_placement(const std::string& bytes);

// --- Incremental engine --------------------------------------------------

/// Saves the full warm state of an engine: placement slots, options, both
/// accumulated fields, the Stage-I radial table, the Stage-II model
/// characterization settings (k_hat + response options), every cached
/// pair table, and — when one is attached to the model — the fitted
/// certified surrogate (bitwise, certificate included). Requires the
/// engine's single-TSV field to be a RadialStressTable (throws
/// std::invalid_argument otherwise). Returns the payload checksum, which
/// the eco journal records in its anchor so replay can tell whether a
/// journal suffix is already folded into the on-disk snapshot.
std::uint64_t save_engine_state(const std::string& path,
                                const core::IncrementalEngine& engine);

/// Writes an engine snapshot in an OLDER format version's exact layout
/// (f64 pair tables and no surrogate section for v1, the far-field option
/// block at its defaults with the flag off for v3), stamped with that
/// version. Exists so downgrade interop and the version-upgrade tests
/// exercise the real old layouts instead of re-stamped current payloads. Throws std::invalid_argument
/// outside [kMinSnapshotVersion, kSnapshotVersion].
std::uint64_t save_engine_state_compat(const std::string& path,
                                       const core::IncrementalEngine& engine,
                                       std::uint32_t version);

/// Rebuilds an engine from a snapshot without re-evaluating anything: the
/// radial table is decoded, the interactive model is re-characterized from
/// the stored structure/options and its pair-table cache warmed from the
/// stored tables, and the accumulated fields are restored verbatim.
core::IncrementalEngine load_engine_state(const std::string& path);

// --- Tiled-run checkpoints -----------------------------------------------
//
// A checkpoint file is an append-only log of records. Each record is one
// frame of the layout above, of kind kTiledCheckpoint, whose payload holds
//
//   u64  run fingerprint
//   u64  first tile of the record
//   u64  number of tiles in the record
//   u64  n, then n stress tensors (3 doubles each, in tile order)
//   u64  m, then m Stage II tensors (m = 0 or n)
//
// and each record continues the previous one: same fingerprint, first tile
// = the tiles before it. A record carries its own checksum (FNV-1a's step
// applied per 8-byte word instead of per byte, for speed), so a torn or
// damaged one ends the log and the records before it still load.

/// Writes a fresh one-record checkpoint holding all of `cp`, atomically
/// (temp file + rename).
void save_tiled_checkpoint(const std::string& path,
                           const core::TiledCheckpoint& cp);

/// Concatenates the records of a checkpoint log up to the first torn or bad
/// one. Throws IoCorruptionError when not even the first record is whole
/// (InvalidInputError when the file cannot be opened).
core::TiledCheckpoint load_tiled_checkpoint(const std::string& path);

/// Best-effort load for resume: returns nullopt (instead of throwing) when
/// the file is missing, has no whole record, or is not a checkpoint — all
/// cases where the right recovery is to start the run from scratch.
std::optional<core::TiledCheckpoint> try_load_tiled_checkpoint(
    const std::string& path);

/// Runs `evaluator.evaluate(grid, consume)` with crash resilience: resumes
/// from `checkpoint_path` when a usable checkpoint with a matching
/// fingerprint exists (stale/corrupt ones are ignored), checkpoints every
/// `every_tiles` computed tiles, and removes the file once the run
/// completes. The first write of a run, and the first after a failed one,
/// writes the file whole; every other write appends one record with the
/// tiles finished since the last write. Interrupt-and-rerun therefore
/// streams the exact tiles an uninterrupted run would have.
core::TiledStats evaluate_with_checkpoint(const core::TiledEvaluator& evaluator,
                                          const geo::SampleGrid& grid,
                                          const core::TileConsumer& consume,
                                          const std::string& checkpoint_path,
                                          std::size_t every_tiles = 16);

}  // namespace tsv::io

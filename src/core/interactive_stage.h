#pragma once
// Stage II of Algorithm 1: interactive stress of nearby TSV pairs.
//
// A pair (victim, aggressor) contributes at a simulation point when
//   1) the pair pitch is below `pair_pitch_cutoff`, and
//   2) the victim lies within `influence_radius` of the point
// (both 25 um in the paper). Each unordered pair is processed in two rounds
// with the roles exchanged, exactly as in Sec. 4.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "analytic/interaction.h"
#include "geometry/grid_index.h"
#include "tsv/placement.h"

namespace tsv::core {

struct InteractiveOptions {
  double pair_pitch_cutoff = 25.0;  ///< um
  double influence_radius = 25.0;   ///< um, victim to simulation point
  /// Evaluate pairs through a cached polar look-up table instead of the
  /// potential series: ~10x cheaper per point at ~1% field accuracy.
  /// Recommended for full-chip runs; off by default so the accuracy
  /// benches exercise the exact series.
  bool use_lookup_table = false;
  /// Pitch quantization step (um) for the look-up-table cache: pairs whose
  /// pitch snaps to the same multiple of the step share one table, so a
  /// full-chip design costs ~(pitch range / step) table builds instead of
  /// one per unique pitch. 0 = exact-pitch tables (every unique pitch
  /// builds its own). Only meaningful with use_lookup_table; 0.25 um stays
  /// within the table's ~1% interpolation budget (see test_quantized_cache).
  double pitch_quant_step = 0.0;
  /// Use a certified Chebyshev surrogate (analytic/surrogate.h) attached to
  /// the model for the Stage II batch path when available. The surrogate is
  /// only consulted if its certificate attests a verified relative field
  /// error <= `surrogate_tolerance` and its fitted radius covers
  /// `influence_radius`; pairs whose pitch falls outside the fitted domain
  /// fall back to the table/series paths per pair (counter-tracked on the
  /// surrogate). With no surrogate attached this flag is inert, so default
  /// behavior is unchanged. Set false to force the exact paths even when a
  /// certified surrogate is attached.
  bool allow_surrogate = true;
  /// Maximum certified relative field error accepted from an attached
  /// surrogate (gates on SurrogateCertificate::certified_rel_bound).
  double surrogate_tolerance = 1e-6;
  /// Threads for the batched evaluate: 0 = hardware concurrency, 1 = serial
  /// (the default baseline path). Pairs are chunked statically; each chunk
  /// accumulates into a private output buffer and the partials merge in
  /// chunk index order, so results are deterministic for a fixed thread
  /// count but can differ from the serial sum by floating-point regrouping
  /// (<= ~1e-12 relative; the determinism tests pin this down).
  std::size_t num_threads = 1;
};

class InteractiveStage {
 public:
  InteractiveStage(const tsvlib::Placement& placement,
                   std::shared_ptr<const ana::InteractiveStressModel> model,
                   const InteractiveOptions& options = {});

  const InteractiveOptions& options() const { return options_; }
  const ana::InteractiveStressModel& model() const { return *model_; }

  /// Interactive stress at one point (enumerates nearby ordered pairs).
  num::SymTensor2 stress_at(const geo::Point& p) const;

  /// Interactive stress at many points. Organized pair-outer so that the
  /// combined response per pair is built once and reused for all affected
  /// points (a point GridIndex accelerates the lookup; it is cached keyed
  /// on the point set, so repeated sweeps over the same points — pitch
  /// sweeps, LS-vs-PF comparisons — build it once). Pair-parallel over
  /// options().num_threads workers: `out[n] +=` across pairs would race,
  /// so each worker owns a private buffer (see InteractiveOptions).
  std::vector<num::SymTensor2> evaluate(
      const std::vector<geo::Point>& points) const;

  /// Tile variant for streaming full-chip sweeps: `points` must lie inside
  /// `bounds`, and only pairs whose victim can reach `bounds` (distance to
  /// the box <= influence_radius) are enumerated — for a small tile of a
  /// large chip that culls almost all pairs. Builds a throwaway point index
  /// (tile-sized, cheap) instead of touching the point-index cache.
  std::vector<num::SymTensor2> evaluate(const std::vector<geo::Point>& points,
                                        const geo::Box& bounds) const;

  /// Like the tile variant, but over a caller-supplied pair list (e.g. the
  /// one the tiled evaluator already enumerated for its statistics) so the
  /// pairs are not re-derived. Builds the same throwaway point index as the
  /// tile variant; results are identical to evaluate(points, bounds) when
  /// `pairs` == ordered_pairs_near(bounds).
  std::vector<num::SymTensor2> evaluate_with_pairs(
      const std::vector<geo::Point>& points,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs)
      const;

  /// Ordered victim/aggressor pairs within the pitch cutoff.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ordered_pairs() const;

  /// Ordered pairs whose victim lies within influence_radius of `region`
  /// (the pairs that can contribute to any point inside it).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ordered_pairs_near(
      const geo::Box& region) const;

 private:
  std::vector<num::SymTensor2> evaluate_pairs(
      const std::vector<geo::Point>& points,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
      const geo::GridIndex& point_index) const;

  /// Cached point index, keyed on a fingerprint of the point set. The
  /// fingerprint is a content hash (FNV-1a over the raw coordinate bytes)
  /// plus the point count — NOT the vector's identity — so mutating a point
  /// buffer in place (even to an equal length) changes the key and rebuilds
  /// the index; callers never observe a stale index for edited coordinates
  /// (test_interactive_stage locks this down). The only theoretical
  /// staleness is a 64-bit hash collision between two different point sets
  /// of equal size.
  std::shared_ptr<const geo::GridIndex> point_index_for(
      const std::vector<geo::Point>& points) const;

  tsvlib::Placement placement_;
  std::shared_ptr<const ana::InteractiveStressModel> model_;
  InteractiveOptions options_;
  geo::GridIndex tsv_index_;
  /// Guards the point-index cache (evaluate is const and may run from
  /// several threads).
  mutable std::mutex point_cache_mutex_;
  mutable std::uint64_t point_cache_fingerprint_ = 0;
  mutable std::shared_ptr<const geo::GridIndex> point_index_cache_;
};

}  // namespace tsv::core

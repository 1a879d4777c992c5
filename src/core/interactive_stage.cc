#include "core/interactive_stage.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analytic/surrogate.h"
#include "numeric/kernels.h"
#include "numeric/parallel.h"

namespace tsv::core {
namespace {

geo::Box index_bounds(const tsvlib::Placement& p) {
  return p.empty() ? geo::Box{{0.0, 0.0}, {1.0, 1.0}} : p.bounding_box();
}

/// FNV-1a over the raw coordinate bytes. One pass over the points is far
/// cheaper than rebuilding the GridIndex (counting sort + allocations), and
/// a 64-bit digest plus the size check makes accidental collisions across
/// sweep iterations vanishingly unlikely.
std::uint64_t fingerprint_points(const std::vector<geo::Point>& points) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  for (const geo::Point& p : points) {
    mix(p.x);
    mix(p.y);
  }
  return h;
}

/// "No victim yet" marker of the victim cache in evaluate_pairs (placements
/// index their TSVs below this).
constexpr std::uint32_t kNoVictim = std::numeric_limits<std::uint32_t>::max();

/// Pairs per window of the threaded pair loop: a few hundred microseconds
/// of kernel work, so a stalled thread holds up little and the parked
/// windows of a chunk stay a few hundred KB each.
constexpr std::size_t kPairWindow = 32;

/// Per-pair working set of evaluate_pairs: the victim's points (cached
/// while the victim repeats) and one pair's weighted contributions.
struct PairScratch {
  std::vector<std::uint32_t> affected;
  std::vector<geo::Point> gathered;
  std::vector<num::SymTensor2> contrib;
  std::uint32_t last_victim = kNoVictim;
};

/// A window of pairs computed ahead of its turn: every pair's (point,
/// contribution) entries in pair order, added to the chunk's field later.
struct PairWindow {
  PairScratch scratch;
  std::vector<std::uint32_t> index;
  std::vector<num::SymTensor2> value;
};

/// Distance from a point to a closed axis-aligned box (0 inside).
double distance_to_box(const geo::Point& p, const geo::Box& box) {
  const double dx = std::max({box.lo.x - p.x, 0.0, p.x - box.hi.x});
  const double dy = std::max({box.lo.y - p.y, 0.0, p.y - box.hi.y});
  return std::hypot(dx, dy);
}

}  // namespace

InteractiveStage::InteractiveStage(
    const tsvlib::Placement& placement,
    std::shared_ptr<const ana::InteractiveStressModel> model,
    const InteractiveOptions& options)
    : placement_(placement),
      model_(std::move(model)),
      options_(options),
      tsv_index_(placement.centers(), index_bounds(placement),
                 std::max(options.pair_pitch_cutoff / 2.0, 1.0)) {
  TSV_REQUIRE(model_ != nullptr, "null interactive model");
  TSV_REQUIRE(options_.pair_pitch_cutoff > 0.0 &&
                  options_.influence_radius > 0.0,
              "cutoffs must be positive");
  TSV_REQUIRE(options_.pitch_quant_step >= 0.0,
              "negative pitch quantization step");
}

num::SymTensor2 InteractiveStage::stress_at(const geo::Point& p) const {
  const auto& centers = placement_.centers();
  num::KernelScratch& scratch = num::tls_kernel_scratch();
  std::vector<std::uint32_t>& victims = scratch.idx;
  std::vector<std::uint32_t>& aggressors = scratch.idx2;
  tsv_index_.query_radius(p, options_.influence_radius, victims);
  num::SymTensor2 sum;
  for (const std::uint32_t v : victims) {
    tsv_index_.query_radius(centers[v], options_.pair_pitch_cutoff,
                            aggressors);
    for (const std::uint32_t a : aggressors) {
      if (a == v) continue;
      sum += model_->stress_at(centers[v], centers[a], p);
    }
  }
  return sum;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
InteractiveStage::ordered_pairs() const {
  const auto& centers = placement_.centers();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::vector<std::uint32_t> nearby;
  for (std::uint32_t v = 0; v < centers.size(); ++v) {
    tsv_index_.query_radius(centers[v], options_.pair_pitch_cutoff, nearby);
    for (const std::uint32_t a : nearby) {
      if (a != v) pairs.emplace_back(v, a);
    }
  }
  return pairs;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
InteractiveStage::ordered_pairs_near(const geo::Box& region) const {
  const auto& centers = placement_.centers();
  // Over-query a disc covering the region plus the influence halo, then
  // keep the victims whose true box distance is within the radius.
  const double reach = options_.influence_radius;
  const double half_diag =
      std::hypot(region.width(), region.height()) / 2.0;
  std::vector<std::uint32_t> candidates;
  tsv_index_.query_radius(region.center(), half_diag + reach, candidates);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::vector<std::uint32_t> nearby;
  for (const std::uint32_t v : candidates) {
    if (distance_to_box(centers[v], region) > reach) continue;
    tsv_index_.query_radius(centers[v], options_.pair_pitch_cutoff, nearby);
    for (const std::uint32_t a : nearby) {
      if (a != v) pairs.emplace_back(v, a);
    }
  }
  return pairs;
}

std::shared_ptr<const geo::GridIndex> InteractiveStage::point_index_for(
    const std::vector<geo::Point>& points) const {
  const std::uint64_t fp = fingerprint_points(points);
  {
    const std::lock_guard<std::mutex> lock(point_cache_mutex_);
    if (point_index_cache_ != nullptr &&
        point_index_cache_->size() == points.size() &&
        point_cache_fingerprint_ == fp) {
      return point_index_cache_;
    }
  }
  // The hull is inclusive on every edge, so points exactly on the boundary
  // stay indexed.
  auto index = std::make_shared<const geo::GridIndex>(
      points, geo::Box::bounding(points),
      std::max(options_.influence_radius / 2.0, 1.0));
  const std::lock_guard<std::mutex> lock(point_cache_mutex_);
  point_cache_fingerprint_ = fp;
  point_index_cache_ = index;
  return index;
}

std::vector<num::SymTensor2> InteractiveStage::evaluate(
    const std::vector<geo::Point>& points) const {
  if (placement_.size() < 2 || points.empty())
    return std::vector<num::SymTensor2>(points.size());
  const std::shared_ptr<const geo::GridIndex> index = point_index_for(points);
  return evaluate_pairs(points, ordered_pairs(), *index);
}

std::vector<num::SymTensor2> InteractiveStage::evaluate(
    const std::vector<geo::Point>& points, const geo::Box& bounds) const {
  if (placement_.size() < 2 || points.empty())
    return std::vector<num::SymTensor2>(points.size());
  return evaluate_with_pairs(points, ordered_pairs_near(bounds));
}

std::vector<num::SymTensor2> InteractiveStage::evaluate_with_pairs(
    const std::vector<geo::Point>& points,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) const {
  if (placement_.size() < 2 || points.empty())
    return std::vector<num::SymTensor2>(points.size());
  const geo::GridIndex index(points, geo::Box::bounding(points),
                             std::max(options_.influence_radius / 2.0, 1.0));
  return evaluate_pairs(points, pairs, index);
}

std::vector<num::SymTensor2> InteractiveStage::evaluate_pairs(
    const std::vector<geo::Point>& points,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
    const geo::GridIndex& point_index) const {
  const auto& centers = placement_.centers();
  // Surrogate fast path, hoisted out of the pair loop: one certificate and
  // coverage check per evaluate, then a per-pair pitch gate inside
  // try_accumulate. nullptr when disabled, absent, over-tolerance, or
  // fitted short of the influence radius.
  const std::shared_ptr<const ana::PairSurrogate> surrogate =
      options_.allow_surrogate
          ? model_->surrogate_for(options_.surrogate_tolerance,
                                  options_.influence_radius)
          : nullptr;
  // One pair's contributions to the victim's points, so that folding a
  // pair into a field is a plain add per point. The point query and the
  // gather depend on the victim only, and pair lists come grouped by
  // victim, so they are redone only when the victim changes.
  const bool gather = surrogate != nullptr || options_.use_lookup_table;
  const auto compute_pair = [&](std::size_t k, PairScratch& s) {
    const auto [v, a] = pairs[k];
    const geo::Point& victim = centers[v];
    const geo::Point& aggressor = centers[a];
    if (v != s.last_victim) {
      s.last_victim = v;
      point_index.query_radius(victim, options_.influence_radius, s.affected);
      if (gather) {
        s.gathered.resize(s.affected.size());
        for (std::size_t j = 0; j < s.affected.size(); ++j)
          s.gathered[j] = points[s.affected[j]];
      }
    }
    const std::size_t m = s.affected.size();
    s.contrib.assign(m, num::SymTensor2{});
    // Out-of-domain pitches fall through to the table or the series.
    if (surrogate == nullptr ||
        !surrogate->try_accumulate(victim, aggressor, s.gathered.data(), m,
                                   s.contrib.data())) {
      const double pitch = geo::distance(victim, aggressor);
      if (options_.use_lookup_table) {
        const ana::PairStressTable& table = model_->table_for_pitch(
            pitch, options_.influence_radius, options_.pitch_quant_step);
        // Batch path: the flat kernel over the victim's gathered points
        // (beta hoisted once for this pair).
        s.contrib.assign(m, num::SymTensor2{});
        table.accumulate(victim, aggressor, s.gathered.data(), m,
                         s.contrib.data());
      } else {
        const ana::RegionField& combined = model_->combined_for_pitch(pitch);
        for (std::size_t j = 0; j < m; ++j)
          s.contrib[j] = model_->stress_with_combined(
              combined, victim, aggressor, pitch, points[s.affected[j]]);
      }
    }
  };

  // Pair-parallel: every chunk of pairs accumulates into its own private
  // buffer (writing `out[n] +=` across chunks would race), and the partial
  // fields merge in chunk index order afterwards, so each point's sum has
  // one fixed order for a given thread count. The pairs of a chunk are
  // computed in windows on any free thread and added in pair order (see
  // parallel_reduce_windowed). With one chunk this is the exact serial pair
  // loop, which adds each pair directly: staging it through a window
  // measured up to a third slower on the serial 10k-TSV map.
  std::vector<num::SymTensor2> out;
  if (num::reduce_chunk_count(pairs.size(), options_.num_threads) <= 1) {
    out.assign(points.size(), num::SymTensor2{});
    PairScratch s;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      compute_pair(k, s);
      for (std::size_t j = 0; j < s.affected.size(); ++j)
        out[s.affected[j]] += s.contrib[j];
    }
  } else {
    out = num::parallel_reduce_windowed<std::vector<num::SymTensor2>,
                                        PairWindow>(
        pairs.size(), options_.num_threads, kPairWindow,
        [&] { return std::vector<num::SymTensor2>(points.size()); },
        [&](std::size_t begin, std::size_t end, PairWindow& w) {
          w.scratch.last_victim = kNoVictim;
          w.index.clear();
          w.value.clear();
          for (std::size_t k = begin; k < end; ++k) {
            compute_pair(k, w.scratch);
            w.index.insert(w.index.end(), w.scratch.affected.begin(),
                           w.scratch.affected.end());
            w.value.insert(w.value.end(), w.scratch.contrib.begin(),
                           w.scratch.contrib.end());
          }
        },
        [](std::vector<num::SymTensor2>& part, const PairWindow& w) {
          for (std::size_t j = 0; j < w.index.size(); ++j)
            part[w.index[j]] += w.value[j];
        },
        [](std::vector<num::SymTensor2>& total,
           const std::vector<num::SymTensor2>& part) {
          for (std::size_t n = 0; n < total.size(); ++n) total[n] += part[n];
        });
  }
  return out;
}

}  // namespace tsv::core

#include "core/superposition.h"

#include "numeric/kernels.h"
#include "numeric/parallel.h"

namespace tsv::core {
namespace {

/// Points per block of the threaded evaluate: a fraction of a millisecond
/// of work, dozens of blocks per full-chip tile.
constexpr std::size_t kPointBlock = 1024;

geo::Box index_bounds(const tsvlib::Placement& p) {
  return p.empty() ? geo::Box{{0.0, 0.0}, {1.0, 1.0}} : p.bounding_box();
}

}  // namespace

LinearSuperposition::LinearSuperposition(
    const tsvlib::Placement& placement,
    std::shared_ptr<const SingleTsvField> table,
    const SuperpositionOptions& options)
    : placement_(placement),
      table_(std::move(table)),
      options_(options),
      index_(placement.centers(), index_bounds(placement),
             std::max(options.influence_radius / 2.0, 1.0)) {
  TSV_REQUIRE(table_ != nullptr, "null single-TSV field");
  TSV_REQUIRE(options_.influence_radius > 0.0,
              "influence radius must be positive");
}

LinearSuperposition::LinearSuperposition(const tsvlib::Placement& placement,
                                         RadialStressTable table,
                                         const SuperpositionOptions& options)
    : LinearSuperposition(
          placement,
          std::make_shared<const RadialStressTable>(std::move(table)),
          options) {}

num::SymTensor2 LinearSuperposition::stress_at(const geo::Point& p) const {
  const auto& centers = placement_.centers();
  std::vector<std::uint32_t>& nearby = num::tls_kernel_scratch().idx;
  index_.query_radius(p, options_.influence_radius, nearby);
  return table_->sum_at(p, centers.data(), nearby.data(), nearby.size());
}

std::vector<num::SymTensor2> LinearSuperposition::evaluate(
    const std::vector<geo::Point>& points) const {
  const auto& centers = placement_.centers();
  std::vector<num::SymTensor2> out(points.size());
  // Every point is summed on its own, so the blocks can be handed out to
  // whichever thread is free without changing a value.
  num::parallel_for_blocks(
      points.size(), options_.num_threads, kPointBlock,
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint32_t> nearby;
        for (std::size_t n = begin; n < end; ++n) {
          index_.query_radius(points[n], options_.influence_radius, nearby);
          out[n] = table_->sum_at(points[n], centers.data(), nearby.data(),
                                  nearby.size());
        }
      });
  return out;
}

}  // namespace tsv::core

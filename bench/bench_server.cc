// Stress-service latency/throughput bench: one in-process daemon on a Unix
// socket, one client, a warm full-chip session.
//
//   bench_server [--tsvs=N] [--spacing=X] [--density=D] [--queries=N]
//                [--edits=N] [--out-dir=PATH]
//
// Measures, against a resident (warm) session:
//   * point-query latency (one [x, y] per request) — p50/p99 and
//     sustained queries/s over the full run;
//   * ECO edit-batch latency (one single-TSV move per request) — p50/p90
//     — on two sessions — journal fsync on (the default durability contract) and
//     off — so the journal's per-batch durability overhead is measured,
//     not guessed (EXPERIMENTS.md appendix);
//   * region-window throughput (grid points returned per second).
//
// Appends a JSONL row to <out-dir>/server.jsonl (schema: bench/common.h);
// tools/check_kernel_perf.py-style guards can trend it. The run's socket
// and snapshot directory under <out-dir> carry the pid and are removed on
// exit, so concurrent runs may share an --out-dir. The session is
// opened over the wire from serialized placement text, so the measured path
// is the full protocol stack, not a shortcut into the engine.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "common.h"
#include "server/client.h"
#include "server/server.h"
#include "tsv/fullchip.h"
#include "tsv/placement_io.h"

namespace {

using namespace tsv;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Nearest-rank percentile: the smallest sample with at least p * n samples
/// at or below it. A tail rank is only meaningful with several samples
/// beyond it, hence 100 edits for a p90 (10 beyond) by default.
double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t tsvs = 1000;
  double spacing = 1.0;
  double density = 0.25e-2;
  std::size_t n_queries = 2000;
  std::size_t n_edits = 100;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--tsvs=", 0) == 0) tsvs = std::stoul(value("--tsvs="));
    else if (arg.rfind("--spacing=", 0) == 0)
      spacing = std::stod(value("--spacing="));
    else if (arg.rfind("--density=", 0) == 0)
      density = std::stod(value("--density="));
    else if (arg.rfind("--queries=", 0) == 0)
      n_queries = std::stoul(value("--queries="));
    else if (arg.rfind("--edits=", 0) == 0)
      n_edits = std::stoul(value("--edits="));
    else if (arg.rfind("--out-dir=", 0) == 0) out_dir = value("--out-dir=");
    else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    }
  }

  const tsvlib::TsvStructure structure{};
  const tsvlib::FullChipSpec spec =
      tsvlib::spec_for_count(tsvs, density, 90000 + tsvs);
  const tsvlib::FullChipDesign design = tsvlib::make_fullchip(structure, spec);
  std::ostringstream placement_text;
  tsvlib::write_placement(placement_text, design.placement);

  // The socket and snapshot directory are named per run (pid), so two runs
  // can share one --out-dir; both are removed when the run ends.
  const std::string run_tag = std::to_string(::getpid());
  const std::string socket_path =
      out_dir + "/bench_server." + run_tag + ".sock";
  const std::string snapshot_dir = out_dir + "/bench_server_snaps." + run_tag;
  struct RunFiles {
    std::string socket, snapshots;
    ~RunFiles() {
      std::error_code ec;
      std::filesystem::remove(socket, ec);
      std::filesystem::remove_all(snapshots, ec);
    }
  } run_files{socket_path, snapshot_dir};
  server::ServerOptions options;
  options.unix_path = socket_path;
  options.snapshot_dir = snapshot_dir;
  server::StressServer daemon(options);
  std::thread daemon_thread([&] { daemon.run(); });

  server::Client client = server::Client::connect_unix(socket_path);
  std::printf("daemon on %s; opening %zu-TSV session (spacing %.2g um)\n",
              daemon.endpoint().c_str(), design.placement.size(), spacing);

  const auto open_start = std::chrono::steady_clock::now();
  server::JsonValue open_req = server::Client::request("open", "bench");
  open_req.set("placement", server::JsonValue(placement_text.str()));
  open_req.set("spacing", server::JsonValue(spacing));
  const server::JsonValue opened = client.call(open_req);
  const double open_ms = ms_since(open_start);
  const auto grid_points =
      static_cast<std::size_t>(opened.at("grid_nx").as_number() *
                               opened.at("grid_ny").as_number());
  std::printf("session open (cold build): %.0f ms, %zu grid points\n",
              open_ms, grid_points);

  // Warm point queries: uniform random probes over the chip, one point per
  // request — the latency floor a placement loop would see.
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> ux(spec.chip.lo.x, spec.chip.hi.x);
  std::uniform_real_distribution<double> uy(spec.chip.lo.y, spec.chip.hi.y);
  std::vector<double> query_ms;
  query_ms.reserve(n_queries);
  const auto queries_start = std::chrono::steady_clock::now();
  for (std::size_t q = 0; q < n_queries; ++q) {
    server::JsonValue req = server::Client::request("query", "bench");
    server::JsonValue xy = server::JsonValue::array();
    xy.items().push_back(server::JsonValue(ux(rng)));
    xy.items().push_back(server::JsonValue(uy(rng)));
    server::JsonValue points = server::JsonValue::array();
    points.items().push_back(std::move(xy));
    req.set("points", std::move(points));
    const auto t0 = std::chrono::steady_clock::now();
    client.call(req);
    query_ms.push_back(ms_since(t0));
  }
  const double queries_wall_s = ms_since(queries_start) / 1000.0;
  const double queries_per_s =
      static_cast<double>(n_queries) / queries_wall_s;
  const double q_p50 = percentile(query_ms, 0.50);
  const double q_p99 = percentile(query_ms, 0.99);
  std::printf("point queries: n=%zu in %.2f s -> %.0f/s, p50 %.3f ms, "
              "p99 %.3f ms\n",
              n_queries, queries_wall_s, queries_per_s, q_p50, q_p99);

  // ECO edits: jitter one random TSV per batch (legal: +/- 0.5 um keeps the
  // min-pitch floor intact at the default 10 um pitch). Run once against
  // the default session (journal fsync on every acked batch) and once
  // against a journal_fsync=false session, so the row separates engine
  // cost from durability cost.
  std::uniform_int_distribution<std::uint32_t> pick(
      0, static_cast<std::uint32_t>(design.placement.size() - 1));
  std::uniform_real_distribution<double> jitter(-0.5, 0.5);
  const auto measure_edits = [&](const std::string& session) {
    std::vector<double> edit_ms;
    edit_ms.reserve(n_edits);
    for (std::size_t e = 0; e < n_edits; ++e) {
      const std::uint32_t id = pick(rng);
      const geo::Point c = design.placement.centers()[id];
      server::JsonValue op = server::JsonValue::object();
      op.set("op", server::JsonValue("move"));
      op.set("id", server::JsonValue(id));
      op.set("x", server::JsonValue(c.x + jitter(rng)));
      op.set("y", server::JsonValue(c.y + jitter(rng)));
      server::JsonValue ops = server::JsonValue::array();
      ops.items().push_back(std::move(op));
      server::JsonValue req = server::Client::request("eco", session);
      req.set("ops", std::move(ops));
      const auto t0 = std::chrono::steady_clock::now();
      client.call(req);
      edit_ms.push_back(ms_since(t0));
    }
    return edit_ms;
  };
  const std::vector<double> edit_ms = measure_edits("bench");
  const double e_p50 = percentile(edit_ms, 0.50);
  const double e_p90 = percentile(edit_ms, 0.90);
  std::printf("eco edits (journal fsync): n=%zu single-move batches, "
              "p50 %.2f ms, p90 %.2f ms\n",
              edit_ms.size(), e_p50, e_p90);

  server::JsonValue open_nofsync =
      server::Client::request("open", "bench_nofsync");
  open_nofsync.set("placement", server::JsonValue(placement_text.str()));
  open_nofsync.set("spacing", server::JsonValue(spacing));
  open_nofsync.set("journal_fsync", server::JsonValue(false));
  client.call(open_nofsync);
  const std::vector<double> edit_nofsync_ms = measure_edits("bench_nofsync");
  const double en_p50 = percentile(edit_nofsync_ms, 0.50);
  const double en_p90 = percentile(edit_nofsync_ms, 0.90);
  std::printf("eco edits (no fsync):      n=%zu single-move batches, "
              "p50 %.2f ms, p90 %.2f ms (journal overhead p50 %+.2f ms)\n",
              edit_nofsync_ms.size(), en_p50, en_p90, e_p50 - en_p50);
  server::JsonValue close_nofsync =
      server::Client::request("close", "bench_nofsync");
  close_nofsync.set("discard", server::JsonValue(true));
  client.call(close_nofsync);

  // Region throughput: a 100 x 100 um window per request.
  const double wx = std::min(100.0, spec.chip.width());
  const double wy = std::min(100.0, spec.chip.height());
  std::size_t region_points = 0;
  const auto region_start = std::chrono::steady_clock::now();
  constexpr std::size_t kRegionRequests = 16;
  for (std::size_t r = 0; r < kRegionRequests; ++r) {
    const double x0 = ux(rng) * (1.0 - wx / spec.chip.width());
    const double y0 = uy(rng) * (1.0 - wy / spec.chip.height());
    server::JsonValue req = server::Client::request("region", "bench");
    req.set("x0", server::JsonValue(x0));
    req.set("y0", server::JsonValue(y0));
    req.set("x1", server::JsonValue(x0 + wx));
    req.set("y1", server::JsonValue(y0 + wy));
    const server::JsonValue resp = client.call(req);
    region_points += resp.at("value").as_array().size();
  }
  const double region_wall_s = ms_since(region_start) / 1000.0;
  const double region_pts_per_s =
      static_cast<double>(region_points) / region_wall_s;
  std::printf("region maps: %zu requests, %zu points in %.2f s -> "
              "%.3g points/s\n",
              kRegionRequests, region_points, region_wall_s,
              region_pts_per_s);

  client.call(server::Client::request("shutdown"));
  daemon_thread.join();

  bench::JsonRow row("server");
  row.uint("tsvs", design.placement.size())
      .uint("grid_points", grid_points)
      .num("spacing_um", spacing)
      .num("open_ms", open_ms, "%.1f")
      .uint("queries", n_queries)
      .num("point_queries_per_s", queries_per_s, "%.1f")
      .num("query_p50_ms", q_p50, "%.4f")
      .num("query_p99_ms", q_p99, "%.4f")
      .uint("edits", n_edits)
      .num("eco_p50_ms", e_p50, "%.3f")
      .num("eco_p90_ms", e_p90, "%.3f")
      .num("eco_nofsync_p50_ms", en_p50, "%.3f")
      .num("eco_nofsync_p90_ms", en_p90, "%.3f")
      .num("region_points_per_s", region_pts_per_s, "%.4g")
      .num("peak_rss_mb", peak_rss_mb(), "%.1f");
  bench::append_jsonl(out_dir + "/server.jsonl", row);
  std::printf("appended row to %s/server.jsonl\n", out_dir.c_str());
  return 0;
}

// service-1k: one in-process StressServer on a Unix socket, a 1k-TSV
// session opened over the wire at 1 um spacing with every other SessionSpec
// default (exact series, journal fsync on), and two closed-loop clients on
// that session:
//
//   editor: a single-TSV move `eco` with a fresh seq, then a 64-point
//           readback query around the moved TSV, then 5 ms of think time;
//   viewer: nine 64-point random queries, then one 100 x 100 um region,
//           looping until the editor is done.
//
// The operation is one request of either client. The editor stops once the
// phase has run for --seconds and every reported percentile has at least
// ten samples beyond its rank. The session's final field must equal, bit
// for bit, an in-process IncrementalEngine that applied the same acked
// deltas.
//
// The traced run replays the session's cold Stage I / Stage II build over
// its grid (see replay.h), and the acked deltas through a standalone engine,
// the journal and an in-process SessionManager.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analytic/interaction.h"
#include "analytic/single_tsv.h"
#include "common.h"
#include "core/incremental_engine.h"
#include "core/metrics.h"
#include "core/stress_table.h"
#include "core/tiled_evaluator.h"
#include "io/journal.h"
#include "replay.h"
#include "server/client.h"
#include "server/server.h"
#include "tsv/fullchip.h"
#include "tsv/placement_io.h"

namespace perfbench {
namespace {

using namespace tsv;
using server::Client;
using server::JsonValue;

constexpr double kDensity = 0.0025;
constexpr double kMargin = 25.0;    // SessionSpec default
constexpr double kJitter = 0.5;     // um; keeps the 10 um pitch floor legal
constexpr double kWindow = 100.0;   // um, region side
constexpr std::size_t kQueryPoints = 64;
constexpr std::size_t kViewerQueries = 9;
// The editor's think time between cycles. Without it the editor's server
// thread re-takes the (unfair) session mutex before a woken viewer thread
// runs whenever the host is short of CPU, the viewer starves, and every
// read percentile jumps between two regimes from run to run.
constexpr auto kEditorThink = std::chrono::milliseconds(5);
// Enough samples for ten beyond the rank of p95 (eco), p99 (query) and the
// region p50.
constexpr std::size_t kMinEcos = 200;
constexpr std::size_t kMinQueries = 1000;
constexpr std::size_t kMinRegions = 21;
constexpr const char* kSession = "bench";

/// A running daemon on its own socket and snapshot directory.
struct Daemon {
  std::string socket;
  std::unique_ptr<server::StressServer> server;
  std::thread thread;

  explicit Daemon(const std::string& tag) : socket("svc-" + tag + ".sock") {
    server::ServerOptions options;
    options.unix_path = socket;
    options.snapshot_dir = "snaps-" + tag;
    server = std::make_unique<server::StressServer>(options);
    thread = std::thread([this] { server->run(); });
  }
  Client connect() const {
    return Client::connect_unix(socket);
  }
  /// Drops the session without a snapshot, then stops the daemon.
  void stop() {
    if (!thread.joinable()) return;
    Client c = connect();
    JsonValue close = Client::request("close", kSession);
    close.set("discard", JsonValue(true));
    c.call_raw(close);
    c.call_raw(Client::request("shutdown"));
    thread.join();
  }
  ~Daemon() {
    if (thread.joinable()) {
      server->stop();
      thread.join();
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
};

bool ok(const JsonValue& resp) { return resp.bool_or("ok", false); }

JsonValue query_request(const std::vector<geo::Point>& pts) {
  JsonValue points = JsonValue::array();
  for (const geo::Point& p : pts) {
    JsonValue xy = JsonValue::array();
    xy.items().push_back(JsonValue(p.x));
    xy.items().push_back(JsonValue(p.y));
    points.items().push_back(std::move(xy));
  }
  JsonValue req = Client::request("query", kSession);
  req.set("points", std::move(points));
  return req;
}

bool query_ok(const JsonValue& resp) {
  return ok(resp) && resp.at("value").as_array().size() == kQueryPoints;
}

/// One client request as seen from the client: kind, interval, success.
struct Call {
  enum Kind { kEco, kQuery, kRegion } kind;
  Clock::time_point start;
  Clock::time_point end;
  bool ok;
  bool editor;
  double ms() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

struct AckedEco {
  std::uint64_t seq;
  std::uint64_t request;  ///< trace request id shared with its replays
  core::Delta delta;
};

struct Phase {
  std::vector<Call> calls;  ///< both clients, editor first then viewer
  std::vector<AckedEco> acked;
  double wall_s = 0.0;
};

/// The two-client timed phase against the live session.
Phase run_phase(const Daemon& d, const tsvlib::Placement& placement,
                const geo::Box& chip, std::uint64_t seed, std::uint64_t stream,
                double seconds, std::uint64_t& next_seq, Report& report,
                Tracer& tracer) {
  Phase phase;
  std::vector<Call> editor_calls;
  std::vector<Call> viewer_calls;
  std::atomic<bool> done{false};
  // A client whose connection fails records why and ends the phase; an
  // exception must not escape a thread.
  std::mutex errors_mu;
  std::vector<std::string> errors;
  const auto guarded = [&](auto&& body) {
    return [&, body] {
      try {
        body();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(errors_mu);
        errors.push_back(e.what());
      }
      done = true;
    };
  };
  std::atomic<std::size_t> queries{0};
  std::atomic<std::size_t> regions{0};
  const Clock::time_point t0 = Clock::now();

  std::thread editor(guarded([&] {
    Client c = d.connect();
    std::seed_seq seeds{seed, stream, std::uint64_t{1}};
    std::mt19937_64 rng(seeds);
    std::uniform_int_distribution<std::uint32_t> pick(
        0, static_cast<std::uint32_t>(placement.size() - 1));
    std::uniform_real_distribution<double> jitter(-kJitter, kJitter);
    std::size_t ecos = 0;
    while (!done.load() &&
           !(seconds_since(t0) >= seconds && ecos >= kMinEcos &&
             queries.load() >= kMinQueries && regions.load() >= kMinRegions)) {
      const std::uint32_t id = pick(rng);
      const geo::Point nominal = placement.centers()[id];
      const geo::Point target{nominal.x + jitter(rng),
                              nominal.y + jitter(rng)};
      const std::uint64_t seq = ++next_seq;
      const std::uint64_t request = tracer.next_request();
      JsonValue op = JsonValue::object();
      op.set("op", JsonValue("move"));
      op.set("id", JsonValue(id));
      op.set("x", JsonValue(target.x));
      op.set("y", JsonValue(target.y));
      JsonValue ops = JsonValue::array();
      ops.items().push_back(std::move(op));
      JsonValue req = Client::request("eco", kSession);
      req.set("ops", std::move(ops));
      req.set("seq", JsonValue(seq));
      Call eco{Call::kEco, Clock::now(), {}, false, true};
      {
        Tracer::Scope span(tracer, "client.eco", request);
        const JsonValue resp = c.call_raw(req);
        eco.end = Clock::now();
        eco.ok = ok(resp) && !resp.bool_or("duplicate", true) &&
                 resp.number_or("seq", 0.0) == static_cast<double>(seq);
      }
      editor_calls.push_back(eco);
      ++ecos;
      if (eco.ok)
        phase.acked.push_back({seq, request, {core::EcoOp::move(id, target)}});

      // Readback: an 8 x 8 pattern within +-7 um of the moved TSV.
      std::vector<geo::Point> pts;
      for (std::size_t k = 0; k < kQueryPoints; ++k)
        pts.push_back({target.x - 7.0 + 2.0 * static_cast<double>(k % 8),
                       target.y - 7.0 + 2.0 * static_cast<double>(k / 8)});
      Call q{Call::kQuery, Clock::now(), {}, false, true};
      {
        Tracer::Scope span(tracer, "client.query", request);
        const JsonValue resp = c.call_raw(query_request(pts));
        q.end = Clock::now();
        q.ok = query_ok(resp);
      }
      editor_calls.push_back(q);
      ++queries;
      std::this_thread::sleep_for(kEditorThink);
    }
  }));

  std::thread viewer(guarded([&] {
    Client c = d.connect();
    std::seed_seq seeds{seed, stream, std::uint64_t{2}};
    std::mt19937_64 rng(seeds);
    std::uniform_real_distribution<double> ux(chip.lo.x, chip.hi.x);
    std::uniform_real_distribution<double> uy(chip.lo.y, chip.hi.y);
    std::uniform_real_distribution<double> wx(chip.lo.x,
                                              chip.hi.x - kWindow);
    std::uniform_real_distribution<double> wy(chip.lo.y,
                                              chip.hi.y - kWindow);
    while (!done.load()) {
      for (std::size_t i = 0; i < kViewerQueries; ++i) {
        std::vector<geo::Point> pts(kQueryPoints);
        for (geo::Point& p : pts) p = {ux(rng), uy(rng)};
        const std::uint64_t request = tracer.next_request();
        Call q{Call::kQuery, Clock::now(), {}, false, false};
        {
          Tracer::Scope span(tracer, "client.query", request);
          const JsonValue resp = c.call_raw(query_request(pts));
          q.end = Clock::now();
          q.ok = query_ok(resp);
        }
        viewer_calls.push_back(q);
        ++queries;
      }
      const double x0 = wx(rng);
      const double y0 = wy(rng);
      JsonValue req = Client::request("region", kSession);
      req.set("x0", JsonValue(x0));
      req.set("y0", JsonValue(y0));
      req.set("x1", JsonValue(x0 + kWindow));
      req.set("y1", JsonValue(y0 + kWindow));
      const std::uint64_t request = tracer.next_request();
      Call r{Call::kRegion, Clock::now(), {}, false, false};
      {
        Tracer::Scope span(tracer, "client.region", request);
        const JsonValue resp = c.call_raw(req);
        r.end = Clock::now();
        r.ok = ok(resp) &&
               resp.at("value").as_array().size() ==
                   static_cast<std::size_t>(resp.at("nx").as_number() *
                                            resp.at("ny").as_number());
      }
      viewer_calls.push_back(r);
      ++regions;
    }
  }));
  editor.join();
  viewer.join();
  phase.wall_s = seconds_since(t0);
  phase.calls = std::move(editor_calls);
  phase.calls.insert(phase.calls.end(), viewer_calls.begin(),
                     viewer_calls.end());
  for (const std::string& e : errors)
    report.operation(false, "client connection failed: " + e);
  static const char* kNames[] = {"eco", "query", "region"};
  for (const Call& c : phase.calls)
    report.operation(c.ok, std::string(kNames[c.kind]) + " request failed");
  return phase;
}

std::vector<double> latencies(const Phase& p, Call::Kind kind) {
  std::vector<double> out;
  for (const Call& c : p.calls)
    if (c.kind == kind && c.ok) out.push_back(c.ms());
  return out;
}

std::vector<double> all_latencies(const Phase& p) {
  std::vector<double> out;
  for (const Call& c : p.calls)
    if (c.ok) out.push_back(c.ms());
  return out;
}

/// Latency percentiles of one phase, by name: every request, then by kind.
std::vector<std::pair<std::string, Percentile>> phase_percentiles(
    const Phase& p) {
  return {{"op_median_ms", nearest_rank(all_latencies(p), 0.50)},
          {"eco_p50_ms", nearest_rank(latencies(p, Call::kEco), 0.50)},
          {"eco_p95_ms", nearest_rank(latencies(p, Call::kEco), 0.95)},
          {"query_p50_ms", nearest_rank(latencies(p, Call::kQuery), 0.50)},
          {"query_p99_ms", nearest_rank(latencies(p, Call::kQuery), 0.99)},
          {"region_p50_ms", nearest_rank(latencies(p, Call::kRegion), 0.50)}};
}

double ops_per_s(const Phase& p) {
  std::size_t completed = 0;
  for (const Call& c : p.calls) completed += c.ok ? 1 : 0;
  return static_cast<double>(completed) / p.wall_s;
}

/// Builds the engine the way a session does (serial, exact series).
std::unique_ptr<core::IncrementalEngine> reference_engine(
    const tsvlib::Placement& placement, const geo::SampleGrid& grid) {
  const ana::SingleTsvModel single(placement.structure(), mat::ThermalLoad{});
  const auto table = std::make_shared<const core::RadialStressTable>(
      core::RadialStressTable::from_analytic(single, 30.0, 4096));
  const auto model = std::make_shared<const ana::InteractiveStressModel>(
      std::make_shared<const ana::InclusionResponse>(placement.structure()),
      single.k_hat());
  const server::SessionSpec spec;
  core::IncrementalOptions opt;
  opt.stage2.use_lookup_table = spec.lookup;
  opt.stage2.pitch_quant_step = spec.quant_step;
  return std::make_unique<core::IncrementalEngine>(placement, grid, table,
                                                   model, opt);
}

bool same_bits(const std::vector<num::SymTensor2>& a,
               const std::vector<num::SymTensor2>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

}  // namespace

void run_service(const Args& args, Report& report, Tracer& tracer) {
  const std::size_t tsvs = args.smoke ? 100 : 1000;
  const double spacing = args.smoke ? 2.0 : 1.0;  // um
  const std::uint64_t seed = design_seed(args, tsvs);
  const bool traced_run = tracer.enabled();
  // The traced run sets up once untraced and once traced (for overhead).
  const std::size_t setup_reps = traced_run ? 2 : (args.smoke ? 2 : 3);
  reset_peak_rss();

  tsvlib::FullChipSpec spec;
  std::string placement_text;
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setup_s;
  double setup_traced_s = 0.0;
  double make_fullchip_s = 0.0;
  for (std::size_t rep = 0; rep < setup_reps; ++rep) {
    const bool traced = traced_run && rep + 1 == setup_reps;
    tracer.set_enabled(traced);
    if (daemon) daemon->stop();
    daemon.reset();
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "tsv.make_fullchip");
      spec = tsvlib::spec_for_count(tsvs, kDensity, seed);
      std::ostringstream text;
      tsvlib::write_placement(
          text, tsvlib::make_fullchip(tsvlib::TsvStructure{}, spec).placement);
      placement_text = text.str();
      make_fullchip_s = span.end();
    }
    daemon = std::make_unique<Daemon>(std::to_string(rep));
    Client c = daemon->connect();
    JsonValue open = Client::request("open", kSession);
    open.set("placement", JsonValue(placement_text));
    open.set("spacing", JsonValue(spacing));
    JsonValue resp;
    {
      Tracer::Scope span(tracer, "client.open");
      resp = c.call_raw(open);
    }
    const double elapsed = seconds_since(t0);
    report.operation(ok(resp), "open: " + resp.dump().substr(0, 200));
    if (!ok(resp)) throw std::runtime_error("session open failed");
    (traced ? setup_traced_s : setup_s.emplace_back()) = elapsed;
  }
  tracer.set_enabled(traced_run);

  // The daemon parses the placement text; so does the reference.
  std::istringstream in(placement_text);
  const tsvlib::Placement placement = tsvlib::read_placement(in);
  const geo::SampleGrid grid = geo::SampleGrid::with_spacing(
      placement.bounding_box().expanded(kMargin), spacing);
  std::printf("service: %zu TSVs, %zu grid points\n", placement.size(),
              grid.size());

  // Timed phase(s): the traced run measures untraced first, then traced,
  // each with its own request stream (a repeated stream would re-send moves
  // to where the TSVs already are).
  std::uint64_t next_seq = 0;
  std::vector<Phase> phases;
  for (const bool traced : {false, true}) {
    if (traced && !traced_run) continue;
    tracer.set_enabled(traced);
    phases.push_back(run_phase(*daemon, placement, spec.chip, seed,
                               phases.size(), args.seconds, next_seq, report,
                               tracer));
  }
  tracer.set_enabled(traced_run);

  JsonValue stats;
  {
    Client c = daemon->connect();
    stats = c.call_raw(Client::request("stats"));
  }

  // Correctness: replay every acked delta on an in-process engine and
  // compare the session's final field bit for bit.
  std::vector<AckedEco> acked;
  for (const Phase& p : phases)
    acked.insert(acked.end(), p.acked.begin(), p.acked.end());
  std::unique_ptr<core::IncrementalEngine> ref;
  double build_s = 0.0;
  {
    Tracer::Scope span(tracer, "core.incremental_engine.build");
    ref = reference_engine(placement, grid);
    build_s = span.end();
  }
  std::vector<double> apply_ms;
  std::vector<core::ApplyStats> apply_stats;
  for (const AckedEco& e : acked) {
    Tracer::Scope span(tracer, "core.incremental_engine.apply", e.request);
    apply_stats.push_back(ref->apply(e.delta));
    apply_ms.push_back(1e3 * span.end());
  }
  {
    server::SessionManager::Guard g = daemon->server->sessions().use(kSession);
    const core::IncrementalEngine& live = g.engine();
    const bool same = same_bits(live.stage1_field(), ref->stage1_field()) &&
                      same_bits(live.stage2_field(), ref->stage2_field());
    report.operation(same, "final session field differs from the replay");
  }

  const Phase& main = phases.front();
  if (!traced_run) {
    daemon->stop();
    report.metric("setup_s", median(setup_s), "s", describe(setup_s));
    const auto percentiles = phase_percentiles(main);
    report.percentile(percentiles.front().first, percentiles.front().second,
                      "ms");
    report.metric("ops_per_s", ops_per_s(main), "1/s",
                  "requests per second, both clients");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    for (std::size_t i = 1; i < percentiles.size(); ++i)
      report.detail_percentile(percentiles[i].first, percentiles[i].second,
                               "ms");
    return;
  }

  // --- Per-layer metrics of the traced run ---
  const Phase& traced = phases.back();
  report.metric("tsv.make_fullchip_s", make_fullchip_s, "s");
  {
    // The session's cold build over its grid, in the tiled evaluator's
    // tiles, with the reference engine's table, model and options.
    const core::LinearSuperposition stage1(placement, ref->shared_table(),
                                           ref->options().stage1);
    const core::InteractiveStage stage2(placement, ref->model(),
                                        ref->options().stage2);
    const Replay r = replay_tiles(
        stage1, stage2, grid,
        evaluator_tiles(grid, core::TiledOptions{}.max_tile_points), true,
        tracer);
    report_replay(report, r, stage2, "replay of the session's cold build");
  }
  report.detail("core.incremental_engine.build_s", build_s, "s");
  report.detail_percentile("core.incremental_engine.apply_ms_p50",
                           nearest_rank(apply_ms, 0.50), "ms");
  report.detail_percentile("core.incremental_engine.apply_ms_p95",
                           nearest_rank(apply_ms, 0.95), "ms");
  double dirty = 0, s2 = 0, added = 0;
  for (const core::ApplyStats& st : apply_stats) {
    dirty += static_cast<double>(st.dirty_points);
    s2 += static_cast<double>(st.stage2_point_updates);
    added += static_cast<double>(st.added_pairs);
  }
  const double n_apply = static_cast<double>(apply_stats.size());
  report.detail("core.incremental_engine.dirty_points", dirty / n_apply,
                "count", "mean per eco");
  report.detail("core.incremental_engine.stage2_point_updates", s2 / n_apply,
                "count", "mean per eco");
  report.detail("core.incremental_engine.added_pairs", added / n_apply,
                "count", "mean per eco");

  // Journal appends of the traced phase's batches, fsync on.
  std::vector<double> journal_ms;
  {
    io::EcoJournal journal("replay.journal", /*fsync_on_append=*/true);
    for (const AckedEco& e : traced.acked) {
      Tracer::Scope span(tracer, "io.journal.append", e.request);
      journal.append(io::JournalRecord::make_eco({e.seq, e.delta}));
      journal_ms.push_back(1e3 * span.end());
    }
    journal.remove();
  }
  report.detail_percentile("io.journal.append_ms_p50",
                           nearest_rank(journal_ms, 0.5), "ms");

  // The same batches through an in-process SessionManager (no wire).
  std::vector<double> manager_ms;
  {
    server::SessionManager manager("manager-snaps", server::SessionLimits{});
    server::SessionSpec sspec;
    sspec.spacing = spacing;
    manager.open(kSession, placement, sspec);
    for (const AckedEco& e : traced.acked) {
      Tracer::Scope span(tracer, "server.session_manager.eco", e.request);
      server::SessionManager::Guard g = manager.use(kSession);
      const bool applied = !g.apply_eco(e.delta, e.seq).duplicate;
      manager_ms.push_back(1e3 * span.end());
      report.operation(applied, "in-process manager eco was a duplicate");
    }
    manager.close(kSession, /*discard=*/true);
  }
  const Percentile manager_p50 = nearest_rank(manager_ms, 0.5);
  report.detail_percentile("server.session_manager.eco_ms_p50", manager_p50,
                           "ms");
  report.detail("server.wire.eco_ms_p50",
                nearest_rank(latencies(traced, Call::kEco), 0.5).value -
                    manager_p50.value,
                "ms", "client eco p50 minus session-manager eco p50");

  // JSON encoding of a region-sized response built from the final field.
  {
    const std::size_t side =
        static_cast<std::size_t>(std::floor(kWindow / spacing)) + 1;
    JsonValue values = JsonValue::array();
    const auto total = ref->total_field();
    for (std::size_t iy = 0; iy < std::min(side, grid.ny()); ++iy)
      for (std::size_t ix = 0; ix < std::min(side, grid.nx()); ++ix)
        values.items().push_back(JsonValue(core::extract(
            core::StressMeasure::kVonMises, total[iy * grid.nx() + ix])));
    JsonValue resp = JsonValue::object();
    resp.set("ok", JsonValue(true));
    resp.set("value", std::move(values));
    std::vector<double> encode_ms;
    std::size_t bytes = 0;
    for (int i = 0; i < 31; ++i) {
      Tracer::Scope span(tracer, "server.json.region_encode");
      bytes = resp.dump().size();
      encode_ms.push_back(1e3 * span.end());
    }
    report.detail("server.json.region_encode_ms", median(encode_ms), "ms",
                  "median of 31 encodes");
    report.detail("server.json.region_bytes", static_cast<double>(bytes), "B");
  }

  // Viewer requests that overlapped an in-flight eco (the session lock).
  {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> ecos;
    for (const Call& c : traced.calls)
      if (c.kind == Call::kEco) ecos.emplace_back(c.start, c.end);
    std::size_t viewer = 0, blocked = 0;
    std::vector<double> blocked_query_ms;
    for (const Call& c : traced.calls) {
      if (c.editor) continue;
      ++viewer;
      const bool overlaps = std::any_of(
          ecos.begin(), ecos.end(),
          [&](const auto& e) { return c.start < e.second && e.first < c.end; });
      if (!overlaps) continue;
      ++blocked;
      if (c.kind == Call::kQuery) blocked_query_ms.push_back(c.ms());
    }
    report.detail("server.session.lock_blocked_frac",
                  static_cast<double>(blocked) / static_cast<double>(viewer),
                  "ratio");
    report.detail("server.session.blocked_query_p50_ms",
                  blocked_query_ms.empty() ? 0.0 : median(blocked_query_ms),
                  "ms",
                  "median of " + std::to_string(blocked_query_ms.size()) +
                      " blocked viewer queries");
  }

  // The daemon's own counters.
  {
    const JsonValue* counters = nullptr;
    for (const JsonValue& s : stats.at("sessions").as_array())
      if (s.at("name").as_string() == kSession) counters = &s.at("counters");
    if (counters == nullptr) throw std::runtime_error("stats: no session");
    for (const char* key : {"journaled", "duplicates", "journal_fallbacks"})
      report.detail(std::string("server.stats.") + key,
                    counters->at(key).as_number(), "count");
    report.detail("server.stats.frame_errors",
                  stats.at("wire").at("frame_errors").as_number(), "count");
  }
  daemon->stop();

  // Tracing overhead: traced phase minus untraced phase, per metric.
  report.metric("trace.overhead.setup_s", setup_traced_s - setup_s.front(),
                "s", "one traced and one untraced setup");
  const auto untraced_p = phase_percentiles(main);
  const auto traced_p = phase_percentiles(traced);
  for (std::size_t i = 0; i < untraced_p.size(); ++i) {
    const double overhead =
        traced_p[i].second.value - untraced_p[i].second.value;
    if (i == 0)
      report.metric("trace.overhead." + untraced_p[i].first, overhead, "ms");
    else
      report.detail("trace.overhead." + untraced_p[i].first, overhead, "ms");
  }
  report.metric("trace.overhead.ops_per_s",
                ops_per_s(traced) - ops_per_s(main), "1/s");
  report.metric("trace.peak_rss_mb", peak_rss_mb(), "MB",
                "traced process; compare with the untraced peak_rss_mb");
}

}  // namespace perfbench

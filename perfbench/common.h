#pragma once
// Shared pieces of the benchmark binary: arguments, timers, nearest-rank
// percentiles, the result report (metrics, attempted/failed operations) and
// an in-memory span tracer written out as Chrome trace-event JSON.
//
// Every timing is taken from outside the library: the benchmark wraps calls
// into the public functions of the tsv, analytic, core, io, stats and server
// modules and changes no library code.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;  ///< 0 = per-workload default (90000 + TSV count)
  double seconds = 15.0;   ///< length of each timed phase
  bool trace = false;      ///< traced run: per-layer metrics, not end-to-end
  bool smoke = false;      ///< tiny sizes, for the benchmark's own tests
  std::string trace_out;   ///< Chrome trace file (traced runs only)
};

/// Design seed of a workload: the --seed argument, or 90000 + n, the seed
/// of the committed results/*.jsonl rows.
inline std::uint64_t design_seed(const Args& args, std::size_t tsvs) {
  return args.seed != 0 ? args.seed : 90000 + tsvs;
}

/// Nearest-rank percentile of a sample: the value at rank ceil(p * n).
struct Percentile {
  double value = 0.0;
  std::size_t rank = 0;     ///< 1-based
  std::size_t samples = 0;  ///< n
};

/// Throws std::runtime_error unless at least ten samples lie beyond the
/// rank: a percentile resting on fewer is not reported.
Percentile nearest_rank(std::vector<double> samples, double p);

/// Median of a small set of repeated measurements (mean of the middle two
/// for an even count); used for setup and whole-phase timings.
double median(std::vector<double> values);

/// Operations per second of summed operation time, from per-operation
/// times in milliseconds.
double per_second(const std::vector<double>& op_ms);

/// "median of N (min a, max b)": the note printed beside a median metric.
std::string describe(const std::vector<double>& values);

/// Peak resident set of this process. reset_peak_rss() restarts the
/// high-water mark so one process can report several workloads.
void reset_peak_rss();
double peak_rss_mb();

/// Metrics and operation outcomes of one workload run.
///
/// Every workload reports the same metric names (the result object must
/// hold each metric BENCHMARK.json lists). What only one workload can
/// measure is a detail: printed as a human-readable line, kept out of the
/// result object.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// A percentile metric, printed with its rank and sample count.
  void percentile(const std::string& name, const Percentile& p,
                  const std::string& unit);
  /// A workload-specific value: a "detail" line, not in the result object.
  void detail(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  void detail_percentile(const std::string& name, const Percentile& p,
                         const std::string& unit);
  /// One operation: counts towards `attempted`, and towards `failed`
  /// unless `ok`. The first few failures are logged to stderr.
  void operation(bool ok, const std::string& what = "");

  /// Human-readable metric lines, then the result object as the last line.
  void print() const;

 private:
  struct Entry {
    double value;
    std::string unit;
    std::string note;
    bool in_result;
  };
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note, bool in_result);
  std::vector<std::pair<std::string, Entry>> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// In-memory span recorder. Disabled tracers record nothing, so the
/// untraced run pays one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< shared by the spans of one request
    std::uint32_t tid = 0;
  };

  /// RAII span; parent is the innermost open span of the calling thread.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Ends the span early; returns its duration in seconds (also when
    /// the tracer is disabled, so callers can reuse the measurement).
    double end();

   private:
    Tracer* tracer_;
    const char* name_;
    std::uint64_t request_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Clock::time_point start_;
    bool open_ = true;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  std::uint64_t next_request() { return ++request_counter_; }

  /// Sum of the durations of every span with this name, seconds.
  double total_seconds(const std::string& name) const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 0;
  std::atomic<std::uint64_t> request_counter_{0};
};

/// The three workloads. Each fills `report` with the end-to-end metrics
/// (untraced run) or the per-layer metrics plus tracing overhead (traced),
/// and with its own details.
void run_fullchip(const Args& args, Report& report, Tracer& tracer);
void run_service(const Args& args, Report& report, Tracer& tracer);
void run_variation(const Args& args, Report& report, Tracer& tracer);

}  // namespace perfbench

#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

namespace perfbench {

Percentile nearest_rank(std::vector<double> samples, double p) {
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p * static_cast<double>(n))));
  if (n == 0 || rank > n || n - rank < 10)
    throw std::runtime_error(
        "percentile p" + std::to_string(static_cast<int>(100 * p)) +
        " needs at least ten samples beyond its rank; have " +
        std::to_string(n));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return {samples[rank - 1], rank, n};
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::runtime_error("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double per_second(const std::vector<double>& op_ms) {
  double total = 0.0;
  for (const double ms : op_ms) total += ms;
  return 1e3 * static_cast<double>(op_ms.size()) / total;
}

std::string describe(const std::vector<double>& values) {
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  char buf[96];
  std::snprintf(buf, sizeof(buf), "median of %zu (min %.4g, max %.4g)",
                values.size(), *lo, *hi);
  return buf;
}

void reset_peak_rss() {
  // Linux: writing 5 to clear_refs resets the VmHWM high-water mark.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

namespace {
std::string rank_note(const Percentile& p) {
  return "nearest rank " + std::to_string(p.rank) + " of " +
         std::to_string(p.samples) + " samples";
}
}  // namespace

void Report::add(const std::string& name, double value,
                 const std::string& unit, const std::string& note,
                 bool in_result) {
  if (!std::isfinite(value))
    throw std::runtime_error("metric " + name + " is not finite");
  metrics_.push_back({name, {value, unit, note, in_result}});
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  add(name, value, unit, note, true);
}

void Report::percentile(const std::string& name, const Percentile& p,
                        const std::string& unit) {
  add(name, p.value, unit, rank_note(p), true);
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  add(name, value, unit, note, false);
}

void Report::detail_percentile(const std::string& name, const Percentile& p,
                               const std::string& unit) {
  add(name, p.value, unit, rank_note(p), false);
}

void Report::operation(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 5)
    std::fprintf(stderr, "failed operation: %s\n", what.c_str());
}

void Report::print() const {
  for (const auto& [name, e] : metrics_)
    std::printf("%-6s %-44s %16.6g %-6s %s\n",
                e.in_result ? "metric" : "detail", name.c_str(), e.value,
                e.unit.c_str(), e.note.c_str());
  std::printf("operations: %zu attempted, %zu failed\n", attempted_, failed_);
  std::string line = "{\"correct\": ";
  line += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  char buf[64];
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (!e.in_result) continue;
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            e.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

namespace {
thread_local std::uint64_t t_open_span = 0;

std::uint32_t thread_number() {
  static std::mutex mu;
  static std::map<std::thread::id, std::uint32_t> ids;
  std::lock_guard<std::mutex> lk(mu);
  const auto [it, inserted] = ids.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(ids.size() + 1));
  return it->second;
}
}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(&tracer), name_(name), request_(request) {
  if (tracer_->enabled_) {
    {
      std::lock_guard<std::mutex> lk(tracer_->mu_);
      id_ = ++tracer_->next_id_;
    }
    parent_ = t_open_span;
    t_open_span = id_;
  }
  start_ = Clock::now();
}

Tracer::Scope::~Scope() { end(); }

double Tracer::Scope::end() {
  const Clock::time_point stop = Clock::now();
  const double seconds = std::chrono::duration<double>(stop - start_).count();
  if (!open_) return seconds;
  open_ = false;
  if (id_ == 0) return seconds;
  t_open_span = parent_;
  Span s{name_,    tracer_->ns(start_), tracer_->ns(stop), id_, parent_,
         request_, thread_number()};
  std::lock_guard<std::mutex> lk(tracer_->mu_);
  tracer_->spans_.push_back(std::move(s));
  return seconds;
}

double Tracer::total_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.name == name)
      total += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  return total;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.tid, 1e-3 * s.start_ns,
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot finish trace " + path);
}

}  // namespace perfbench

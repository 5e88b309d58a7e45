#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- OpLedger ------------------------------------------------------------

void OpLedger::attempt(std::uint64_t n) {
  const std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += n;
}

void OpLedger::fail(const std::string& what) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++failed_;
  }
  std::cout << "FAILED: " << what << "\n";
}

bool OpLedger::check(bool ok, const std::string& what) {
  if (!ok) fail(what);
  return ok;
}

std::uint64_t OpLedger::attempted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::uint64_t OpLedger::failed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

// ---- Report --------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  entries_[name] = Entry{value, unit};
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::string Report::json() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": " << number(entry.value)
        << ", \"unit\": \"" << entry.unit << "\"}";
  }
  out << "}";
  return out.str();
}

std::string Report::text() const {
  std::ostringstream out;
  for (const auto& [name, entry] : entries_) {
    out << "  " << name << " = " << number(entry.value) << " " << entry.unit
        << "\n";
  }
  return out.str();
}

// ---- SpanRecorder --------------------------------------------------------

int SpanRecorder::begin(const char* name, const char* layer,
                        std::uint64_t op) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, layer, op, Clock::now(), {}, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanRecorder::add(const char* name, const char* layer, std::uint64_t op,
                       Clock::time_point start, Clock::time_point end,
                       int parent) {
  if (!enabled_) return;
  spans_.push_back(Span{name, layer, op, start, end, parent});
}

std::map<std::string, double> SpanRecorder::self_ms_by_layer() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          ms_between(span.start, span.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.layer] +=
        std::max(0.0, ms_between(span.start, span.end) - child_ms[i]);
  }
  return self;
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"layer\": \"" << span.layer << "\", \"op\": " << span.op
        << ", \"parent\": " << span.parent << ", \"start_us\": "
        << number(ms_between(origin_, span.start) * 1000.0)
        << ", \"end_us\": " << number(ms_between(origin_, span.end) * 1000.0)
        << "}\n";
  }
}

// ---- statistics ----------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(values.size() - 1,
                              static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- SpeedMeter ----------------------------------------------------------

SpeedMeter::SpeedMeter() : buffer_(std::size_t{1} << 21, 0) {}

void SpeedMeter::sample() {
  const std::size_t mask = buffer_.size() - 1;
  const auto t0 = Clock::now();
  std::uint64_t x = state_;
  for (int i = 0; i < 2'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    buffer_[(x >> 24) & mask] += x;
  }
  state_ = x;
  samples_ms_.push_back(ms_between(t0, Clock::now()));
}

double SpeedMeter::factor_since(std::size_t first) const {
  if (first >= samples_ms_.size()) return 1.0;
  return kReferenceKernelMs /
         median(std::vector<double>(
             samples_ms_.begin() + static_cast<std::ptrdiff_t>(first),
             samples_ms_.end()));
}

// ---- provenance ----------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void print_provenance(const RunConfig& config,
                      const std::map<std::string, std::string>& extra) {
  std::ostringstream out;
  out << "{\"provenance\": {\"workload\": " << quoted(config.workload)
      << ", \"seed\": " << config.seed << ", \"seconds\": "
      << number(config.seconds) << ", \"trace\": " << (config.trace ? 1 : 0)
      << ", \"cpu_model\": " << quoted(cpu_model())
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"rev\": " << quoted(config.rev);
  for (const auto& [key, value] : extra) {
    out << ", " << quoted(key) << ": " << value;
  }
  out << "}}";
  std::cout << out.str() << "\n";
}

}  // namespace perfbench

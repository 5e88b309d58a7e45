// Shared machinery of rbpeb_perfbench: run configuration, op accounting with
// output checks, the metric report, and the in-memory span recorder that the
// traced run uses to attribute time to the library's layers.
//
// The benchmark measures every layer from outside: a span wraps one call the
// benchmark makes into a public function of the library, named by the module
// that owns it (instances, pebble, solvers, bigstate, hda, serve). Nothing
// inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
double ms_between(Clock::time_point a, Clock::time_point b);

/// One benchmark run, as given on the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
  std::string work_dir;   ///< scratch for instance files; removed at exit
  std::string rev;        ///< source revision, for the provenance header
};

/// Failed-op accounting. Every check the benchmark makes on a program output
/// goes through here; a failure is printed and counted, and any failure makes
/// the run exit non-zero.
class OpLedger {
 public:
  void attempt(std::uint64_t n = 1);
  /// Count one failed op, with a reason naming the op and what was wrong.
  void fail(const std::string& what);
  /// Record a check; returns `ok`.
  bool check(bool ok, const std::string& what);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Ordered name → (value, unit) map; printed as the result line's metrics.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}`
  std::string json() const;
  /// One human-readable line per metric.
  std::string text() const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Entry> entries_;
};

/// In-memory span recorder (choosing-metrics §4): name, layer, start, end,
/// parent and op id per span, written out when the run ends. Disabled
/// recorders cost one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Open a span under the innermost open span of the calling thread's
  /// stack; returns its index (or -1 when disabled).
  int begin(const char* name, const char* layer, std::uint64_t op);
  void end(int index);

  /// Record a span measured elsewhere (the serve workload's requests).
  void add(const char* name, const char* layer, std::uint64_t op,
           Clock::time_point start, Clock::time_point end, int parent);

  /// Self time per layer in ms: each span's duration minus the part its
  /// direct children cover.
  std::map<std::string, double> self_ms_by_layer() const;

  /// Write every span as one JSON line to `path`.
  void write(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    const char* layer;
    std::uint64_t op;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open spans (single-threaded use)
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, const char* layer,
             std::uint64_t op)
      : recorder_(recorder), index_(recorder.begin(name, layer, op)) {}
  ~ScopedSpan() { recorder_.end(index_); }
  int index() const { return index_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

/// Machine-speed reference. A shared host's speed drifts as neighbours load
/// its memory system (by ±20% over minutes on the 4-vCPU reference host);
/// timing the same fixed kernel between ops tracks part of that drift. The
/// kernel is the benchmark's own code (random read-modify-writes over a
/// 16 MiB buffer), so no library change can move it.
class SpeedMeter {
 public:
  SpeedMeter();
  /// Time one kernel run and keep the sample.
  void sample();
  /// kReferenceKernelMs / median sample: below 1 when the host ran slow.
  /// Timings multiplied by it read as on the reference host.
  double factor() const { return factor_since(0); }
  /// The same over the samples taken since the first `first` of them.
  double factor_since(std::size_t first) const;
  std::size_t samples() const { return samples_ms_.size(); }

  /// The kernel's typical time on the 4-vCPU reference host.
  static constexpr double kReferenceKernelMs = 11.0;

 private:
  std::vector<std::uint64_t> buffer_;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
  std::vector<double> samples_ms_;
};

/// Everything a workload needs: its configuration, the op ledger, the
/// report, and the span recorder (enabled only in traced runs).
struct Context {
  RunConfig config;
  OpLedger ledger;
  Report report;
  SpanRecorder spans;
  SpeedMeter speed;
  explicit Context(RunConfig c) : config(std::move(c)), spans(config.trace) {}
};

// ---- statistics ----------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Run `setup` repeatedly — at least 5 times, and until 0.3 s were spent in
/// it or it ran 200 times — and return the median wall time of one call.
/// The last call's effects are the ones the workload keeps.
template <class Fn>
double timed_setup(Fn&& setup) {
  std::vector<double> times;
  double total = 0;
  while (times.size() < 5 || (total < 0.3 && times.size() < 200)) {
    const auto t0 = Clock::now();
    setup();
    const double s = seconds_between(t0, Clock::now());
    times.push_back(s);
    total += s;
  }
  return median(times);
}

/// Print one provenance line (JSON) for the run.
void print_provenance(const RunConfig& config,
                      const std::map<std::string, std::string>& extra);

// ---- workloads -----------------------------------------------------------

void run_exact(Context& ctx);
void run_anytime(Context& ctx);
void run_serve(Context& ctx);

}  // namespace perfbench

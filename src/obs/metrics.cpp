#include "src/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "src/support/json.hpp"

namespace rbpeb::obs {

std::size_t thread_stripe_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

std::size_t Histogram::bucket_index(std::uint64_t v) noexcept {
  if (v < 4) return static_cast<std::size_t>(v);
  // v in [2^o, 2^(o+1)) with o >= 2; the top two bits below the leading one
  // pick one of 4 sub-buckets. Max index: o=63, sub=3 -> 255.
  const unsigned o = static_cast<unsigned>(std::bit_width(v)) - 1;
  const std::size_t sub = static_cast<std::size_t>((v >> (o - 2)) & 3u);
  return static_cast<std::size_t>(o) * 4 + sub;
}

std::uint64_t Histogram::bucket_lower_bound(std::size_t index) noexcept {
  if (index < 8) return static_cast<std::uint64_t>(index & 3u);
  const unsigned o = static_cast<unsigned>(index / 4);
  const std::uint64_t sub = static_cast<std::uint64_t>(index % 4);
  return (std::uint64_t{1} << o) + sub * (std::uint64_t{1} << (o - 2));
}

std::uint64_t Histogram::percentile(double q) const noexcept {
  // Copy the buckets once so the walk is over a consistent-enough view;
  // concurrent records can still skew count_ vs the copy, so clamp the
  // target rank to what the copy actually holds.
  std::array<std::uint64_t, kBuckets> local{};
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    local[i] = buckets_[i].load(std::memory_order_relaxed);
    total += local[i];
  }
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
  if (rank >= total) rank = total - 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += local[i];
    if (seen > rank) {
      // Linear interpolation within the containing bucket: treat its
      // local[i] samples as evenly spread over [lo, lo+width) and report
      // the midpoint of the rank's slice. Exact buckets (width 1, values
      // 0..3) truncate back to lo, so small integers stay exact.
      const std::uint64_t lo = bucket_lower_bound(i);
      const std::uint64_t width =
          i < 8 ? 1 : std::uint64_t{1} << (i / 4 - 2);
      const std::uint64_t rank_in_bucket = rank - (seen - local[i]);
      const double offset = static_cast<double>(width) *
                            (static_cast<double>(rank_in_bucket) + 0.5) /
                            static_cast<double>(local[i]);
      return lo + static_cast<std::uint64_t>(offset);
    }
  }
  return bucket_lower_bound(kBuckets - 1);
}

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  // Node-based maps: element addresses are stable across inserts, which is
  // what lets counter()/gauge()/histogram() hand out long-lived references.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;

  void require_unregistered_elsewhere(std::string_view name,
                                      const char* wanted_kind) const {
    const bool as_counter = counters.find(name) != counters.end();
    const bool as_gauge = gauges.find(name) != gauges.end();
    const bool as_histogram = histograms.find(name) != histograms.end();
    if (as_counter || as_gauge || as_histogram) {
      throw std::logic_error(
          std::string("metric '") + std::string(name) +
          "' already registered as a different kind (wanted " + wanted_kind +
          ")");
    }
  }
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry& MetricsRegistry::instance() {
  // Leaked on purpose: instrumentation sites hold references from static
  // initializers and may fire during shutdown.
  static MetricsRegistry* global = new MetricsRegistry;
  return *global;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (auto it = impl_->counters.find(name); it != impl_->counters.end()) {
    return *it->second;
  }
  impl_->require_unregistered_elsewhere(name, "counter");
  auto [it, inserted] = impl_->counters.emplace(std::string(name),
                                                std::make_unique<Counter>());
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (auto it = impl_->gauges.find(name); it != impl_->gauges.end()) {
    return *it->second;
  }
  impl_->require_unregistered_elsewhere(name, "gauge");
  auto [it, inserted] =
      impl_->gauges.emplace(std::string(name), std::make_unique<Gauge>());
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (auto it = impl_->histograms.find(name); it != impl_->histograms.end()) {
    return *it->second;
  }
  impl_->require_unregistered_elsewhere(name, "histogram");
  auto [it, inserted] = impl_->histograms.emplace(
      std::string(name), std::make_unique<Histogram>());
  return *it->second;
}

std::string MetricsRegistry::snapshot_json() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  // Merge the three kind-maps into one name-sorted object.
  std::map<std::string, std::string> entries;
  for (const auto& [name, c] : impl_->counters) {
    entries[name] = std::to_string(c->value());
  }
  for (const auto& [name, g] : impl_->gauges) {
    entries[name] = "{\"value\":" + std::to_string(g->value()) +
                    ",\"max\":" + std::to_string(g->max()) + "}";
  }
  for (const auto& [name, h] : impl_->histograms) {
    entries[name] = "{\"count\":" + std::to_string(h->count()) +
                    ",\"sum\":" + std::to_string(h->sum()) +
                    ",\"p50\":" + std::to_string(h->percentile(0.50)) +
                    ",\"p90\":" + std::to_string(h->percentile(0.90)) +
                    ",\"p99\":" + std::to_string(h->percentile(0.99)) + "}";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : entries) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, name);
    out.push_back(':');
    out += value;
  }
  out.push_back('}');
  return out;
}

void MetricsRegistry::reset_all() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, c] : impl_->counters) c->reset();
  for (auto& [name, g] : impl_->gauges) g->reset();
  for (auto& [name, h] : impl_->histograms) h->reset();
}

const char* intern(std::string_view name) {
  static std::mutex mutex;
  // std::set is node-based: the stored strings never move.
  static std::set<std::string, std::less<>>* pool =
      new std::set<std::string, std::less<>>;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = pool->find(name);
  if (it == pool->end()) it = pool->emplace(name).first;
  return it->c_str();
}

}  // namespace rbpeb::obs

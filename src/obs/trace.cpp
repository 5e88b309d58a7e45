#ifndef RBPEB_OBS_NO_TRACE

#include "src/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/support/json.hpp"

namespace rbpeb::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

struct Event {
  const char* name;
  const char* arg_name;  // nullptr when the event carries no arg
  std::uint64_t arg;
  std::uint64_t ts_ns;  // steady-clock nanoseconds since the epoch mark
  std::uint64_t ctx;    // correlation id (args.ctx); 0 = unset
  char phase;           // 'B', 'E', or 'i'
};

thread_local std::uint64_t t_trace_ctx = 0;

/// One per thread that has emitted while tracing was on. The owning thread
/// appends under `mutex`; drains copy under the same mutex, so a live
/// thread and a flusher never race on the vector. The mutex is uncontended
/// on the hot path (the flusher touches it once per drain).
struct Ring {
  std::mutex mutex;
  std::vector<Event> events;
  std::uint64_t dropped = 0;
  std::uint64_t tid = 0;
  std::uint64_t generation = 0;
};

struct Recorder {
  std::mutex mutex;  // guards rings, sink_path, epoch bookkeeping
  std::vector<std::shared_ptr<Ring>> rings;
  std::string sink_path;
  std::uint64_t next_tid = 1;
  // Bumped by trace_reset/flush so threads holding a stale ring pointer
  // re-register instead of writing into an unregistered buffer.
  std::atomic<std::uint64_t> generation{1};
  std::atomic<std::uint64_t> epoch_ns{0};
};

Recorder& recorder() {
  static Recorder* r = new Recorder;  // leaked: threads may emit at exit
  return *r;
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct ThreadSlot {
  std::shared_ptr<Ring> ring;
};

Ring& thread_ring() {
  thread_local ThreadSlot slot;
  Recorder& r = recorder();
  const std::uint64_t gen = r.generation.load(std::memory_order_acquire);
  if (!slot.ring || slot.ring->generation != gen) {
    auto fresh = std::make_shared<Ring>();
    fresh->events.reserve(1024);
    fresh->generation = gen;
    {
      std::lock_guard<std::mutex> lock(r.mutex);
      fresh->tid = r.next_tid++;
      r.rings.push_back(fresh);
    }
    slot.ring = std::move(fresh);
  }
  return *slot.ring;
}

/// Copy every ring's events out under their mutexes. Returns rings in
/// registration order; does not clear them.
struct Capture {
  std::vector<std::pair<std::uint64_t, std::vector<Event>>> per_thread;
  std::uint64_t dropped = 0;
  std::size_t events = 0;
};

Capture capture_all() {
  Recorder& r = recorder();
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    rings = r.rings;
  }
  Capture cap;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    cap.dropped += ring->dropped;
    cap.events += ring->events.size();
    cap.per_thread.emplace_back(ring->tid, ring->events);
  }
  return cap;
}

std::string render_json(const Capture& cap) {
  std::string out;
  out.reserve(cap.events * 80 + 256);
  out += "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const auto& [tid, events] : cap.per_thread) {
    for (const Event& e : events) {
      if (!first) out += ",\n";
      first = false;
      out += "{\"name\":";
      append_json_string(out, e.name);
      out += ",\"ph\":\"";
      out.push_back(e.phase);
      // Chrome trace timestamps are microseconds; keep ns precision in the
      // fraction.
      std::snprintf(buf, sizeof buf, "\",\"ts\":%llu.%03llu",
                    static_cast<unsigned long long>(e.ts_ns / 1000),
                    static_cast<unsigned long long>(e.ts_ns % 1000));
      out += buf;
      out += ",\"pid\":1,\"tid\":" + std::to_string(tid);
      if (e.phase == 'i') out += ",\"s\":\"t\"";
      if (e.arg_name != nullptr || e.ctx != 0) {
        out += ",\"args\":{";
        if (e.arg_name != nullptr) {
          append_json_string(out, e.arg_name);
          out += ":" + std::to_string(e.arg);
          if (e.ctx != 0) out += ",";
        }
        if (e.ctx != 0) out += "\"ctx\":" + std::to_string(e.ctx);
        out += "}";
      }
      out += "}";
    }
  }
  out += "],\"displayTimeUnit\":\"ms\",\"metadata\":{\"events\":" +
         std::to_string(cap.events) +
         ",\"dropped\":" + std::to_string(cap.dropped) + "}}";
  return out;
}

/// Stop recording, bump the generation (so stale thread-local rings are
/// abandoned), and detach the current ring set for rendering.
Capture stop_and_take() {
  Recorder& r = recorder();
  detail::g_trace_enabled.store(false, std::memory_order_release);
  Capture cap = capture_all();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.generation.fetch_add(1, std::memory_order_acq_rel);
  r.rings.clear();
  r.next_tid = 1;
  return cap;
}

}  // namespace

namespace detail {

void emit(const char* name, char phase, const char* arg_name,
          std::uint64_t arg) noexcept {
  if (name == nullptr) return;
  Ring& ring = thread_ring();
  const std::uint64_t ts =
      steady_now_ns() - recorder().epoch_ns.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(ring.mutex);
  if (ring.events.size() >= kTraceRingCapacity) {
    // Drop-newest: the recorded prefix (with its balanced B/E pairs) is
    // worth more than the tail. trace_check.py tolerates unclosed spans
    // exactly when metadata.dropped > 0.
    ++ring.dropped;
    return;
  }
  ring.events.push_back(Event{name, arg_name, arg, ts, t_trace_ctx, phase});
}

}  // namespace detail

void trace_set_context(std::uint64_t ctx) noexcept { t_trace_ctx = ctx; }

std::uint64_t trace_context() noexcept { return t_trace_ctx; }

void trace_set_output(std::string path) {
  Recorder& r = recorder();
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    r.sink_path = std::move(path);
  }
  r.epoch_ns.store(steady_now_ns(), std::memory_order_relaxed);
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

bool trace_flush() {
  Recorder& r = recorder();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    path = r.sink_path;
  }
  if (path.empty()) return false;
  const std::string json = render_json(stop_and_take());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.put('\n');
  return static_cast<bool>(out);
}

std::string trace_to_json() { return render_json(stop_and_take()); }

std::string trace_tail_json(std::size_t max_events) {
  // Non-destructive: capture_all() copies the rings without clearing them,
  // so a later trace_flush() still renders the full recording.
  Capture cap = capture_all();
  std::vector<std::pair<std::uint64_t, Event>> flat;
  flat.reserve(cap.events);
  for (const auto& [tid, events] : cap.per_thread) {
    for (const Event& e : events) flat.emplace_back(tid, e);
  }
  std::stable_sort(flat.begin(), flat.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.ts_ns < b.second.ts_ns;
                   });
  if (flat.size() > max_events) {
    flat.erase(flat.begin(),
               flat.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  Capture tail;
  tail.dropped = cap.dropped;
  tail.events = flat.size();
  for (const auto& [tid, e] : flat) {
    if (tail.per_thread.empty() || tail.per_thread.back().first != tid) {
      tail.per_thread.emplace_back(tid, std::vector<Event>{});
    }
    tail.per_thread.back().second.push_back(e);
  }
  return render_json(tail);
}

void trace_reset() {
  Recorder& r = recorder();
  (void)stop_and_take();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.sink_path.clear();
}

std::size_t trace_event_count() { return capture_all().events; }

std::uint64_t trace_dropped() { return capture_all().dropped; }

}  // namespace rbpeb::obs

#endif  // RBPEB_OBS_NO_TRACE

#include "src/solvers/bigstate/spill.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <system_error>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/support/check.hpp"

namespace rbpeb::bigstate {

namespace fs = std::filesystem;

// ---- record field access --------------------------------------------------

std::int64_t spill_record_g(const SpillLayout& layout,
                            const std::uint8_t* rec) {
  std::int64_t g;
  std::memcpy(&g, rec + layout.g_offset(), sizeof(g));
  return g;
}

bool spill_record_expanded(const SpillLayout& layout, const std::uint8_t* rec) {
  return (rec[layout.flags_offset()] & kSpillFlagExpanded) != 0;
}

std::uint16_t spill_record_deferred(const SpillLayout& layout,
                                    const std::uint8_t* rec) {
  std::uint16_t deferred;
  std::memcpy(&deferred, rec + layout.deferred_offset(), sizeof(deferred));
  return deferred;
}

Move spill_record_via(const SpillLayout& layout, const std::uint8_t* rec) {
  std::uint32_t node;
  std::memcpy(&node, rec + layout.node_offset(), sizeof(node));
  return Move{static_cast<MoveType>(rec[layout.type_offset()]),
              static_cast<NodeId>(node)};
}

unsigned spill_record_prior(const SpillLayout& layout,
                            const std::uint8_t* rec) {
  return (rec[layout.flags_offset()] >> kSpillPriorShift) & 7u;
}

void spill_record_store(const SpillLayout& layout, std::uint8_t* rec,
                        std::int64_t g, Move via, unsigned prior, bool expanded,
                        std::uint16_t deferred) {
  std::memcpy(rec + layout.g_offset(), &g, sizeof(g));
  const std::uint32_t node = static_cast<std::uint32_t>(via.node);
  std::memcpy(rec + layout.node_offset(), &node, sizeof(node));
  rec[layout.type_offset()] = static_cast<std::uint8_t>(via.type);
  rec[layout.flags_offset()] = static_cast<std::uint8_t>(
      (expanded ? kSpillFlagExpanded : 0) | (prior << kSpillPriorShift));
  std::memcpy(rec + layout.deferred_offset(), &deferred, sizeof(deferred));
}

bool spill_record_better(const SpillLayout& layout, const std::uint8_t* a,
                         const std::uint8_t* b) {
  const std::int64_t ga = spill_record_g(layout, a);
  const std::int64_t gb = spill_record_g(layout, b);
  if (ga != gb) return ga < gb;
  return spill_record_expanded(layout, a) && !spill_record_expanded(layout, b);
}

void sort_spill_records(const SpillLayout& layout, std::uint8_t* records,
                        std::size_t count) {
  const std::size_t rb = layout.record_bytes();
  std::vector<std::uint32_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return std::memcmp(records + a * rb, records + b * rb,
                                 layout.key_bytes) < 0;
            });
  std::vector<std::uint8_t> sorted(count * rb);
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(sorted.data() + i * rb, records + order[i] * rb, rb);
  }
  std::memcpy(records, sorted.data(), sorted.size());
}

// ---- SpillDirectory -------------------------------------------------------

SpillDirectory SpillDirectory::create(const std::string& base) {
  static std::atomic<std::uint64_t> counter{0};
  std::error_code ec;
  fs::path root = base.empty() ? fs::temp_directory_path(ec) : fs::path(base);
  RBPEB_REQUIRE(!ec, "spill: cannot resolve the system temp directory");
  const fs::path dir =
      root / ("rbpeb-spill-" +
              std::to_string(static_cast<unsigned long long>(::getpid())) +
              "-" + std::to_string(counter.fetch_add(1)));
  fs::create_directories(dir, ec);
  RBPEB_REQUIRE(!ec, "spill: cannot create spill directory " + dir.string());
  return SpillDirectory(dir.string());
}

SpillDirectory::SpillDirectory(SpillDirectory&& o) noexcept
    : path_(std::move(o.path_)) {
  o.path_.clear();
}

SpillDirectory& SpillDirectory::operator=(SpillDirectory&& o) noexcept {
  if (this == &o) return *this;
  remove_tree();
  path_ = std::move(o.path_);
  o.path_.clear();
  return *this;
}

SpillDirectory::~SpillDirectory() { remove_tree(); }

void SpillDirectory::remove_tree() noexcept {
  if (path_.empty()) return;
  std::error_code ec;
  fs::remove_all(path_, ec);  // best effort; never throws from a destructor
  path_.clear();
}

std::string SpillDirectory::partition(const std::string& name) const {
  const fs::path dir = fs::path(path_) / name;
  std::error_code ec;
  fs::create_directories(dir, ec);
  RBPEB_REQUIRE(!ec, "spill: cannot create partition " + dir.string());
  return dir.string();
}

// ---- SpillRunSet ----------------------------------------------------------

namespace {

/// Runs beyond this count are folded into one before the next append: point
/// lookups pay one binary search per run, so unbounded run counts would turn
/// every duplicate check into a linear scan over search history.
constexpr std::size_t kMaxRuns = 8;

/// Records per buffered chunk while streaming a run sequentially.
constexpr std::size_t kChunkRecords = 1024;

/// Batches below this size resolve by per-key binary search; a full
/// merge-join sweep over every run only pays off once the batch is wide.
constexpr std::size_t kPointLookupBatch = 64;

/// Sequential chunked reader over one run file.
class RunReader {
 public:
  RunReader(std::ifstream& stream, std::size_t records, std::size_t rb)
      : stream_(stream), remaining_(records), rb_(rb) {
    stream_.clear();
    stream_.seekg(0);
    buffer_.resize(kChunkRecords * rb_);
    refill();
  }

  const std::uint8_t* front() const {
    return done() ? nullptr : buffer_.data() + pos_ * rb_;
  }

  bool done() const { return pos_ == filled_ && remaining_ == 0; }

  void advance() {
    ++pos_;
    if (pos_ == filled_) refill();
  }

 private:
  void refill() {
    pos_ = 0;
    filled_ = std::min(remaining_, kChunkRecords);
    remaining_ -= filled_;
    if (filled_ > 0) {
      stream_.read(reinterpret_cast<char*>(buffer_.data()),
                   static_cast<std::streamsize>(filled_ * rb_));
      // A short or failed read would hand the merge fabricated records —
      // and a fabricated g could end up "proving" a wrong optimum. Crash
      // instead (the project's silent-corruption-is-worse-than-a-crash
      // rule; check.hpp).
      RBPEB_ENSURE(stream_.good(), "spill: run read failed mid-merge");
    }
  }

  std::ifstream& stream_;
  std::size_t remaining_;
  std::size_t rb_;
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
};

}  // namespace

SpillRunSet::SpillRunSet(SpillLayout layout, std::string dir,
                         std::size_t max_disk_bytes)
    : layout_(layout), dir_(std::move(dir)), max_disk_bytes_(max_disk_bytes) {}

bool SpillRunSet::write_run(const std::uint8_t* records, std::size_t count) {
  const std::size_t bytes = count * layout_.record_bytes();
  const std::string path =
      (fs::path(dir_) / ("run-" + std::to_string(next_run_id_++) + ".spill"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(records),
              static_cast<std::streamsize>(bytes));
    if (!out) {
      // A half-written run is useless and sits on an already-full disk;
      // free the space at the failure point, not at directory teardown.
      std::error_code ec;
      fs::remove(path, ec);
      return false;
    }
  }
  auto run = std::make_unique<Run>();
  run->path = path;
  run->records = count;
  run->stream.open(path, std::ios::binary);
  if (!run->stream) return false;
  runs_.push_back(std::move(run));
  disk_bytes_ += bytes;
  peak_disk_bytes_ = std::max(peak_disk_bytes_, disk_bytes_);
  bytes_written_ += bytes;
  return true;
}

bool SpillRunSet::append_run(const std::uint8_t* records, std::size_t count) {
  if (count == 0) return true;
  const std::size_t bytes = count * layout_.record_bytes();
  if (runs_.size() >= kMaxRuns ||
      (max_disk_bytes_ != 0 && !runs_.empty() &&
       disk_bytes_ + bytes > max_disk_bytes_)) {
    if (!compact()) {
      last_failure_ = SpillFailure::Io;
      return false;
    }
  }
  if (max_disk_bytes_ != 0 && disk_bytes_ + bytes > max_disk_bytes_) {
    last_failure_ = SpillFailure::DiskBudget;
    return false;  // disk budget exhausted even after compaction
  }
  if (!write_run(records, count)) {
    last_failure_ = SpillFailure::Io;
    return false;
  }
  records_spilled_ += count;
  return true;
}

bool SpillRunSet::compact() {
  if (runs_.size() < 2) return true;
  ++merge_passes_;
  const obs::TraceSpan span("spill.compact", "runs", runs_.size());
  obs::MetricsRegistry::instance().counter("spill.compactions").add();
  const std::size_t rb = layout_.record_bytes();
  std::vector<RunReader> readers;
  readers.reserve(runs_.size());
  for (const auto& run : runs_) {
    readers.emplace_back(run->stream, run->records, rb);
  }
  const std::string path =
      (fs::path(dir_) / ("run-" + std::to_string(next_run_id_++) + ".spill"))
          .string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::vector<std::uint8_t> best(rb);
  std::vector<std::uint8_t> min_key(layout_.key_bytes);
  std::vector<std::uint8_t> write_buffer;
  write_buffer.reserve(kChunkRecords * rb);
  std::size_t merged = 0;
  while (true) {
    // Smallest front key across readers (copied out: advancing a reader
    // invalidates its front); all records carrying it fold into one best
    // record (min g; expanded beats open at equal g).
    bool have_key = false;
    for (RunReader& reader : readers) {
      const std::uint8_t* front = reader.front();
      if (front == nullptr) continue;
      if (!have_key ||
          std::memcmp(front, min_key.data(), layout_.key_bytes) < 0) {
        std::memcpy(min_key.data(), front, layout_.key_bytes);
        have_key = true;
      }
    }
    if (!have_key) break;
    bool have_best = false;
    for (RunReader& reader : readers) {
      const std::uint8_t* front = reader.front();
      while (front != nullptr &&
             std::memcmp(front, min_key.data(), layout_.key_bytes) == 0) {
        // Newest (later run) wins ties: its bookkeeping — the deferred-
        // duplicate count in particular — supersedes older snapshots.
        if (!have_best || !spill_record_better(layout_, best.data(), front)) {
          std::memcpy(best.data(), front, rb);
          have_best = true;
        }
        reader.advance();
        front = reader.front();
      }
    }
    write_buffer.insert(write_buffer.end(), best.begin(), best.end());
    ++merged;
    if (write_buffer.size() >= kChunkRecords * rb) {
      out.write(reinterpret_cast<const char*>(write_buffer.data()),
                static_cast<std::streamsize>(write_buffer.size()));
      write_buffer.clear();
    }
  }
  if (!write_buffer.empty()) {
    out.write(reinterpret_cast<const char*>(write_buffer.data()),
              static_cast<std::streamsize>(write_buffer.size()));
  }
  out.close();
  if (!out) return false;
  bytes_written_ += merged * rb;
  // The compaction transient: the merged output coexists with every old run
  // until drop_runs() below — the on-disk high-water mark this run set ever
  // reaches, and what spill_peak_bytes reports for provisioning.
  peak_disk_bytes_ = std::max(peak_disk_bytes_, disk_bytes_ + merged * rb);
  drop_runs();
  auto run = std::make_unique<Run>();
  run->path = path;
  run->records = merged;
  run->stream.open(path, std::ios::binary);
  if (!run->stream) return false;
  disk_bytes_ = merged * rb;
  runs_.push_back(std::move(run));
  return true;
}

void SpillRunSet::drop_runs() {
  std::error_code ec;
  for (const auto& run : runs_) {
    run->stream.close();
    fs::remove(run->path, ec);  // best effort
  }
  runs_.clear();
  disk_bytes_ = 0;
}

bool SpillRunSet::lookup_in_run(const Run& run, const std::uint8_t* key,
                                std::uint8_t* out) const {
  const std::size_t rb = layout_.record_bytes();
  std::size_t lo = 0;
  std::size_t hi = run.records;
  run.stream.clear();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    run.stream.seekg(static_cast<std::streamoff>(mid * rb));
    run.stream.read(reinterpret_cast<char*>(out),
                    static_cast<std::streamsize>(rb));
    // Same rule as RunReader::refill: a failed read must never pass a
    // fabricated record off as the duplicate-detection truth.
    RBPEB_ENSURE(run.stream.good(), "spill: run read failed during lookup");
    const int cmp = std::memcmp(out, key, layout_.key_bytes);
    if (cmp == 0) return true;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

bool SpillRunSet::lookup(const std::uint8_t* key, std::uint8_t* out) const {
  const std::size_t rb = layout_.record_bytes();
  lookup_scratch_.resize(rb);
  std::vector<std::uint8_t>& candidate = lookup_scratch_;
  bool found = false;
  for (const auto& run : runs_) {
    if (!lookup_in_run(*run, key, candidate.data())) continue;
    // Runs iterate oldest→newest; the newest record wins ties.
    if (!found || !spill_record_better(layout_, out, candidate.data())) {
      std::memcpy(out, candidate.data(), rb);
    }
    found = true;
  }
  return found;
}

void SpillRunSet::batch_lookup(
    const std::uint8_t* keys, std::size_t count,
    const std::function<void(std::size_t, const std::uint8_t*)>& on_match) {
  if (runs_.empty() || count == 0) return;
  ++merge_passes_;
  const std::size_t rb = layout_.record_bytes();
  const std::size_t kb = layout_.key_bytes;
  if (count < kPointLookupBatch) {
    std::vector<std::uint8_t> best(rb);
    for (std::size_t i = 0; i < count; ++i) {
      if (lookup(keys + i * kb, best.data())) on_match(i, best.data());
    }
    return;
  }
  // Wide batch: one sequential merge-join sweep per run, folding matches
  // into a per-key best buffer so the callback sees cross-run winners only.
  std::vector<std::uint8_t> best(count * rb);
  std::vector<char> found(count, 0);
  for (const auto& run : runs_) {
    RunReader reader(run->stream, run->records, rb);
    std::size_t i = 0;
    while (i < count) {
      const std::uint8_t* front = reader.front();
      if (front == nullptr) break;
      const int cmp = std::memcmp(front, keys + i * kb, kb);
      if (cmp < 0) {
        reader.advance();
      } else if (cmp > 0) {
        ++i;
      } else {
        std::uint8_t* slot = best.data() + i * rb;
        // Runs iterate oldest→newest; the newest record wins ties.
        if (!found[i] || !spill_record_better(layout_, slot, front)) {
          std::memcpy(slot, front, rb);
        }
        found[i] = 1;
        reader.advance();
        ++i;
      }
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (found[i]) on_match(i, best.data() + i * rb);
  }
}

}  // namespace rbpeb::bigstate

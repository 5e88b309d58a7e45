#include "src/solvers/bigstate/spill.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
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
                        std::int64_t g, Move via, unsigned prior,
                        bool expanded) {
  std::memcpy(rec + layout.g_offset(), &g, sizeof(g));
  const std::uint32_t node = static_cast<std::uint32_t>(via.node);
  std::memcpy(rec + layout.node_offset(), &node, sizeof(node));
  rec[layout.type_offset()] = static_cast<std::uint8_t>(via.type);
  rec[layout.flags_offset()] = static_cast<std::uint8_t>(
      (expanded ? kSpillFlagExpanded : 0) | (prior << kSpillPriorShift));
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

/// Runs beyond this count are folded into one before the next append: a
/// lookup probes every run's filter, so unbounded run counts would make
/// every RAM miss pay for the whole search history.
constexpr std::size_t kMaxRuns = 8;

/// Records per buffered chunk while streaming a run sequentially.
constexpr std::size_t kChunkRecords = 1024;

/// A fence block: the unit one lookup reads.
constexpr std::size_t kBlockBytes = 4096;

/// Filter geometry: ~10 bits per key in 512-bit (cache-line) blocks, 7 bits
/// per key inside its block — about a 1% false-positive rate.
constexpr std::size_t kFilterBitsPerKey = 10;
constexpr std::size_t kFilterBlockWords = 8;
constexpr std::size_t kFilterBlockBits = kFilterBlockWords * 64;
constexpr unsigned kFilterProbes = 7;

std::size_t records_per_block(const SpillLayout& layout) {
  return std::max<std::size_t>(1, kBlockBytes / layout.record_bytes());
}

/// Call `visit(word, mask)` for each filter bit of `hash` in a filter of
/// `words` words: the block from the hash's high bits (multiply-shift range
/// reduction), the bits from 9-bit (log2 kFilterBlockBits) slices of a
/// multiplicative remix.
template <class Visit>
void for_each_filter_bit(std::size_t words, std::uint64_t hash, Visit&& visit) {
  const std::size_t blocks = words / kFilterBlockWords;
  const auto block = static_cast<std::size_t>(
      (static_cast<unsigned __int128>(hash) * blocks) >> 64);
  std::uint64_t bits = hash * 0x9e3779b97f4a7c15ull;
  for (unsigned i = 0; i < kFilterProbes; ++i, bits >>= 9) {
    const auto bit = static_cast<std::size_t>(bits % kFilterBlockBits);
    visit(block * kFilterBlockWords + bit / 64, std::uint64_t{1} << (bit % 64));
  }
}

/// Write all of `bytes` at the end of `fd`. False on any failure.
bool write_all(int fd, const std::uint8_t* data, std::size_t bytes) {
  while (bytes > 0) {
    const ssize_t n = ::write(fd, data, bytes);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Read exactly `bytes` at `offset`. A short or failed read would hand a
/// lookup or a merge fabricated records — and a fabricated g could end up
/// "proving" a wrong optimum. Crash instead (the project's
/// silent-corruption-is-worse-than-a-crash rule; check.hpp).
void read_exact(int fd, std::uint8_t* out, std::size_t bytes,
                std::size_t offset) {
  while (bytes > 0) {
    const ssize_t n = ::pread(fd, out, bytes, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    RBPEB_ENSURE(n > 0, "spill: run read failed");
    out += n;
    offset += static_cast<std::size_t>(n);
    bytes -= static_cast<std::size_t>(n);
  }
}

/// Sequential chunked reader over one run file.
class RunReader {
 public:
  RunReader(int fd, std::size_t records, std::size_t rb)
      : fd_(fd), remaining_(records), rb_(rb) {
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
    read_exact(fd_, buffer_.data(), filled_ * rb_, offset_);
    offset_ += filled_ * rb_;
  }

  int fd_;
  std::size_t remaining_;
  std::size_t rb_;
  std::size_t offset_ = 0;
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
};

}  // namespace

/// One run file with its read index. The file lives exactly as long as the
/// Run: destroying it closes and deletes the file.
struct SpillRunSet::Run {
  std::string path;
  int fd = -1;
  std::size_t records = 0;
  std::vector<std::uint8_t> fences;   ///< first key of each block
  std::vector<std::uint64_t> filter;  ///< kFilterBlockWords words per block
  mutable bool read_traced = false;   ///< spill.read already emitted

  Run(std::string run_path, int run_fd)
      : path(std::move(run_path)), fd(run_fd) {}
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;
  ~Run() {
    ::close(fd);
    std::error_code ec;
    fs::remove(path, ec);  // best effort; never throws from a destructor
  }

  std::size_t index_bytes() const {
    return fences.capacity() + filter.capacity() * sizeof(std::uint64_t);
  }
};

SpillRunSet::SpillRunSet(SpillLayout layout, std::string dir,
                         std::size_t max_disk_bytes, SpillKeyHash key_hash)
    : layout_(layout),
      dir_(std::move(dir)),
      max_disk_bytes_(max_disk_bytes),
      key_hash_(key_hash) {}

SpillRunSet::~SpillRunSet() { drop_runs(); }

std::unique_ptr<SpillRunSet::Run> SpillRunSet::create_run() {
  const std::string path =
      (fs::path(dir_) / ("run-" + std::to_string(next_run_id_++) + ".spill"))
          .string();
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return nullptr;
  return std::make_unique<Run>(path, fd);
}

void SpillRunSet::adopt_run(std::unique_ptr<Run> run, std::size_t records) {
  const std::size_t rb = layout_.record_bytes();
  const std::size_t kb = layout_.key_bytes;
  const std::size_t per_block = records_per_block(layout_);
  const std::size_t filter_blocks = std::max<std::size_t>(
      1, (records * kFilterBitsPerKey + kFilterBlockBits - 1) /
             kFilterBlockBits);
  run->records = records;
  run->fences.resize((records + per_block - 1) / per_block * kb);
  run->filter.assign(filter_blocks * kFilterBlockWords, 0);
  RunReader reader(run->fd, records, rb);
  for (std::size_t i = 0; !reader.done(); ++i, reader.advance()) {
    const std::uint8_t* rec = reader.front();
    if (i % per_block == 0) {
      std::memcpy(run->fences.data() + i / per_block * kb, rec, kb);
    }
    for_each_filter_bit(run->filter.size(), key_hash_(rec, kb),
                        [&](std::size_t word, std::uint64_t mask) {
                          run->filter[word] |= mask;
                        });
  }
  disk_bytes_ += records * rb;
  peak_disk_bytes_ = std::max(peak_disk_bytes_, disk_bytes_);
  bytes_written_ += records * rb;
  index_bytes_ += run->index_bytes();
  runs_.push_back(std::move(run));
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
  std::unique_ptr<Run> run = create_run();
  // A half-written run is useless and sits on an already-full disk; the
  // Run deletes it at the failure point, not at directory teardown.
  if (!run || !write_all(run->fd, records, bytes)) {
    last_failure_ = SpillFailure::Io;
    return false;
  }
  adopt_run(std::move(run), count);
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
    readers.emplace_back(run->fd, run->records, rb);
  }
  std::unique_ptr<Run> out = create_run();
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
        // Newest (later run) wins ties, as in lookup().
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
      if (!write_all(out->fd, write_buffer.data(), write_buffer.size())) {
        return false;
      }
      write_buffer.clear();
    }
  }
  if (!write_all(out->fd, write_buffer.data(), write_buffer.size())) {
    return false;
  }
  // The compaction transient: the merged output coexists with every old run
  // until drop_runs() below — the on-disk high-water mark this run set ever
  // reaches, and what spill_peak_bytes reports for provisioning.
  peak_disk_bytes_ = std::max(peak_disk_bytes_, disk_bytes_ + merged * rb);
  drop_runs();
  adopt_run(std::move(out), merged);
  return true;
}

void SpillRunSet::drop_runs() {
  runs_.clear();  // each Run deletes its file
  disk_bytes_ = 0;
  index_bytes_ = 0;
}

bool SpillRunSet::read_record(const Run& run, const std::uint8_t* key,
                              std::uint64_t hash, std::uint8_t* out) const {
  bool may_hold = true;
  for_each_filter_bit(run.filter.size(), hash,
                      [&](std::size_t word, std::uint64_t mask) {
                        may_hold = may_hold && (run.filter[word] & mask) != 0;
                      });
  if (!may_hold) return false;
  // The block to read is the last one whose first key is <= key.
  const std::size_t kb = layout_.key_bytes;
  std::size_t lo = 0;
  std::size_t hi = run.fences.size() / kb;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (std::memcmp(run.fences.data() + mid * kb, key, kb) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return false;  // before the run's first key
  const std::size_t rb = layout_.record_bytes();
  const std::size_t per_block = records_per_block(layout_);
  const std::size_t first = (lo - 1) * per_block;
  const std::size_t count = std::min(per_block, run.records - first);
  block_scratch_.resize(per_block * rb);
  read_exact(run.fd, block_scratch_.data(), count * rb, first * rb);
  static obs::Counter& block_reads =
      obs::MetricsRegistry::instance().counter("spill.block_reads");
  block_reads.add();
  if (!run.read_traced) {
    run.read_traced = true;
    obs::trace_instant("spill.read", "records", run.records);
  }
  lo = 0;
  hi = count;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::uint8_t* rec = block_scratch_.data() + mid * rb;
    const int cmp = std::memcmp(rec, key, kb);
    if (cmp == 0) {
      std::memcpy(out, rec, rb);
      return true;
    }
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

bool SpillRunSet::lookup(const std::uint8_t* key, std::uint64_t hash,
                         std::uint8_t* out) const {
  const std::size_t rb = layout_.record_bytes();
  record_scratch_.resize(rb);
  bool found = false;
  for (const auto& run : runs_) {
    if (!read_record(*run, key, hash, record_scratch_.data())) continue;
    // Runs iterate oldest→newest; the newest record wins ties.
    if (!found || !spill_record_better(layout_, out, record_scratch_.data())) {
      std::memcpy(out, record_scratch_.data(), rb);
    }
    found = true;
  }
  return found;
}

}  // namespace rbpeb::bigstate

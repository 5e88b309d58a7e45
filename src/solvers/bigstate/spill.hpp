// Disk spill runs for the external-memory closed table (bigstate/ddd.hpp).
//
// When a memory-budgeted search must shed closed entries, it serializes them
// into fixed-size records and hands them here as *sorted runs* — immutable
// files of records ordered by key bytes. This layer is deliberately
// type-erased: it knows record geometry (SpillLayout), not packed-state
// types, so one non-templated implementation serves every PackedKey width
// alike, and the templated table above it only ever serializes and
// deserializes at the boundary.
//
// Operations, all O(log) seeks or one sequential sweep per run:
//  * lookup — best record for one key via per-run binary search (runs hold
//    at most one record per key; across runs the best by (g, expanded-first)
//    wins, newer knowledge superseding older);
//  * batch_lookup — one delayed-duplicate-detection pass: a sorted batch of
//    fresh keys merge-joined against every run (small batches degrade to
//    point lookups so a near-empty pass never pays a full run sweep);
//  * compaction — when runs pile up, a k-way merge folds them into one,
//    keeping the best record per key; triggered by run count or by the disk
//    budget before a new run would exceed it.
//
// A SpillDirectory owns the directory tree the runs live in and removes it
// on destruction — a cancelled or crashed-out search leaks no spill files
// (tests/solvers/test_spill.cpp holds the cleanup regression).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/pebble/move.hpp"

namespace rbpeb::bigstate {

/// Geometry of one spilled closed-table record:
///   [key][parent key][g : int64][node : uint32][type : uint8]
///   [flags : uint8][deferred : uint16]
/// — all little-endian memcpy, fixed size per instance because every key of
/// one search serializes to the same width. `deferred` counts duplicate
/// open-queue items that must be consumed before the state's original item
/// may expand it (ddd.hpp uses this to keep spilled expansion order
/// bit-identical to the in-memory search).
struct SpillLayout {
  std::size_t key_bytes = 0;

  std::size_t parent_offset() const { return key_bytes; }
  std::size_t g_offset() const { return 2 * key_bytes; }
  std::size_t node_offset() const { return 2 * key_bytes + 8; }
  std::size_t type_offset() const { return 2 * key_bytes + 12; }
  std::size_t flags_offset() const { return 2 * key_bytes + 13; }
  std::size_t deferred_offset() const { return 2 * key_bytes + 14; }
  std::size_t record_bytes() const { return 2 * key_bytes + 16; }
};

/// Record flag bits.
inline constexpr std::uint8_t kSpillFlagExpanded = 1;

/// Why the last append_run failed — a disk budget is actionable (raise
/// --budget-disk), an I/O failure is not (the filesystem itself failed).
enum class SpillFailure { None, DiskBudget, Io };

/// Field accessors over a raw record (alignment-safe).
std::int64_t spill_record_g(const SpillLayout& layout, const std::uint8_t* rec);
bool spill_record_expanded(const SpillLayout& layout, const std::uint8_t* rec);
std::uint16_t spill_record_deferred(const SpillLayout& layout,
                                    const std::uint8_t* rec);
Move spill_record_via(const SpillLayout& layout, const std::uint8_t* rec);
void spill_record_store(const SpillLayout& layout, std::uint8_t* rec,
                        std::int64_t g, Move via, bool expanded,
                        std::uint16_t deferred = 0);

/// True when `a` is a strictly better path record than `b` for the same key:
/// smaller g, or equal g with `a` already expanded (later knowledge).
bool spill_record_better(const SpillLayout& layout, const std::uint8_t* a,
                         const std::uint8_t* b);

/// Sort a buffer of `count` contiguous records in place by their key bytes
/// (memcmp order — any total order works as long as writer and reader
/// agree). Keys must be unique within the buffer.
void sort_spill_records(const SpillLayout& layout, std::uint8_t* records,
                        std::size_t count);

/// An owned directory for one search's spill runs, removed (recursively) on
/// destruction. Each search creates a unique one; hda-astar hands each
/// shard its own partition beneath it.
class SpillDirectory {
 public:
  /// Create a unique directory under `base` ("" = the system temp dir).
  /// Throws PreconditionError when the base is not writable.
  static SpillDirectory create(const std::string& base);

  SpillDirectory(SpillDirectory&&) noexcept;
  SpillDirectory& operator=(SpillDirectory&&) noexcept;
  SpillDirectory(const SpillDirectory&) = delete;
  SpillDirectory& operator=(const SpillDirectory&) = delete;
  ~SpillDirectory();

  const std::string& path() const { return path_; }

  /// Create (if needed) and return the subdirectory `name` — one per
  /// hda-astar shard, so workers never share a run file.
  std::string partition(const std::string& name) const;

 private:
  explicit SpillDirectory(std::string path) : path_(std::move(path)) {}

  void remove_tree() noexcept;

  std::string path_;  ///< empty after a move-out: nothing to remove
};

/// The sorted spill runs of one closed table (one search, or one hda-astar
/// shard — single-owner, never shared across threads).
class SpillRunSet {
 public:
  /// `max_disk_bytes` caps the live run files (0 = unlimited); exceeding it
  /// fails append_run after a compaction attempt, which the searches
  /// surface as ExactTermination::MemoryBudget. Note: a compaction
  /// transiently holds the old runs plus the merged output — up to ~2x the
  /// cap on disk — before the old files are removed (the disk analogue of
  /// the closed table's rehash transient; budget with that headroom).
  SpillRunSet(SpillLayout layout, std::string dir,
              std::size_t max_disk_bytes);

  const SpillLayout& layout() const { return layout_; }
  bool empty() const { return runs_.empty(); }
  std::size_t run_count() const { return runs_.size(); }

  /// Cumulative records evicted into runs (stats: spilled_states).
  std::size_t records_spilled() const { return records_spilled_; }
  /// Cumulative bytes written, compaction rewrites included (spill_bytes).
  std::size_t bytes_written() const { return bytes_written_; }
  /// Batched reconciliations plus compactions (stats: merge_passes).
  std::size_t merge_passes() const { return merge_passes_; }
  /// Live bytes on disk right now.
  std::size_t disk_bytes() const { return disk_bytes_; }
  /// High-water mark of bytes simultaneously on disk, compaction transients
  /// included: while a compaction streams its merged output the old runs
  /// are still live, so the peak can reach ~2x the steady-state footprint.
  /// This is the number to provision (and admission-control) against, not
  /// disk_bytes() (stats: spill_peak_bytes).
  std::size_t peak_disk_bytes() const { return peak_disk_bytes_; }

  /// Cause of the last append_run failure (None if it never failed).
  SpillFailure last_failure() const { return last_failure_; }

  /// Persist `count` records (sorted by key, unique) as a new run. False
  /// when the disk budget still blocks it after compaction — the table
  /// stays consistent and the caller terminates the search.
  bool append_run(const std::uint8_t* records, std::size_t count);

  /// Best record for `key` across all runs into `out` (record_bytes()
  /// long); false when no run holds the key.
  bool lookup(const std::uint8_t* key, std::uint8_t* out) const;

  /// One delayed-duplicate-detection pass: for each of `count` sorted,
  /// unique serialized keys (stride key_bytes), find the best on-disk
  /// record; `on_match(index, record)` fires for every key found. Counts as
  /// a merge pass.
  void batch_lookup(
      const std::uint8_t* keys, std::size_t count,
      const std::function<void(std::size_t, const std::uint8_t*)>& on_match);

 private:
  struct Run {
    std::string path;
    std::size_t records = 0;
    mutable std::ifstream stream;  ///< kept open; single-owner access
  };

  bool write_run(const std::uint8_t* records, std::size_t count);
  /// Fold every run into one, best record per key. False on I/O failure.
  bool compact();
  bool lookup_in_run(const Run& run, const std::uint8_t* key,
                     std::uint8_t* out) const;
  void drop_runs();

  SpillLayout layout_;
  std::string dir_;
  std::size_t max_disk_bytes_ = 0;
  std::vector<std::unique_ptr<Run>> runs_;
  std::size_t next_run_id_ = 0;
  std::size_t records_spilled_ = 0;
  std::size_t bytes_written_ = 0;
  std::size_t merge_passes_ = 0;
  std::size_t disk_bytes_ = 0;
  std::size_t peak_disk_bytes_ = 0;
  SpillFailure last_failure_ = SpillFailure::None;
  /// Reused by lookup() — one record per point probe, on the per-pop hot
  /// path of a spilled search. Single-owner class, so no races.
  mutable std::vector<std::uint8_t> lookup_scratch_;
};

}  // namespace rbpeb::bigstate

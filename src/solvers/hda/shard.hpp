// One worker's slice of the hash-distributed A* search.
//
// HDA* (hash-distributed A*) partitions the configuration space by key hash:
// each worker thread *owns* the shard of states whose hash lands on it, and
// it alone touches that shard's closed/open table and Dial bucket queue — no
// locks on the search structures themselves. Generated neighbors that hash
// elsewhere travel as StateMsg batches through the owner's MPSC mailbox, the
// only synchronized structure, kept cold by sender-side batching.
//
// Everything is templated over the packed-state type (a PackedKey<W> of
// solvers/packed_state.hpp); the shard table is the byte-accounted, spill-
// capable SpillingClosedTable (bigstate/ddd.hpp) so a memory budget divides
// evenly across workers — and so does the disk budget: each shard owns a
// private spill partition (a subdirectory of the search's spill directory),
// keeping run files single-owner and the workers lock-free on the disk
// path. Shard ownership hashes through Packed::hash_key — cached and
// incrementally maintained for runtime-width keys, so routing a neighbor
// never rescans it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <string>
#include <vector>

#include "src/pebble/move.hpp"
#include "src/solvers/bigstate/ddd.hpp"
#include "src/solvers/bucket_queue.hpp"

namespace rbpeb::hda {

/// Messages a sender accumulates per target before taking the mailbox lock.
inline constexpr std::size_t kRouteBatchSize = 64;

/// A generated state en route to its owner shard: everything the owner needs
/// to relax it — key, priced path (g, f = g + h), and the tree edge for the
/// eventual path reconstruction.
template <typename Packed>
struct StateMsg {
  typename Packed::Key key;
  typename Packed::Key parent;
  std::int64_t g;
  std::int64_t f;
  Move via;
};

/// Multi-producer single-consumer mailbox. Senders append whole batches
/// under the mutex; the owner drains by swapping the inbox out. Both sides
/// hold the lock for O(batch) pointer moves, never per-message.
template <typename Packed>
class Mailbox {
 public:
  /// Moves the batch's messages in (the caller clears it right after, and
  /// runtime-width keys own heap storage — copying them under the one
  /// contended lock would put two allocations per message in the critical
  /// section).
  void deliver(std::vector<StateMsg<Packed>>& batch) {
    const std::lock_guard<std::mutex> lock(mutex_);
    inbox_.insert(inbox_.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
  }

  /// Swap the inbox into `out` (previous contents discarded); returns the
  /// number of messages received.
  std::size_t drain(std::vector<StateMsg<Packed>>& out) {
    out.clear();
    const std::lock_guard<std::mutex> lock(mutex_);
    out.swap(inbox_);
    return out.size();
  }

  bool empty() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return inbox_.empty();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<StateMsg<Packed>> inbox_;
};

/// The per-worker search state. Only the owning worker reads or writes
/// `table` and `queue`; `mailbox` is the one cross-thread door.
template <typename Packed>
struct Shard {
  using Table = SpillingClosedTable<Packed>;
  using Entry = typename Table::Entry;

  /// Open-queue item; stale once `g` no longer matches the table.
  struct OpenItem {
    typename Packed::Key key;
    std::int64_t g;
  };

  /// `spill_dir` is this shard's private partition ("" = spilling off).
  Shard(std::size_t node_count, std::size_t bucket_count,
        std::size_t max_table_bytes, const std::string& spill_dir,
        std::size_t max_disk_bytes)
      : table(node_count, max_table_bytes, spill_dir, max_disk_bytes),
        queue(bucket_count) {}

  Table table;
  BucketQueue<OpenItem> queue;
  Mailbox<Packed> mailbox;
};

/// Stable state→owner map: upper hash bits, so shard choice stays
/// independent of the table's own (low-bits-leaning) slot indexing.
template <typename Packed>
std::size_t owner_of(const typename Packed::Key& key, std::size_t workers) {
  return (Packed::hash_key(key) >> 32) % workers;
}

}  // namespace rbpeb::hda

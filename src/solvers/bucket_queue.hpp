// Dial-style bucket priority queue over small integer priorities, shared by
// the exact searches (sequential A* and each HDA* shard) and the pattern-
// database builds' backward Dijkstra.
//
// Move costs only take the values {0, ε.num, ε.den} in scaled units, so
// f-values are small integers bounded by the Section 3 universal cost bound
// — a binary heap (plus its stale-entry churn) is overkill. push is O(1);
// pop finds the next non-empty bucket through a one-bit-per-bucket
// occupancy mask, 64 buckets per countr_zero, so the empty buckets between
// sparse f-values (compcost at ε = 1/100 leaves 99 between adjacent ones)
// cost a word read per 64 instead of a read each. The admissible bound is
// not guaranteed consistent, so a reinsertion may land below the cursor —
// the cursor simply moves back, which a monotone Dial queue would forbid
// but costs nothing here. Items within one bucket come out LIFO.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/support/check.hpp"

namespace rbpeb {

template <typename Item>
class BucketQueue {
 public:
  explicit BucketQueue(std::size_t bucket_count)
      : buckets_(bucket_count),
        occupied_((bucket_count + 63) / 64, 0),
        bytes_(buckets_.capacity() * sizeof(std::vector<Item>) +
               occupied_.capacity() * sizeof(std::uint64_t)) {}

  void push(std::int64_t priority, Item item) {
    const auto f = static_cast<std::size_t>(priority);
    std::vector<Item>& bucket = buckets_[f];
    if (bucket.empty()) occupied_[f >> 6] |= std::uint64_t{1} << (f & 63);
    if (bucket.size() == bucket.capacity()) {
      // The push that reallocates: charge the capacity it adds.
      const std::size_t capacity = bucket.capacity();
      bucket.push_back(std::move(item));
      bytes_ += (bucket.capacity() - capacity) * sizeof(Item);
    } else {
      bucket.push_back(std::move(item));
    }
    if (f < cursor_) cursor_ = f;
    ++size_;
  }

  /// The most recently pushed item of the lowest non-empty bucket, with its
  /// priority. Requires a non-empty queue.
  std::pair<std::int64_t, Item> pop() {
    RBPEB_REQUIRE(size_ != 0, "pop() on an empty BucketQueue");
    std::vector<Item>* bucket = &buckets_[cursor_];
    if (bucket->empty()) {
      // Every bucket below the cursor is empty; the first occupied bit past
      // it is the lowest non-empty bucket.
      std::size_t w = cursor_ >> 6;
      std::uint64_t word =
          occupied_[w] & (~std::uint64_t{0} << (cursor_ & 63));
      while (word == 0) word = occupied_[++w];
      cursor_ = (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
      bucket = &buckets_[cursor_];
    }
    Item item = std::move(bucket->back());
    bucket->pop_back();
    if (bucket->empty()) {
      occupied_[cursor_ >> 6] &= ~(std::uint64_t{1} << (cursor_ & 63));
    }
    --size_;
    return {static_cast<std::int64_t>(cursor_), std::move(item)};
  }

  /// Priorities below this are pushable.
  std::size_t bucket_count() const { return buckets_.size(); }

  /// Widen the spine to `count` buckets, at least bucket_count(), keeping
  /// every queued item. push never grows it: the searches size theirs once,
  /// and a caller whose priorities stay far below their bound (the PDB
  /// builds) grows on demand.
  void grow(std::size_t count) {
    RBPEB_REQUIRE(count >= buckets_.size(), "grow() cannot shrink the spine");
    const std::size_t spine = buckets_.capacity();
    const std::size_t mask = occupied_.capacity();
    buckets_.resize(count);
    occupied_.resize((count + 63) / 64, 0);
    bytes_ += (buckets_.capacity() - spine) * sizeof(std::vector<Item>) +
              (occupied_.capacity() - mask) * sizeof(std::uint64_t);
  }

  bool empty() const { return size_ == 0; }

  std::size_t size() const { return size_; }

  /// Visit every queued item as (priority, item), bucket order (ascending
  /// priority). O(bucket count / 64 + size); the progress sampler uses it
  /// at its wall-clock-limited cadence to summarize the open list's f/g
  /// shape — never on the per-expansion path.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t f =
            (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
        for (const Item& item : buckets_[f]) {
          fn(static_cast<std::int64_t>(f), item);
        }
      }
    }
  }

  /// Current heap footprint: the bucket spine and the occupancy mask plus
  /// every bucket's capacity. O(1) — a running total kept by push and grow
  /// (pop never shrinks a bucket), so the searches can charge the queue
  /// against the memory budget at every poll checkpoint.
  std::size_t bytes() const { return bytes_; }

 private:
  std::vector<std::vector<Item>> buckets_;
  std::vector<std::uint64_t> occupied_;  ///< bit f set iff bucket f non-empty
  std::size_t bytes_;
  std::size_t cursor_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rbpeb

// Dial-style bucket priority queues over small integer priorities: the
// exact searches' open lists (KeyQueue: sequential A* and each HDA* shard)
// and the pattern-database builds' backward Dijkstra (BucketQueue).
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
//
// Both queues are one BucketSpine: the buckets, the occupancy mask, the
// cursor and the byte charge. BucketQueue<Item> keeps one Item per slot of
// its bucket; KeyQueue<Packed> keeps each (key, g) as a fixed-stride word
// record, so a runtime-width key costs no heap allocation per push.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/support/check.hpp"

namespace rbpeb {

/// The Dial machinery both queues share, over buckets of T.
template <typename T>
class BucketSpine {
 public:
  explicit BucketSpine(std::size_t bucket_count)
      : buckets_(bucket_count),
        occupied_((bucket_count + 63) / 64, 0),
        bytes_(buckets_.capacity() * sizeof(std::vector<T>) +
               occupied_.capacity() * sizeof(std::uint64_t)) {}

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
    bytes_ += (buckets_.capacity() - spine) * sizeof(std::vector<T>) +
              (occupied_.capacity() - mask) * sizeof(std::uint64_t);
  }

  bool empty() const { return size_ == 0; }

  std::size_t size() const { return size_; }

  /// Current heap footprint: the bucket spine and the occupancy mask plus
  /// every bucket's capacity. O(1) — a running total kept by push and grow
  /// (pop never shrinks a bucket), so the searches can charge the queue
  /// against the memory budget at every poll checkpoint.
  std::size_t bytes() const { return bytes_; }

 protected:
  /// Add one item to bucket `priority`: `append(bucket)` writes it.
  template <class Append>
  void push_with(std::int64_t priority, Append&& append) {
    const auto f = static_cast<std::size_t>(priority);
    std::vector<T>& bucket = buckets_[f];
    if (bucket.empty()) occupied_[f >> 6] |= std::uint64_t{1} << (f & 63);
    const std::size_t capacity = bucket.capacity();
    append(bucket);
    // The push that reallocates: charge the capacity it adds.
    bytes_ += (bucket.capacity() - capacity) * sizeof(T);
    if (f < cursor_) cursor_ = f;
    ++size_;
  }

  /// The lowest non-empty bucket, with the cursor moved onto it; its
  /// priority is cursor(). Requires a non-empty queue.
  std::vector<T>& lowest(const char* what) {
    RBPEB_REQUIRE(size_ != 0, what);
    if (buckets_[cursor_].empty()) {
      // Every bucket below the cursor is empty; the first occupied bit past
      // it is the lowest non-empty bucket.
      std::size_t w = cursor_ >> 6;
      std::uint64_t word =
          occupied_[w] & (~std::uint64_t{0} << (cursor_ & 63));
      while (word == 0) word = occupied_[++w];
      cursor_ = (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
    }
    return buckets_[cursor_];
  }

  /// Book one item taken off the back of the bucket lowest() returned.
  void popped(const std::vector<T>& bucket) {
    if (bucket.empty()) {
      occupied_[cursor_ >> 6] &= ~(std::uint64_t{1} << (cursor_ & 63));
    }
    --size_;
  }

  std::int64_t cursor() const { return static_cast<std::int64_t>(cursor_); }

  /// Visit every non-empty bucket as (priority, bucket), ascending.
  template <typename Fn>
  void for_each_bucket(Fn&& fn) const {
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t f =
            (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
        fn(static_cast<std::int64_t>(f), buckets_[f]);
      }
    }
  }

 private:
  std::vector<std::vector<T>> buckets_;
  std::vector<std::uint64_t> occupied_;  ///< bit f set iff bucket f non-empty
  std::size_t bytes_;
  std::size_t cursor_ = 0;
  std::size_t size_ = 0;
};

template <typename Item>
class BucketQueue : public BucketSpine<Item> {
  using Spine = BucketSpine<Item>;

 public:
  explicit BucketQueue(std::size_t bucket_count) : Spine(bucket_count) {}

  void push(std::int64_t priority, Item item) {
    this->push_with(priority, [&](std::vector<Item>& bucket) {
      bucket.push_back(std::move(item));
    });
  }

  /// The most recently pushed item of the lowest non-empty bucket, with its
  /// priority. Requires a non-empty queue.
  std::pair<std::int64_t, Item> pop() {
    std::vector<Item>& bucket = this->lowest("pop() on an empty BucketQueue");
    Item item = std::move(bucket.back());
    bucket.pop_back();
    this->popped(bucket);
    return {this->cursor(), std::move(item)};
  }
};

namespace detail {
template <typename Key>
struct FixedKeyRecord {
  Key key;
  std::int64_t g;
};
/// A KeyQueue bucket's element: a whole record at the fixed widths, one
/// word of one at the runtime width.
template <typename Packed>
using KeyRecord = std::conditional_t<Packed::kWords == 0, std::uint64_t,
                                     FixedKeyRecord<typename Packed::Key>>;
}  // namespace detail

/// The searches' open list of (key, g) items over a PackedKey type. Each
/// item is a fixed-stride record in its bucket: {key, g} at the fixed
/// widths (16 bytes over one word, as a struct item would be), and at the
/// runtime width the words {g, cached hash, key words...} appended to one
/// std::vector<std::uint64_t> per bucket — so a push allocates only when
/// its bucket grows, never per key. pop() copies the top record into a
/// scratch key the queue owns and reuses.
template <typename Packed>
class KeyQueue : public BucketSpine<detail::KeyRecord<Packed>> {
  using Key = typename Packed::Key;
  using Record = detail::KeyRecord<Packed>;
  static constexpr bool kRuntime = Packed::kWords == 0;

 public:
  /// One popped item. `key` is the queue's scratch: valid until the next
  /// pop().
  struct Item {
    std::int64_t priority;
    std::int64_t g;
    const Key& key;
  };

  KeyQueue(std::size_t bucket_count, std::size_t node_count)
      : BucketSpine<Record>(bucket_count),
        scratch_(node_count),
        stride_(kRuntime ? 2 + scratch_.word_count() : 1) {}

  void push(std::int64_t priority, const Key& key, std::int64_t g) {
    this->push_with(priority, [&](std::vector<Record>& bucket) {
      if constexpr (kRuntime) {
        // Reserve the whole record so its three appends never reallocate
        // twice; doubling keeps pushes amortized O(stride).
        if (bucket.capacity() - bucket.size() < stride_) {
          bucket.reserve(std::max(2 * bucket.capacity(),
                                  bucket.size() + stride_));
        }
        bucket.push_back(static_cast<std::uint64_t>(g));
        bucket.push_back(key.hash());
        bucket.insert(bucket.end(), key.words(),
                      key.words() + key.word_count());
      } else {
        bucket.push_back({key, g});
      }
    });
  }

  /// The most recently pushed item of the lowest non-empty bucket. Requires
  /// a non-empty queue.
  Item pop() {
    std::vector<Record>& bucket = this->lowest("pop() on an empty KeyQueue");
    std::int64_t g;
    if constexpr (kRuntime) {
      const std::size_t top = bucket.size() - stride_;
      const std::uint64_t* rec = bucket.data() + top;
      g = static_cast<std::int64_t>(rec[0]);
      scratch_.assign_words(rec + 2, rec[1]);
      bucket.resize(top);  // a shrink: nothing is written
    } else {
      g = bucket.back().g;
      scratch_ = bucket.back().key;
      bucket.pop_back();
    }
    this->popped(bucket);
    return {this->cursor(), g, scratch_};
  }

  /// Visit every queued item as (priority, g), ascending priority. O(bucket
  /// count / 64 + size): the progress sampler runs it at its wall-clock-
  /// limited cadence and the anytime driver once per cut pass, never per
  /// expansion.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    this->for_each_bucket(
        [&](std::int64_t priority, const std::vector<Record>& bucket) {
          for (std::size_t i = 0; i < bucket.size(); i += stride_) {
            if constexpr (kRuntime) {
              fn(priority, static_cast<std::int64_t>(bucket[i]));
            } else {
              fn(priority, bucket[i].g);
            }
          }
        });
  }

 private:
  Key scratch_;
  std::size_t stride_;  ///< Records per item
};

}  // namespace rbpeb

// The Dial bucket queue against a std::map-of-stacks reference: random
// pushes (some below the cursor) at priority strides of 1 and 100, the
// gaps compcost's ε = 1/100 leaves between adjacent f-values, must pop the
// same (priority, item) sequence — lowest bucket first, LIFO within one —
// while bytes() tracks the spine plus every bucket's capacity. A spine
// grown on demand (as the PDB builds grow theirs) must pop the same
// sequence and keep every queued item. Popping an empty queue and shrinking
// the spine are precondition failures, not a read past the buckets or lost
// items. The searches' key-record queue must pop exactly what a
// BucketQueue of (key, g) items pops, at every key width, charge what a
// queue of record-sized items does, and for_each must visit every item's
// g in ascending priority.
#include "src/solvers/bucket_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/solvers/packed_state.hpp"
#include "src/support/check.hpp"
#include "src/support/rng.hpp"

namespace rbpeb {
namespace {

using Item = std::uint32_t;

/// Reference: one stack per priority, plus, per priority, a vector fed the
/// same push_back/pop_back sequence as the queue's bucket — its capacity is
/// what the queue's bytes() must add up.
struct Reference {
  std::map<std::int64_t, std::vector<Item>> stacks;
  std::vector<std::vector<Item>> mirror;
  std::size_t size = 0;

  explicit Reference(std::size_t buckets) : mirror(buckets) {}

  void push(std::int64_t priority, Item item) {
    stacks[priority].push_back(item);
    mirror[static_cast<std::size_t>(priority)].push_back(item);
    ++size;
  }

  std::pair<std::int64_t, Item> pop() {
    auto lowest = stacks.begin();
    const std::pair<std::int64_t, Item> top{lowest->first,
                                            lowest->second.back()};
    lowest->second.pop_back();
    if (lowest->second.empty()) stacks.erase(lowest);
    mirror[static_cast<std::size_t>(top.first)].pop_back();
    --size;
    return top;
  }

  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const std::vector<Item>& bucket : mirror) {
      total += bucket.capacity() * sizeof(Item);
    }
    return total;
  }
};

/// `start_buckets` of 0 sizes the spine for every priority up front; any
/// other value starts it there and grows it, doubling, before a push that
/// needs it.
void run(std::int64_t stride, std::uint64_t seed,
         std::size_t start_buckets = 0) {
  SCOPED_TRACE(::testing::Message() << "stride " << stride << " start "
                                    << start_buckets);
  constexpr std::int64_t kLevels = 200;  // 20000 buckets at stride 100
  const auto buckets = static_cast<std::size_t>(kLevels * stride + 1);
  BucketQueue<Item> queue(start_buckets == 0 ? buckets : start_buckets);
  Reference ref(buckets);
  std::size_t base_bytes = queue.bytes();
  std::size_t grows = 0;
  Rng rng(seed);
  Item next_item = 0;
  std::int64_t last_popped = 0;
  std::size_t below_cursor = 0;
  for (int op = 0; op < 12000; ++op) {
    // Pushes outnumber pops 3:2, in bursts, so the queue grows and drains.
    const bool push = ref.size == 0 || rng.next_below(5) < 3;
    if (push) {
      // Mostly near the last pop, sometimes anywhere — including below it.
      const std::int64_t level =
          rng.next_below(4) == 0
              ? static_cast<std::int64_t>(rng.next_below(kLevels + 1))
              : std::min<std::int64_t>(
                    kLevels, last_popped / stride +
                                 static_cast<std::int64_t>(rng.next_below(8)));
      const std::int64_t priority = level * stride;
      if (priority < last_popped) ++below_cursor;
      const auto bucket = static_cast<std::size_t>(priority);
      if (bucket >= queue.bucket_count()) {
        const std::size_t spine_before = base_bytes;
        queue.grow(std::max(2 * queue.bucket_count(), bucket + 1));
        ASSERT_GT(queue.bucket_count(), bucket);
        // Grown buckets keep their items and capacities; only the spine
        // and the occupancy mask are charged anew.
        base_bytes = queue.bytes() - ref.capacity_bytes();
        ASSERT_GT(base_bytes, spine_before);
        ++grows;
      }
      queue.push(priority, next_item);
      ref.push(priority, next_item);
      ++next_item;
    } else {
      const auto got = queue.pop();
      const auto want = ref.pop();
      ASSERT_EQ(got, want) << "op " << op;
      last_popped = got.first;
    }
    ASSERT_EQ(queue.size(), ref.size);
    ASSERT_EQ(queue.empty(), ref.size == 0);
    ASSERT_EQ(queue.bytes(), base_bytes + ref.capacity_bytes()) << "op " << op;
  }
  while (!queue.empty()) ASSERT_EQ(queue.pop(), ref.pop());
  EXPECT_EQ(queue.bytes(), base_bytes + ref.capacity_bytes());
  EXPECT_GT(below_cursor, 0u);
  EXPECT_EQ(grows > 0, start_buckets != 0);
}

TEST(BucketQueue, PopsLikeAMapOfStacksAtStrideOne) { run(1, 11); }

TEST(BucketQueue, PopsLikeAMapOfStacksAtStrideOneHundred) { run(100, 12); }

TEST(BucketQueue, PopsLikeAMapOfStacksWhileTheSpineGrows) {
  run(1, 13, 2);
  run(100, 14, 101);
}

TEST(BucketQueue, ShrinkingTheSpineIsAPreconditionFailure) {
  BucketQueue<Item> queue(130);
  queue.push(129, 1);
  EXPECT_THROW(queue.grow(64), PreconditionError);
  EXPECT_EQ(queue.bucket_count(), 130u);
  EXPECT_EQ(queue.pop(), (std::pair<std::int64_t, Item>{129, 1}));
}

TEST(BucketQueue, SkipsWordsOfEmptyBucketsAndLandsOnTheLast) {
  BucketQueue<Item> queue(1000);
  queue.push(999, 1);
  queue.push(64, 2);
  queue.push(63, 3);
  EXPECT_EQ(queue.pop(), (std::pair<std::int64_t, Item>{63, 3}));
  EXPECT_EQ(queue.pop(), (std::pair<std::int64_t, Item>{64, 2}));
  EXPECT_EQ(queue.pop(), (std::pair<std::int64_t, Item>{999, 1}));
  EXPECT_TRUE(queue.empty());
}

TEST(BucketQueue, PopOnAnEmptyQueueIsAPreconditionFailure) {
  BucketQueue<Item> queue(130);
  EXPECT_THROW(queue.pop(), PreconditionError);
  queue.push(129, 7);
  EXPECT_EQ(queue.pop().second, 7u);
  EXPECT_THROW(queue.pop(), PreconditionError);
}

// ---- KeyQueue ------------------------------------------------------------

/// What the open lists queued before key records: a (key, g) item.
template <class Packed>
struct KeyItem {
  Packed key;
  std::int64_t g;
};

static_assert(sizeof(detail::KeyRecord<PackedKey<1>>) == 16,
              "a one-word key's record is 16 bytes, as a (key, g) item");

/// Random pushes (some below the cursor) and pops at priority stride
/// `stride` over `n`-node keys: every pop must equal the reference
/// BucketQueue<KeyItem>'s — priority, g, key and hash — and bytes() must
/// equal the charge of a BucketQueue whose items are `RecordWords` words,
/// the record stride.
template <class Packed, std::size_t RecordWords>
void run_key_queue(std::size_t n, std::int64_t stride, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << n << " nodes, stride " << stride);
  constexpr std::int64_t kLevels = 200;
  const auto buckets = static_cast<std::size_t>(kLevels * stride + 1);
  KeyQueue<Packed> queue(buckets, n);
  BucketQueue<KeyItem<Packed>> ref(buckets);
  BucketQueue<std::array<std::uint64_t, RecordWords>> charge(buckets);
  // Each queued item's g by priority, in push order.
  std::map<std::int64_t, std::vector<std::int64_t>> gs;
  auto expect_same_gs = [&] {
    std::vector<std::pair<std::int64_t, std::int64_t>> visited;
    std::vector<std::pair<std::int64_t, std::int64_t>> want;
    queue.for_each([&](std::int64_t priority, std::int64_t g) {
      visited.push_back({priority, g});
    });
    for (const auto& [priority, stack] : gs) {
      for (const std::int64_t g : stack) want.push_back({priority, g});
    }
    EXPECT_EQ(visited, want);
  };
  auto pop_both = [&] {
    const auto got = queue.pop();
    const auto [priority, want] = ref.pop();
    charge.pop();
    gs[priority].pop_back();
    if (gs[priority].empty()) gs.erase(priority);
    EXPECT_EQ(got.priority, priority);
    EXPECT_EQ(got.g, want.g);
    EXPECT_TRUE(got.key == want.key);
    EXPECT_EQ(got.key.hash(), want.key.recompute_hash());
    return priority;
  };
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(Packed::key_serialized_bytes(n));
  std::int64_t last_popped = 0;
  std::size_t below_cursor = 0;
  for (int op = 0; op < 12000; ++op) {
    const bool push = ref.empty() || rng.next_below(5) < 3;
    if (push) {
      const std::int64_t level =
          rng.next_below(4) == 0
              ? static_cast<std::int64_t>(rng.next_below(kLevels + 1))
              : std::min<std::int64_t>(
                    kLevels, last_popped / stride +
                                 static_cast<std::int64_t>(rng.next_below(8)));
      const std::int64_t priority = level * stride;
      if (priority < last_popped) ++below_cursor;
      for (std::uint8_t& b : bytes) {
        b = static_cast<std::uint8_t>(rng.next_u64());
      }
      const Packed key = Packed::key_deserialize(bytes.data(), n);
      const auto g = static_cast<std::int64_t>(rng.next_below(1 << 20));
      queue.push(priority, key, g);
      ref.push(priority, {key, g});
      charge.push(priority, {});
      gs[priority].push_back(g);
    } else {
      last_popped = pop_both();
    }
    ASSERT_EQ(queue.size(), ref.size());
    ASSERT_EQ(queue.empty(), ref.empty());
    ASSERT_EQ(queue.bytes(), charge.bytes()) << "op " << op;
    if (op % 997 == 0) expect_same_gs();
  }
  expect_same_gs();
  while (!ref.empty()) pop_both();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.bytes(), charge.bytes());
  EXPECT_GT(below_cursor, 0u);
}

TEST(KeyQueue, PopsLikeABucketQueueOfKeyItemsAtEveryWidth) {
  run_key_queue<PackedKey<1>, 2>(21, 1, 21);
  run_key_queue<PackedKey<2>, 3>(42, 1, 22);
  // 100 nodes: five key words plus g and the cached hash.
  run_key_queue<PackedKey<0>, 7>(100, 1, 23);
  run_key_queue<PackedKey<0>, 7>(100, 100, 24);
  run_key_queue<PackedKey<0>, 50>(1024, 1, 25);
}

TEST(KeyQueue, PopOnAnEmptyQueueIsAPreconditionFailure) {
  KeyQueue<PackedKey<0>> queue(130, 100);
  EXPECT_THROW(queue.pop(), PreconditionError);
  const PackedKey<0> key(100);
  queue.push(129, key, 7);
  EXPECT_EQ(queue.pop().g, 7);
  EXPECT_THROW(queue.pop(), PreconditionError);
}

}  // namespace
}  // namespace rbpeb

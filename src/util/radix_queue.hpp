// Monotone priority queue over 64-bit keys with 32-bit ids: a radix heap
// over the keys' bit patterns (R. K. Ahuja, K. Mehlhorn, J. B. Orlin and
// R. E. Tarjan, "Faster algorithms for the shortest path problem", JACM
// 1990) whose lowest bucket is an exact heap. It pops in strict (key, id)
// order: an equal-key tie goes to the lower id. Any queue with that order
// pops the same sequence, so it is the open list of both shortest-path
// searches, the router's A* and the attack's matcher, without moving a
// route or a matching (docs/ARCHITECTURE.md, `util`).
//
// Buckets, relative to `last`, the key of the latest refill of bucket 0
// (0 after clear()):
//   - bucket 0 is a binary heap ordered by (key, id) that holds every key
//     at or below `last`, including a key pushed below it;
//   - bucket i >= 1 holds the keys above `last` whose highest bit that
//     differs from `last` is bit i - 1.
// So the lowest occupied bucket holds the least key. When bucket 0 runs
// empty, the lowest occupied bucket sets `last` to its least key and
// redistributes: every entry moves strictly down, to bucket 0 if it equals
// the new `last`. An entry moves at most 64 times, and a push above `last`
// is one append. An occupancy mask finds the lowest bucket, and clear()
// touches only the occupied ones.
//
// A caller whose keys are not integers maps them to order-preserving bit
// patterns: the bits of a double >= +0.0 (never -0.0 or NaN) sort like its
// value.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sm::util {

class RadixQueue {
 public:
  bool empty() const { return low_.empty() && mask_ == 0; }

  /// Drop every entry; `last` returns to 0. The buffers keep their
  /// capacity, so a warm queue allocates nothing.
  void clear() {
    for (std::uint64_t m = mask_; m != 0; m &= m - 1)
      high_[static_cast<std::size_t>(std::countr_zero(m))].clear();
    mask_ = 0;
    low_.clear();
    last_ = 0;
  }

  void push(std::uint64_t key, std::uint32_t id) {
    if (key <= last_) {
      low_.push_back({key, id});
      std::push_heap(low_.begin(), low_.end(), after);
      return;
    }
    const int bit = 63 - std::countl_zero(key ^ last_);
    high_[static_cast<std::size_t>(bit)].push_back({key, id});
    mask_ |= std::uint64_t{1} << bit;
  }

  /// The least key. The queue must not be empty.
  std::uint64_t min_key() {
    refill();
    return low_.front().key;
  }

  /// Remove the least (key, id) entry and return its id. The queue must
  /// not be empty.
  std::uint32_t pop() {
    refill();
    std::pop_heap(low_.begin(), low_.end(), after);
    const std::uint32_t id = low_.back().id;
    low_.pop_back();
    return id;
  }

 private:
  struct Entry {
    std::uint64_t key;
    std::uint32_t id;
  };

  /// Heap comparator: std::push_heap keeps the greatest on top, so "after"
  /// puts the least (key, id) there.
  static bool after(const Entry& a, const Entry& b) {
    return a.key > b.key || (a.key == b.key && a.id > b.id);
  }

  /// Make bucket 0 non-empty: redistribute the lowest occupied bucket
  /// around its least key. No entry of that bucket returns to it, so it is
  /// read whole before it is cleared.
  void refill() {
    if (!low_.empty()) return;
    const int bit = std::countr_zero(mask_);
    auto& src = high_[static_cast<std::size_t>(bit)];
    mask_ &= ~(std::uint64_t{1} << bit);
    std::uint64_t least = src.front().key;
    for (const Entry& e : src) least = std::min(least, e.key);
    last_ = least;
    for (const Entry& e : src) push(e.key, e.id);
    src.clear();
  }

  std::vector<Entry> low_;                       ///< bucket 0
  std::array<std::vector<Entry>, 64> high_;      ///< bucket i at high_[i - 1]
  std::uint64_t mask_ = 0;  ///< bit i - 1 set: bucket i is occupied
  std::uint64_t last_ = 0;
};

}  // namespace sm::util

// Open-addressing hash set of canonical undirected-edge keys.
//
// DynamicForest keeps every present edge and every forest edge as a 64-bit
// key (lo << 32 | hi, lo < hi). A node-based std::unordered_set spends
// about 40 bytes per key on a heap node and a bucket; this table stores the
// keys inline in one power-of-two array (8 bytes per slot, at most 70%
// full), so the edge sets of a graph with millions of edges cost a third
// of the memory and no allocation per insert. Linear probing; erased keys
// leave tombstones that later inserts reuse and rehashing clears.

#ifndef CONNECTIT_CORE_EDGE_KEY_SET_H_
#define CONNECTIT_CORE_EDGE_KEY_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace connectit {

class EdgeKeySet {
 public:
  // True if `key` was absent and is now present.
  bool Insert(uint64_t key) {
    if (2 * (size_ + tombstones_ + 1) > slots_.size() * 7 / 5) {
      Rehash();
    }
    size_t i = Slot(key);
    size_t reuse = kNone;
    for (;; i = (i + 1) & mask_) {
      const uint64_t at = slots_[i];
      if (at == key) return false;
      if (at == kEmpty) break;
      if (at == kTombstone && reuse == kNone) reuse = i;
    }
    if (reuse != kNone) {
      i = reuse;
      --tombstones_;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  // True if `key` was present and is now absent.
  bool Erase(uint64_t key) {
    const size_t i = Find(key);
    if (i == kNone) return false;
    slots_[i] = kTombstone;
    --size_;
    ++tombstones_;
    return true;
  }

  bool Contains(uint64_t key) const { return Find(key) != kNone; }

  size_t size() const { return size_; }

 private:
  // Neither is a canonical key, whose low half exceeds its high half.
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr uint64_t kTombstone = ~uint64_t{1};
  static constexpr size_t kNone = ~size_t{0};

  size_t Slot(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  size_t Find(uint64_t key) const {
    if (slots_.empty()) return kNone;
    for (size_t i = Slot(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return i;
      if (slots_[i] == kEmpty) return kNone;
    }
  }

  // Drops the tombstones and, unless they were what filled the table,
  // doubles it, so the live keys take at most 35% of the new slots.
  void Rehash() {
    size_t capacity = slots_.empty() ? 16 : slots_.size();
    while (20 * (size_ + 1) > 7 * capacity) capacity *= 2;
    std::vector<uint64_t> old(capacity, kEmpty);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    tombstones_ = 0;
    for (const uint64_t key : old) {
      if (key == kEmpty || key == kTombstone) continue;
      size_t i = Slot(key);
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;        // live keys
  size_t tombstones_ = 0;  // erased slots not yet reclaimed by a rehash
};

}  // namespace connectit

#endif  // CONNECTIT_CORE_EDGE_KEY_SET_H_

// Open-addressing hash set of canonical undirected-edge keys.
//
// DynamicForest keeps every present edge and every forest edge as a 64-bit
// key (lo << 32 | hi, lo < hi). A node-based std::unordered_set spends
// about 40 bytes per key on a heap node and a bucket; this table stores the
// keys inline in one power-of-two array (8 bytes per slot), so the edge
// sets of a graph with millions of edges cost a third of the memory and no
// allocation per insert. Linear probing; erased keys leave tombstones that
// later inserts reuse and rehashing clears.
//
// Growth: an insert that would fill more than 70% of the slots (live keys
// plus tombstones) rehashes first. The rehash doubles the table if the live
// keys take more than 35% of it, and otherwise rebuilds it in place to
// drop the tombstones, so after any rehash the live keys take at most
// ~35% of the slots and the next one is Θ(capacity) inserts away. Inserts
// alone therefore double the table at 70% load: 16 slots up to 11 keys, 32
// up to 22, and so on, about 11.4 to 22.9 bytes per key.
//
// Bulk loads call Reserve(k) once to rehash straight to the slot count k
// inserts would reach, and Prefetch(key) to start a key's first probe load
// some inserts before the insert needs it.

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
    if (!Fits(size_ + tombstones_ + 1, slots_.size())) Rehash();
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

  // Makes room for k live keys: until the set holds more than k, inserts
  // do not rehash. On an empty set this is the slot count k inserts would
  // grow it to, reached in one rehash.
  void Reserve(size_t k) {
    if (Fits(k + tombstones_, slots_.size())) return;
    size_t capacity = slots_.empty() ? kMinSlots : slots_.size();
    while (!Fits(k, capacity)) capacity *= 2;
    RehashTo(capacity);
  }

  // A hint: starts loading the slot where a probe for `key` begins.
  void Prefetch(uint64_t key) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[Slot(key)]);
  }

  size_t size() const { return size_; }
  // Slots in the table (0 before the first insert or Reserve).
  size_t slot_count() const { return slots_.size(); }

 private:
  // Neither is a canonical key, whose low half exceeds its high half.
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr uint64_t kTombstone = ~uint64_t{1};
  static constexpr size_t kNone = ~size_t{0};
  static constexpr size_t kMinSlots = 16;

  // True if `used` occupied slots fill at most 70% of `capacity`.
  static bool Fits(size_t used, size_t capacity) {
    return 10 * used <= 7 * capacity;
  }

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

  // Drops the tombstones and, if the live keys take more than 35% of the
  // slots, doubles the table (see the header comment).
  void Rehash() {
    size_t capacity = slots_.empty() ? kMinSlots : slots_.size();
    while (20 * size_ > 7 * capacity) capacity *= 2;
    RehashTo(capacity);
  }

  void RehashTo(size_t capacity) {
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

#ifndef HISTGRAPH_COMMON_CHUNKED_STORE_H_
#define HISTGRAPH_COMMON_CHUNKED_STORE_H_

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/cow.h"
#include "common/flat_hash.h"

namespace hgdb {

/// \brief Chunked copy-on-write id containers — the Snapshot element stores.
///
/// The id space is cut into fixed ranges of 2^kRangeLog2 consecutive ids
/// ("chunks"); a hash spine (FlatHashMap keyed by id >> kRangeLog2) maps each
/// occupied range to a shared_ptr chunk holding an occupancy bitmap and, for
/// maps, a direct-indexed slot array. Copying a container copies the spine
/// and *shares every chunk*; mutating an element copies (at most) the one
/// chunk it lives in. Two snapshots emitted by the same retrieval plan
/// therefore share all chunks the plan did not touch between their emit
/// points, making k-point retrieval's marginal emit cost O(|delta|) instead
/// of O(|graph|) — the cross-snapshot structural sharing of the DeltaGraph
/// follow-up system (Khurana & Deshpande, 2015) applied in memory.
///
/// Why a direct-indexed chunk per id range (rather than hashing ids across
/// chunks): the workload's ids come from ++counters, so consecutive ids fill
/// consecutive chunks, fresh appends never touch old chunks at all, and the
/// spine never rehashes element positions — growth only *adds* spine
/// entries, so sharing survives growth. Sparse id ranges cost only their
/// occupied chunks (the spine is a hash map, not an array).
///
/// Thread-visibility contract (mirrors the Snapshot store-level COW; see
/// src/graph/README.md): chunks may be shared between containers owned by
/// different threads. A writer may mutate a chunk in place only while it is
/// the chunk's sole owner; the relaxed use_count() == 1 probe is ordered by
/// an acquire fence that pairs with the release-decrement performed by
/// whichever thread dropped the other reference. CowAnnotate* make that
/// protocol visible to TSan (no-ops in production).
///
/// The spine scaffolding — ctors/assignment, chunk-release annotations, the
/// sole-owner-or-clone gate, divergent-chunk-pair walks, the intersection
/// walk, erase-with-vacated-chunk handling, iterator settling — lives once in
/// chunked_internal::SpineBase; ChunkedIdMap / ChunkedIdSet differ only in
/// element semantics (slot array vs pure bitmap).
///
/// Set algebra keeps that sharing: Intersect adopts every chunk whose meet
/// is element-identical to an input chunk, so the intersection of two
/// snapshots cut close together shares nearly all of its chunks with both.
///
/// Invalidation rules match FlatHashMap: pointers into a container are
/// invalidated by every mutation of that container (the chunk they point
/// into may be replaced by a copy).

namespace chunked_internal {

inline bool TestBit(const uint64_t* bits, size_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1u;
}
inline void SetBit(uint64_t* bits, size_t i) { bits[i >> 6] |= uint64_t{1} << (i & 63); }
inline void ClearBit(uint64_t* bits, size_t i) {
  bits[i >> 6] &= ~(uint64_t{1} << (i & 63));
}

/// First occupied index >= `from`, or kWords*64 when none.
template <size_t kWords>
inline size_t NextOccupied(const uint64_t (&bits)[kWords], size_t from) {
  constexpr size_t kRange = kWords * 64;
  size_t word = from >> 6;
  if (word >= kWords) return kRange;
  const uint64_t first = bits[word] >> (from & 63);
  if (first != 0) return from + static_cast<size_t>(__builtin_ctzll(first));
  for (++word; word < kWords; ++word) {
    if (bits[word] != 0) {
      return (word << 6) + static_cast<size_t>(__builtin_ctzll(bits[word]));
    }
  }
  return kRange;
}

/// Sole-owner-or-clone gate for a spine slot. The acquire fence pairs with
/// the release-decrement of whichever thread dropped the other chunk
/// reference, ordering its reads of the chunk before our in-place writes
/// (free on x86; one dmb on ARM).
template <typename Chunk>
Chunk* MutableChunk(std::shared_ptr<Chunk>* slot) {
  if (slot->use_count() > 1) {
    auto fresh = std::make_shared<Chunk>(**slot);
    CowAnnotateRelease(slot->get());  // Our clone read the shared chunk.
    *slot = std::move(fresh);
  } else {
    std::atomic_thread_fence(std::memory_order_acquire);
    CowAnnotateAcquire(slot->get());
  }
  return slot->get();
}

/// \brief The shared chunk-spine scaffolding of ChunkedIdMap / ChunkedIdSet.
///
/// Owns the spine and the element count, and implements everything that does
/// not depend on what a chunk stores beyond its occupancy bitmap + count:
/// the COW copy/move/destroy protocol (with its TSan annotations), lookup,
/// erase, equality and divergence walks, per-part enumeration, and the
/// occupied-slot iterator core. `ChunkT` must expose `bits[kWords]`,
/// `count`, and `Test(i)`.
template <typename K, typename ChunkT, size_t kRangeLog2_>
class SpineBase {
 public:
  static constexpr size_t kRangeLog2 = kRangeLog2_;
  static constexpr size_t kRange = size_t{1} << kRangeLog2_;
  static constexpr size_t kWords = kRange / 64;
  static_assert(kRange >= 64, "chunks must cover at least one bitmap word");

  using Chunk = ChunkT;
  using ChunkPtr = std::shared_ptr<ChunkT>;
  using Spine = FlatHashMap<uint64_t, ChunkPtr>;

  SpineBase() = default;
  SpineBase(const SpineBase& other)
      : spine_(other.spine_), size_(other.size_) {}  // Shares every chunk.
  SpineBase& operator=(const SpineBase& other) {
    if (this != &other) {
      AnnotateReleaseChunks();
      spine_ = other.spine_;
      size_ = other.size_;
    }
    return *this;
  }
  SpineBase(SpineBase&& other) noexcept
      : spine_(std::move(other.spine_)), size_(other.size_) {
    other.size_ = 0;
  }
  SpineBase& operator=(SpineBase&& other) noexcept {
    if (this != &other) {
      AnnotateReleaseChunks();
      spine_ = std::move(other.spine_);
      size_ = other.size_;
      other.size_ = 0;
    }
    return *this;
  }
  ~SpineBase() { AnnotateReleaseChunks(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    AnnotateReleaseChunks();
    spine_.clear();
    size_ = 0;
  }

  /// Pre-sizes the spine for ~n elements of dense ids. Never moves chunks.
  void reserve(size_t n) { spine_.reserve(n >> kRangeLog2_); }

  bool contains(const K& key) const {
    const ChunkPtr* c = spine_.FindValue(ChunkKey(key));
    return c != nullptr && (*c)->Test(SlotIndex(key));
  }

  // -- Introspection ---------------------------------------------------------
  size_t ChunkCount() const { return spine_.size(); }

  /// Bytes held by the spine and chunks themselves (not by heap-owning
  /// values — callers account those via iteration).
  size_t MemoryBytes() const {
    return spine_.TableBytes() + spine_.size() * sizeof(ChunkT);
  }

 protected:
  static uint64_t ChunkKey(const K& key) {
    return static_cast<uint64_t>(key) >> kRangeLog2_;
  }
  static size_t SlotIndex(const K& key) {
    return static_cast<size_t>(key) & (kRange - 1);
  }

  /// Calls fn(idx) for every set bit of a chunk's occupancy bitmap.
  template <typename Fn>
  static void ForEachOccupied(const uint64_t (&bits)[kWords], Fn fn) {
    for (size_t i = NextOccupied(bits, 0); i < kRange; i = NextOccupied(bits, i + 1)) {
      fn(i);
    }
  }

  /// The writable chunk for `ck`, given the (possibly null) slot a FindValue
  /// just returned: creates a fresh chunk for an absent range, otherwise runs
  /// the sole-owner-or-clone gate.
  ChunkT* OwnedChunk(uint64_t ck, ChunkPtr* slot) {
    return slot == nullptr
               ? spine_.emplace(ck, std::make_shared<ChunkT>()).first->second.get()
               : MutableChunk(slot);
  }

  /// Erase skeleton shared by map and set: a chunk holding its last element
  /// is dropped from the spine (nothing is copied — its memory is reclaimed
  /// or returned to COW siblings); otherwise the chunk is made writable and
  /// `clear_slot(chunk, idx)` releases whatever the slot owns before the
  /// occupancy bit clears.
  template <typename ClearSlotFn>
  bool EraseImpl(const K& key, ClearSlotFn clear_slot) {
    const size_t idx = SlotIndex(key);
    ChunkPtr* slot = spine_.FindValue(ChunkKey(key));
    if (slot == nullptr || !(*slot)->Test(idx)) return false;
    if ((*slot)->count == 1) {  // Chunk becomes empty: drop it, copy nothing.
      CowAnnotateRelease(slot->get());
      spine_.erase(ChunkKey(key));
      --size_;
      return true;
    }
    ChunkT* c = MutableChunk(slot);
    clear_slot(c, idx);
    ClearBit(c->bits, idx);
    --c->count;
    --size_;
    return true;
  }

  /// Order-independent equality skeleton: totals, then per-range chunks with
  /// pointer-shared chunks short-circuited; `eq(mine, theirs)` compares two
  /// divergent chunks known to hold the same element count. Equal totals +
  /// equal per-chunk counts leave no room for extra chunks on the other side
  /// (empty chunks never stay in a spine).
  template <typename ChunkEq>
  bool EqualElements(const SpineBase& other, ChunkEq eq) const {
    if (size_ != other.size_) return false;
    for (const auto& [ck, chunk] : spine_) {
      const ChunkPtr* oc = other.spine_.FindValue(ck);
      if (oc == nullptr) return false;
      if (oc->get() == chunk.get()) continue;
      if ((*oc)->count != chunk->count) return false;
      if (!eq(*chunk, **oc)) return false;
    }
    return true;
  }

  /// Calls fn(ck, mine, theirs) for every id range whose chunks are not
  /// pointer-shared between this container and `other`; the side holding no
  /// chunk for the range passes nullptr. Shared chunks are element-identical
  /// by construction, so diff loops skip them wholesale. One spine probe per
  /// chunk.
  template <typename Fn>
  void ForEachDivergentPair(const SpineBase& other, Fn fn) const {
    for (const auto& [ck, chunk] : spine_) {
      const ChunkPtr* oc = other.spine_.FindValue(ck);
      if (oc == nullptr) {
        fn(ck, chunk.get(), nullptr);
      } else if (oc->get() != chunk.get()) {
        fn(ck, chunk.get(), oc->get());
      }
    }
    for (const auto& [ck, chunk] : other.spine_) {
      if (spine_.FindValue(ck) == nullptr) fn(ck, nullptr, chunk.get());
    }
  }

  /// Word-wise walk over a chunk pair (either side may be null): calls
  /// fn(idx, in_mine, in_theirs) for every slot set in `select(mine_word,
  /// theirs_word)` — XOR for the slots occupied on one side only, OR for
  /// every occupied slot.
  template <typename Select, typename Fn>
  static void ForEachSelectedSlot(const ChunkT* mine, const ChunkT* theirs, Select select,
                                  Fn fn) {
    for (size_t w = 0; w < kWords; ++w) {
      const uint64_t m = mine == nullptr ? 0 : mine->bits[w];
      const uint64_t t = theirs == nullptr ? 0 : theirs->bits[w];
      for (uint64_t sel = select(m, t); sel != 0; sel &= sel - 1) {
        const size_t bit = static_cast<size_t>(__builtin_ctzll(sel));
        fn((w << 6) | bit, ((m >> bit) & 1) != 0, ((t >> bit) & 1) != 0);
      }
    }
  }
  static uint64_t Xor(uint64_t m, uint64_t t) { return m ^ t; }
  static uint64_t Or(uint64_t m, uint64_t t) { return m | t; }

  /// Intersection skeleton shared by map and set. Walks the smaller spine and
  /// probes the larger once per chunk, so only ranges present on both sides
  /// are visited. A chunk the two sides share by pointer is adopted whole;
  /// `meet_chunk(a_chunk, b_chunk)` resolves a divergent pair to the chunk
  /// the result keeps: an input's pointer when the meet is element-identical
  /// to it, a fresh chunk otherwise, or null when the meet is empty (so no
  /// empty chunk ever enters the spine).
  template <typename MeetChunk>
  static void IntersectImpl(const SpineBase& a, const SpineBase& b, SpineBase* out,
                            MeetChunk meet_chunk) {
    const bool a_smaller = a.spine_.size() <= b.spine_.size();
    const SpineBase& small = a_smaller ? a : b;
    const SpineBase& large = a_smaller ? b : a;
    out->spine_.reserve(small.spine_.size());
    for (const auto& [ck, chunk] : small.spine_) {
      const ChunkPtr* oc = large.spine_.FindValue(ck);
      if (oc == nullptr) continue;
      ChunkPtr kept = chunk == *oc   ? chunk
                      : a_smaller ? meet_chunk(chunk, *oc)
                                  : meet_chunk(*oc, chunk);
      if (kept == nullptr) continue;
      out->size_ += kept->count;
      out->spine_.emplace(ck, std::move(kept));
    }
  }

  /// Enumerates this container's heap parts as fn(pointer, bytes): the spine
  /// (keyed by the container object) and each chunk (keyed by the chunk
  /// address — identical across containers that share it).
  template <typename PartFn, typename ChunkBytesFn>
  void ForEachPartImpl(PartFn fn, ChunkBytesFn chunk_bytes) const {
    fn(static_cast<const void*>(this), spine_.TableBytes());
    for (const auto& [ck, chunk] : spine_) {
      fn(static_cast<const void*>(chunk.get()), chunk_bytes(*chunk));
    }
  }

  /// Announces (for TSan) that this container is done reading every chunk it
  /// references; no-op in production builds.
  void AnnotateReleaseChunks() const {
#if defined(HISTGRAPH_TSAN)
    for (const auto& [ck, chunk] : spine_) CowAnnotateRelease(chunk.get());
#endif
  }

  /// Occupied-slot cursor shared by both const_iterators: walks the spine,
  /// settling on the next occupied bitmap slot. Derived iterators add only
  /// the dereference.
  class IterCore {
   public:
    IterCore() = default;
    IterCore(typename Spine::const_iterator it, typename Spine::const_iterator end,
             size_t idx)
        : it_(it), end_(end), idx_(idx) {
      Settle();
    }

    void Advance() {
      ++idx_;
      Settle();
    }
    bool Equal(const IterCore& o) const { return it_ == o.it_ && idx_ == o.idx_; }

   protected:
    void Settle() {
      while (it_ != end_) {
        idx_ = NextOccupied(it_->second->bits, idx_);
        if (idx_ < kRange) return;
        ++it_;
        idx_ = 0;
      }
      idx_ = 0;  // end() canonical form.
    }
    typename Spine::const_iterator it_, end_;
    size_t idx_ = 0;
  };

  Spine spine_;
  size_t size_ = 0;
};

template <typename V, size_t kRange>
struct MapChunk {
  uint64_t bits[kRange / 64] = {};
  uint32_t count = 0;
  V slots[kRange] = {};

  bool Test(size_t i) const { return TestBit(bits, i); }
};

template <size_t kRange>
struct SetChunk {
  uint64_t bits[kRange / 64] = {};
  uint32_t count = 0;

  bool Test(size_t i) const { return TestBit(bits, i); }
};

}  // namespace chunked_internal

/// Chunked COW map from an integer id to an arbitrary value type.
/// Chunks cover 2^kRangeLog2 consecutive ids (default 128).
template <typename K, typename V, size_t kRangeLog2 = 7>
class ChunkedIdMap
    : public chunked_internal::SpineBase<
          K, chunked_internal::MapChunk<V, (size_t{1} << kRangeLog2)>, kRangeLog2> {
  using Base = chunked_internal::SpineBase<
      K, chunked_internal::MapChunk<V, (size_t{1} << kRangeLog2)>, kRangeLog2>;
  using Base::spine_;
  using Base::size_;

 public:
  using Base::kRange;
  using typename Base::Chunk;
  using typename Base::ChunkPtr;
  using typename Base::Spine;

  const V* FindValue(const K& key) const {
    const ChunkPtr* c = spine_.FindValue(Base::ChunkKey(key));
    if (c == nullptr || !(*c)->Test(Base::SlotIndex(key))) return nullptr;
    return &(*c)->slots[Base::SlotIndex(key)];
  }

  /// Writable pointer to the value of `key`, or nullptr. Copies the chunk
  /// first if it is shared — the only sanctioned way to mutate a value in
  /// place.
  V* MutableValue(const K& key) {
    ChunkPtr* c = spine_.FindValue(Base::ChunkKey(key));
    if (c == nullptr || !(*c)->Test(Base::SlotIndex(key))) return nullptr;
    return &chunked_internal::MutableChunk(c)->slots[Base::SlotIndex(key)];
  }

  /// try_emplace semantics: no overwrite (and no chunk copy) when the key
  /// exists. The returned pointer aliases a possibly-shared chunk when
  /// `inserted` is false — treat it as read-only unless this container is
  /// known to be exclusive.
  template <typename... Args>
  std::pair<V*, bool> emplace(const K& key, Args&&... args) {
    const size_t idx = Base::SlotIndex(key);
    ChunkPtr* slot = spine_.FindValue(Base::ChunkKey(key));
    if (slot != nullptr && (*slot)->Test(idx)) {
      return {&(*slot)->slots[idx], false};
    }
    Chunk* c = Base::OwnedChunk(Base::ChunkKey(key), slot);
    c->slots[idx] = V(std::forward<Args>(args)...);
    chunked_internal::SetBit(c->bits, idx);
    ++c->count;
    ++size_;
    return {&c->slots[idx], true};
  }

  /// Inserts a default value if absent; owns the chunk either way.
  V& operator[](const K& key) {
    const size_t idx = Base::SlotIndex(key);
    ChunkPtr* slot = spine_.FindValue(Base::ChunkKey(key));
    Chunk* c = Base::OwnedChunk(Base::ChunkKey(key), slot);
    if (!c->Test(idx)) {
      chunked_internal::SetBit(c->bits, idx);
      ++c->count;
      ++size_;
    }
    return c->slots[idx];
  }

  /// Erases by key; true if the key existed. Fully vacated chunks leave the
  /// spine (their memory is reclaimed or returned to COW siblings).
  bool erase(const K& key) {
    return Base::EraseImpl(key, [](Chunk* c, size_t idx) {
      c->slots[idx] = V();  // Release any heap the value owns.
    });
  }

  /// Order-independent element equality; pointer-shared chunks short-circuit.
  bool operator==(const ChunkedIdMap& other) const {
    return Base::EqualElements(other, [](const Chunk& mine, const Chunk& theirs) {
      for (size_t i = chunked_internal::NextOccupied(mine.bits, 0); i < kRange;
           i = chunked_internal::NextOccupied(mine.bits, i + 1)) {
        if (!theirs.Test(i) || !(theirs.slots[i] == mine.slots[i])) return false;
      }
      return true;
    });
  }
  bool operator!=(const ChunkedIdMap& other) const { return !(*this == other); }

  /// Calls fn(key, value, in_this) for every key present in exactly one of
  /// the two containers; `value` is that side's. Pointer-shared chunks are
  /// skipped and divergent pairs XOR their occupancy words, so values held
  /// on both sides are never visited (callers whose values can differ under
  /// one key use ForEachDivergentSlot).
  template <typename Fn>
  void ForEachSymmetricDiff(const ChunkedIdMap& other, Fn fn) const {
    Base::ForEachDivergentPair(
        other, [&](uint64_t ck, const Chunk* mine, const Chunk* theirs) {
          const K base = static_cast<K>(ck << kRangeLog2);
          Base::ForEachSelectedSlot(mine, theirs, Base::Xor, [&](size_t i, bool in_this, bool) {
            fn(static_cast<K>(base | i), (in_this ? mine : theirs)->slots[i], in_this);
          });
        });
  }

  /// Calls fn(key, mine, theirs) for every key occupied on either side of a
  /// chunk pair that is not pointer-shared; the side without the key passes
  /// nullptr.
  template <typename Fn>
  void ForEachDivergentSlot(const ChunkedIdMap& other, Fn fn) const {
    Base::ForEachDivergentPair(
        other, [&](uint64_t ck, const Chunk* mine, const Chunk* theirs) {
          const K base = static_cast<K>(ck << kRangeLog2);
          Base::ForEachSelectedSlot(
              mine, theirs, Base::Or, [&](size_t i, bool in_mine, bool in_theirs) {
                fn(static_cast<K>(base | i), in_mine ? &mine->slots[i] : nullptr,
                   in_theirs ? &theirs->slots[i] : nullptr);
              });
        });
  }

  /// The keys present in both containers, valued `meet(a_value, b_value,
  /// &out)` (which returns false when the meet is empty and the key drops).
  /// Keys whose values are equal keep that value without calling `meet`.
  /// The result shares every chunk it can: pointer-shared chunks are adopted
  /// whole, and a divergent pair whose meet is element-identical to one
  /// input adopts that input's chunk. `meet` must be idempotent
  /// (meet(v, v) == v).
  template <typename Meet>
  static ChunkedIdMap Intersect(const ChunkedIdMap& a, const ChunkedIdMap& b, Meet meet) {
    ChunkedIdMap out;
    Base::IntersectImpl(a, b, &out, [&](const ChunkPtr& x, const ChunkPtr& y) -> ChunkPtr {
      uint64_t both[Base::kWords];
      bool any = false;
      bool keep_x = true, keep_y = true;  // Meet still element-identical to x / y.
      for (size_t w = 0; w < Base::kWords; ++w) {
        both[w] = x->bits[w] & y->bits[w];
        any |= both[w] != 0;
        keep_x &= both[w] == x->bits[w];
        keep_y &= both[w] == y->bits[w];
      }
      if (!any) return nullptr;
      // Adoption probe: only slots whose values disagree can break identity.
      V probe{};
      for (size_t i = chunked_internal::NextOccupied(both, 0);
           i < kRange && (keep_x || keep_y);
           i = chunked_internal::NextOccupied(both, i + 1)) {
        if (x->slots[i] == y->slots[i]) continue;
        const bool kept = meet(x->slots[i], y->slots[i], &probe);
        keep_x = keep_x && kept && probe == x->slots[i];
        keep_y = keep_y && kept && probe == y->slots[i];
      }
      if (keep_x) return x;
      if (keep_y) return y;
      auto fresh = std::make_shared<Chunk>();
      Base::ForEachOccupied(both, [&](size_t i) {
        V& slot = fresh->slots[i];
        if (x->slots[i] == y->slots[i]) {
          slot = x->slots[i];
        } else if (!meet(x->slots[i], y->slots[i], &slot)) {
          slot = V();
          return;
        }
        chunked_internal::SetBit(fresh->bits, i);
        ++fresh->count;
      });
      return fresh->count == 0 ? nullptr : fresh;
    });
    return out;
  }

  /// Merges a container with disjoint keys: ranges absent here adopt the
  /// other side's chunk pointer (O(1), shared); colliding ranges copy the
  /// other side's elements in.
  void MergeDisjointCopy(const ChunkedIdMap& other) {
    for (const auto& [ck, chunk] : other.spine_) {
      MergeChunk(ck, ChunkPtr(chunk), /*may_move_values=*/false);
    }
  }
  /// As MergeDisjointCopy, but may move values out of chunks this side of
  /// the merge solely owns (large attribute maps avoid a deep copy).
  void MergeDisjointMove(ChunkedIdMap&& other) {
    for (auto& [ck, chunk] : other.spine_) {
      // Moving values out mutates `chunk` in place, so the sole-owner probe
      // needs the same acquire pairing as MutableChunk: a sibling's last
      // reference may have been dropped on another thread, and its reads
      // must be ordered before our writes.
      const bool sole = chunk.use_count() == 1;
      if (sole) {
        std::atomic_thread_fence(std::memory_order_acquire);
        CowAnnotateAcquire(chunk.get());
      }
      MergeChunk(ck, std::move(chunk), /*may_move_values=*/sole);
    }
    other.spine_.clear();
    other.size_ = 0;
  }

  /// ForEachPart with per-value heap accounting: `value_bytes` reports the
  /// heap owned by one value (return 0 for inline values).
  template <typename PartFn, typename ValueBytesFn>
  void ForEachPart(PartFn fn, ValueBytesFn value_bytes) const {
    Base::ForEachPartImpl(fn, [&](const Chunk& chunk) {
      size_t bytes = sizeof(Chunk);
      Base::ForEachOccupied(chunk.bits, [&](size_t i) { bytes += value_bytes(chunk.slots[i]); });
      return bytes;
    });
  }

  // -- Iteration (const only; yields proxy pairs) ----------------------------
  class const_iterator : public Base::IterCore {
   public:
    using value_type = std::pair<K, const V&>;
    using reference = value_type;
    using pointer = void;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    const_iterator(typename Spine::const_iterator it,
                   typename Spine::const_iterator end, size_t idx)
        : Base::IterCore(it, end, idx) {}

    reference operator*() const {
      const auto& [ck, chunk] = *this->it_;
      return {static_cast<K>((ck << kRangeLog2) | this->idx_),
              chunk->slots[this->idx_]};
    }
    const_iterator& operator++() {
      this->Advance();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const const_iterator& o) const { return this->Equal(o); }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }
  };

  const_iterator begin() const {
    return const_iterator(spine_.begin(), spine_.end(), 0);
  }
  const_iterator end() const {
    return const_iterator(spine_.end(), spine_.end(), 0);
  }

 private:
  void MergeChunk(uint64_t ck, ChunkPtr theirs, bool may_move_values) {
    ChunkPtr* mine = spine_.FindValue(ck);
    if (mine == nullptr) {
      size_ += theirs->count;
      spine_.emplace(ck, std::move(theirs));
      return;
    }
    Chunk* c = chunked_internal::MutableChunk(mine);
    Base::ForEachOccupied(theirs->bits, [&](size_t i) {
      if (c->Test(i)) return;  // Disjoint by contract; be tolerant anyway.
      if (may_move_values) {
        c->slots[i] = std::move(theirs->slots[i]);
      } else {
        c->slots[i] = theirs->slots[i];
      }
      chunked_internal::SetBit(c->bits, i);
      ++c->count;
      ++size_;
    });
  }
};

/// Chunked COW set of integer ids: bitmap-only chunks covering 2^kRangeLog2
/// consecutive ids (default 256 — a 32-byte bitmap per chunk).
template <typename K, size_t kRangeLog2 = 8>
class ChunkedIdSet
    : public chunked_internal::SpineBase<
          K, chunked_internal::SetChunk<(size_t{1} << kRangeLog2)>, kRangeLog2> {
  using Base = chunked_internal::SpineBase<
      K, chunked_internal::SetChunk<(size_t{1} << kRangeLog2)>, kRangeLog2>;
  using Base::spine_;
  using Base::size_;

 public:
  using Base::kRange;
  using Base::kWords;
  using typename Base::Chunk;
  using typename Base::ChunkPtr;
  using typename Base::Spine;

  /// Returns true if the key was newly inserted.
  bool insert(const K& key) {
    const size_t idx = Base::SlotIndex(key);
    ChunkPtr* slot = spine_.FindValue(Base::ChunkKey(key));
    if (slot != nullptr && (*slot)->Test(idx)) return false;
    Chunk* c = Base::OwnedChunk(Base::ChunkKey(key), slot);
    chunked_internal::SetBit(c->bits, idx);
    ++c->count;
    ++size_;
    return true;
  }

  bool erase(const K& key) {
    return Base::EraseImpl(key, [](Chunk*, size_t) {});
  }

  bool operator==(const ChunkedIdSet& other) const {
    return Base::EqualElements(other, [](const Chunk& mine, const Chunk& theirs) {
      for (size_t w = 0; w < kWords; ++w) {
        if (mine.bits[w] != theirs.bits[w]) return false;
      }
      return true;
    });
  }
  bool operator!=(const ChunkedIdSet& other) const { return !(*this == other); }

  /// Calls fn(key, in_this) for every id present in exactly one of the two
  /// sets: pointer-shared chunks are skipped, divergent pairs XOR their
  /// bitmap words.
  template <typename Fn>
  void ForEachSymmetricDiff(const ChunkedIdSet& other, Fn fn) const {
    Base::ForEachDivergentPair(
        other, [&](uint64_t ck, const Chunk* mine, const Chunk* theirs) {
          const K base = static_cast<K>(ck << kRangeLog2);
          Base::ForEachSelectedSlot(mine, theirs, Base::Xor, [&](size_t i, bool in_this, bool) {
            fn(static_cast<K>(base | i), in_this);
          });
        });
  }

  /// The ids present in both sets. Pointer-shared chunks are adopted whole;
  /// a divergent pair is met with a word-wise AND and adopts an input chunk
  /// when the meet equals it.
  static ChunkedIdSet Intersect(const ChunkedIdSet& a, const ChunkedIdSet& b) {
    ChunkedIdSet out;
    Base::IntersectImpl(a, b, &out, [](const ChunkPtr& x, const ChunkPtr& y) -> ChunkPtr {
      Chunk meet;
      for (size_t w = 0; w < kWords; ++w) {
        meet.bits[w] = x->bits[w] & y->bits[w];
        meet.count += static_cast<uint32_t>(__builtin_popcountll(meet.bits[w]));
      }
      if (meet.count == 0) return nullptr;
      if (meet.count == x->count) return x;  // meet ⊆ x, so equal counts mean x.
      if (meet.count == y->count) return y;
      return std::make_shared<Chunk>(meet);
    });
    return out;
  }

  void MergeDisjointCopy(const ChunkedIdSet& other) {
    for (const auto& [ck, chunk] : other.spine_) MergeChunk(ck, ChunkPtr(chunk));
  }
  void MergeDisjointMove(ChunkedIdSet&& other) {
    for (auto& [ck, chunk] : other.spine_) MergeChunk(ck, std::move(chunk));
    other.spine_.clear();
    other.size_ = 0;
  }

  template <typename PartFn>
  void ForEachPart(PartFn fn) const {
    Base::ForEachPartImpl(fn, [](const Chunk&) { return sizeof(Chunk); });
  }

  class const_iterator : public Base::IterCore {
   public:
    using value_type = K;
    using reference = K;
    using pointer = void;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    const_iterator(typename Spine::const_iterator it,
                   typename Spine::const_iterator end, size_t idx)
        : Base::IterCore(it, end, idx) {}

    reference operator*() const {
      return static_cast<K>((this->it_->first << kRangeLog2) | this->idx_);
    }
    const_iterator& operator++() {
      this->Advance();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const const_iterator& o) const { return this->Equal(o); }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }
  };
  using iterator = const_iterator;

  const_iterator begin() const {
    return const_iterator(spine_.begin(), spine_.end(), 0);
  }
  const_iterator end() const {
    return const_iterator(spine_.end(), spine_.end(), 0);
  }

 private:
  void MergeChunk(uint64_t ck, ChunkPtr theirs) {
    ChunkPtr* mine = spine_.FindValue(ck);
    if (mine == nullptr) {
      size_ += theirs->count;
      spine_.emplace(ck, std::move(theirs));
      return;
    }
    Chunk* c = chunked_internal::MutableChunk(mine);
    for (size_t w = 0; w < kWords; ++w) {
      const uint64_t added = theirs->bits[w] & ~c->bits[w];
      c->bits[w] |= theirs->bits[w];
      const auto n = static_cast<uint32_t>(__builtin_popcountll(added));
      c->count += n;
      size_ += n;
    }
  }
};

}  // namespace hgdb

#endif  // HISTGRAPH_COMMON_CHUNKED_STORE_H_

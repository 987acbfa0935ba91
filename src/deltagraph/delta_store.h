#ifndef HISTGRAPH_DELTAGRAPH_DELTA_STORE_H_
#define HISTGRAPH_DELTAGRAPH_DELTA_STORE_H_

#include <atomic>
#include <cassert>
#include <list>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "deltagraph/skeleton.h"
#include "graph/delta.h"
#include "kvstore/kv_store.h"
#include "obs/metrics.h"
#include "temporal/event_list.h"

namespace hgdb {

/// \brief Per-payload fetch-frequency counters, indexed by delta id — the
/// access-frequency signal adaptive materialization (ROADMAP item 3) scores
/// candidates with. One relaxed atomic add per recorded fetch (LRU hits
/// count too: a hit is still traffic on that skeleton edge), gated on
/// `obs::MetricsEnabled()`.
///
/// Storage is a grow-only flat array of atomics. Growth (EnsureSize) happens
/// on the build path (AllocateId/SetNextId) under a mutex; retired arrays are
/// kept alive so a concurrent Record through a stale pointer stays safe.
/// Increments racing a grow can be dropped — the index contract already
/// forbids mutating an index mid-retrieval, and frequency estimates tolerate
/// off-by-a-few.
class FetchFrequency {
 public:
  void Record(DeltaId id) {
    if (!always_on_.load(std::memory_order_relaxed) && !obs::MetricsEnabled()) {
      return;
    }
    const size_t n = size_.load(std::memory_order_acquire);
    if (id >= n) return;
    std::atomic<uint32_t>* slots = slots_.load(std::memory_order_acquire);
    slots[id].fetch_add(1, std::memory_order_relaxed);
  }

  /// Records counts even when the metrics subsystem is off. The adaptive
  /// materialization advisor steers on these counters, so its signal must
  /// not depend on HISTGRAPH_METRICS being set.
  void SetAlwaysOn(bool on) { always_on_.store(on, std::memory_order_relaxed); }

  /// Grows to at least `n` slots (geometric, so repeated AllocateId is O(1)
  /// amortized). Existing counts carry over.
  void EnsureSize(size_t n);

  uint32_t Count(DeltaId id) const;
  size_t size() const { return size_.load(std::memory_order_acquire); }
  /// Zeroes every counter. Serialized against EnsureSize (both take
  /// grow_mu_) so a reset cannot race a grow's count carry-over and leave
  /// stale counts alive in the new arena.
  void Reset();
  /// Halves every counter (the advisor's per-tick exponential decay, so a
  /// past hot streak cannot pin a node forever once traffic shifts).
  void Decay();

  /// The `k` hottest (id, count) pairs with nonzero counts, as a JSON array
  /// sorted by count descending, ties broken by ascending id so exports and
  /// the advisor's candidate ranking are deterministic across runs.
  std::string TopKJSON(size_t k) const;

 private:
  mutable std::mutex grow_mu_;
  std::atomic<bool> always_on_{false};
  std::atomic<std::atomic<uint32_t>*> slots_{nullptr};
  std::atomic<size_t> size_{0};
  std::vector<std::unique_ptr<std::atomic<uint32_t>[]>> arenas_;
};

/// \brief Columnar persistence of deltas and leaf-eventlists in a KVStore.
///
/// Each delta/eventlist is stored as up to four values under keys
/// `d/<delta_id>/<component>` — the paper's
/// `<partition id, delta id, c>` keys with the partition made implicit by
/// using one store per partition (one Kyoto Cabinet instance per machine in
/// the paper's deployment). Empty components are not stored; the skeleton's
/// per-edge ComponentSizes record which components exist and how large they
/// are, so queries fetch exactly what they need.
///
/// A small LRU of *decoded* deltas/eventlists sits above the KVStore, keyed
/// by (delta id, requested components). The plan executor's ExecFetchCache
/// pins decodes within one plan; this cache carries them across consecutive
/// plans that traverse the same skeleton edges (repeated singlepoint queries,
/// the paper's Section 6 access pattern), skipping the fetch, the
/// decompression, and the decode. Entries are shared_ptr-owned so a hit
/// never copies.
class DeltaStore {
 public:
  explicit DeltaStore(KVStore* store) : store_(store) {}

  /// Allocates a fresh delta id.
  DeltaId AllocateId() {
    const DeltaId id = next_id_++;
    fetch_freq_.EnsureSize(next_id_);
    return id;
  }

  /// Persists all non-empty components of `delta`; fills `sizes` with the
  /// serialized byte/element counts per component.
  Status PutDelta(DeltaId id, const Delta& delta, ComponentSizes* sizes);

  /// Persists all non-empty components of `events` (struct, nodeattr,
  /// edgeattr, transient).
  Status PutEventList(DeltaId id, const EventList& events, ComponentSizes* sizes);

  /// One delta / eventlist read inside a batch. A batch is the only way a
  /// payload leaves the store: the fetch cache's demand misses send
  /// one-entry batches, its prefetch drains and CollectEvents send wide ones.
  struct BatchedRead {
    BatchedRead() = default;
    BatchedRead(DeltaId id, unsigned components, const ComponentSizes& sizes,
                bool is_eventlist)
        : id(id), components(components), sizes(sizes), is_eventlist(is_eventlist) {}

    // Inputs.
    DeltaId id = 0;
    unsigned components = 0;
    ComponentSizes sizes;
    bool is_eventlist = false;
    // Outputs: `status` plus exactly one of the two objects (by is_eventlist).
    Status status;
    std::shared_ptr<const Delta> delta;
    std::shared_ptr<const EventList> events;
    bool lru_hit = false;  ///< Served from the decoded LRU, no fetch needed.
  };

  /// Resolves every entry of `batch`: FetchBatch, then DecodeFetched for each
  /// miss on the calling thread. Per-entry failures land in that entry's
  /// `status`; other entries still complete.
  void GetBatch(std::span<BatchedRead> batch) const;

  /// Raw bytes of one batch miss, fetched but not yet decoded: the handoff
  /// unit between FetchBatch (I/O thread) and DecodeFetched (compute pool).
  struct FetchedRead {
    size_t entry = 0;  ///< Index of the owning entry in the batch.
    Status status;     ///< Fetch status; decode status lands on the entry.
    std::vector<std::pair<ComponentMask, std::string>> blobs;
  };

  /// The fetch half: decoded-LRU probes, then the KV keys of *all* misses in
  /// ONE KVStore::MultiGet — one storage round-trip per batch, not per
  /// delta, and the only place a payload round-trip happens. LRU hits are
  /// resolved directly on their batch entries (an all-hit batch allocates
  /// nothing); each miss yields one FetchedRead of raw component blobs.
  /// Splitting here lets the fetch cache run the CPU-bound decode on the
  /// compute TaskPool instead of serializing it on a seek-bound I/O thread.
  void FetchBatch(std::span<BatchedRead> batch,
                  std::vector<FetchedRead>* fetched) const;

  /// The decode half: decodes one fetched miss into its batch entry and
  /// inserts the result into the decoded LRU. Thread-safe; distinct entries
  /// may decode concurrently.
  void DecodeFetched(BatchedRead* read, FetchedRead* fetched) const;

  /// Round-trip stats: FetchBatch MultiGets issued and the batch misses they
  /// served (avg batch width = reads / round-trips). Demand and prefetch
  /// reads both count.
  size_t batched_multigets() const { return batched_multigets_.load(std::memory_order_relaxed); }
  size_t batched_reads() const { return batched_reads_.load(std::memory_order_relaxed); }

  /// Skeleton + metadata persistence.
  Status PutSkeleton(const Skeleton& skeleton);
  Status GetSkeleton(Skeleton* skeleton) const;
  Status PutMeta(const std::string& key, const std::string& value);
  Status GetMeta(const std::string& key, std::string* value) const;

  KVStore* store() const { return store_; }

  /// Restores the id allocator after reopening an index.
  void SetNextId(DeltaId next) {
    next_id_ = next;
    fetch_freq_.EnsureSize(next);
  }
  DeltaId next_id() const { return next_id_; }

  /// Per-delta fetch-frequency counters (see FetchFrequency).
  FetchFrequency& fetch_frequency() const { return fetch_freq_; }

  /// Decoded-object cache sizing/introspection (0 capacity disables).
  void SetDecodedCacheCapacity(size_t entries);
  size_t decoded_cache_hits() const;
  size_t decoded_cache_misses() const;

  /// Decoded-cache key: (id, components, is_delta) packed into 64 bits.
  /// Components fit in 4 bits; ids get the remaining 59 bits, which at one
  /// delta per leaf-cut outlasts any realizable index (debug-asserted so an
  /// id overflow can never silently alias two cache slots).
  static uint64_t CacheKey(DeltaId id, unsigned components, bool is_delta) {
    assert((id >> 59) == 0 && "DeltaId exceeds 2^59: decoded-cache key overflow");
    return (id << 5) | (static_cast<uint64_t>(components & 0xF) << 1) |
           (is_delta ? 1 : 0);
  }

 private:
  static std::string Key(DeltaId id, int component_index);

  // -- Decoded-object cache --------------------------------------------------
  //
  // Approximate LRU with a second-chance (clock) recency bit instead of
  // splice-on-hit, so concurrent plan execution can serve hits under a
  // *shared* lock: a hit only reads the list node and flips an atomic flag.
  // Eviction (under the exclusive lock) scans from the cold end, giving
  // flagged entries one more trip through the list. The single-thread fast
  // path is an uncontended shared-lock acquire plus one hash probe.
  struct CacheEntry {
    CacheEntry(uint64_t k, std::shared_ptr<const Delta> d,
               std::shared_ptr<const EventList> e)
        : key(k), delta(std::move(d)), events(std::move(e)) {}
    uint64_t key;
    std::shared_ptr<const Delta> delta;          // One of the two is set.
    std::shared_ptr<const EventList> events;
    mutable std::atomic<bool> hot{false};        // Set on hit; cleared by the clock.
  };
  /// On a hit, sets `r`'s delta or events (by is_eventlist) and returns true.
  bool CacheLookup(uint64_t key, BatchedRead* r) const;
  void CacheInsert(uint64_t key, std::shared_ptr<const Delta> delta,
                   std::shared_ptr<const EventList> events) const;
  /// Must be called with cache_mu_ held exclusively.
  void EvictOverCapacityLocked() const;
  void CacheInvalidate(DeltaId id);

  KVStore* store_;
  DeltaId next_id_ = 1;

  mutable std::shared_mutex cache_mu_;
  mutable std::list<CacheEntry> cache_lru_;  // Front = most recently inserted.
  mutable std::unordered_map<uint64_t, std::list<CacheEntry>::iterator> cache_index_;
  size_t cache_capacity_ = 64;
  mutable std::atomic<size_t> cache_hits_{0};
  mutable std::atomic<size_t> cache_misses_{0};
  mutable std::atomic<size_t> batched_multigets_{0};
  mutable std::atomic<size_t> batched_reads_{0};
  mutable FetchFrequency fetch_freq_;
};

}  // namespace hgdb

#endif  // HISTGRAPH_DELTAGRAPH_DELTA_STORE_H_

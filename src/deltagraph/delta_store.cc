#include "deltagraph/delta_store.h"

#include <algorithm>
#include <sstream>

namespace hgdb {

namespace {

constexpr ComponentMask kComponentByIndex[kNumComponents] = {
    kCompStruct, kCompNodeAttr, kCompEdgeAttr, kCompTransient};

constexpr char kComponentTag[kNumComponents] = {'s', 'n', 'e', 't'};

// Registry metrics (process-wide; every DeltaStore instance folds in). The
// pointers are fetched once — GetCounter takes the registry lock — and the
// per-event cost is Counter::Add's enabled-check + relaxed add.
obs::Counter& LruHits() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("delta_store.lru_hits");
  return *c;
}
obs::Counter& LruMisses() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("delta_store.lru_misses");
  return *c;
}
obs::Counter& Decodes() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("delta_store.decodes");
  return *c;
}

}  // namespace

// -- FetchFrequency ----------------------------------------------------------

void FetchFrequency::EnsureSize(size_t n) {
  if (n <= size_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(grow_mu_);
  const size_t old_n = size_.load(std::memory_order_acquire);
  if (n <= old_n) return;
  size_t cap = std::max<size_t>(1024, old_n * 2);
  while (cap < n) cap *= 2;
  auto fresh = std::make_unique<std::atomic<uint32_t>[]>(cap);
  std::atomic<uint32_t>* old = slots_.load(std::memory_order_acquire);
  for (size_t i = 0; i < old_n; ++i) {
    fresh[i].store(old[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  for (size_t i = old_n; i < cap; ++i) {
    fresh[i].store(0, std::memory_order_relaxed);
  }
  slots_.store(fresh.get(), std::memory_order_release);
  size_.store(cap, std::memory_order_release);
  arenas_.push_back(std::move(fresh));  // Old arenas stay alive (see header).
}

uint32_t FetchFrequency::Count(DeltaId id) const {
  const size_t n = size_.load(std::memory_order_acquire);
  if (id >= n) return 0;
  return slots_.load(std::memory_order_acquire)[id].load(
      std::memory_order_relaxed);
}

void FetchFrequency::Reset() {
  // grow_mu_ serializes against EnsureSize: without it a concurrent grow
  // could copy counts into a fresh arena while this loop zeroes only the old
  // one, and the copied counts would survive the reset.
  std::lock_guard<std::mutex> lock(grow_mu_);
  const size_t n = size_.load(std::memory_order_acquire);
  std::atomic<uint32_t>* slots = slots_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) slots[i].store(0, std::memory_order_relaxed);
}

void FetchFrequency::Decay() {
  std::lock_guard<std::mutex> lock(grow_mu_);  // Same carry-over race as Reset.
  const size_t n = size_.load(std::memory_order_acquire);
  std::atomic<uint32_t>* slots = slots_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t c = slots[i].load(std::memory_order_relaxed);
    if (c > 0) slots[i].store(c >> 1, std::memory_order_relaxed);
  }
}

std::string FetchFrequency::TopKJSON(size_t k) const {
  const size_t n = size_.load(std::memory_order_acquire);
  std::atomic<uint32_t>* slots = slots_.load(std::memory_order_acquire);
  std::vector<std::pair<uint32_t, size_t>> hot;  // (count, id)
  for (size_t i = 0; i < n; ++i) {
    const uint32_t c = slots[i].load(std::memory_order_relaxed);
    if (c > 0) hot.emplace_back(c, i);
  }
  const size_t keep = std::min(k, hot.size());
  // (count desc, id asc) is a strict total order over the (count, id) pairs,
  // so the selected top-k — including which of several equal-count entries
  // make the cut — is deterministic across runs.
  std::partial_sort(hot.begin(), hot.begin() + keep, hot.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < keep; ++i) {
    if (i > 0) out << ",";
    out << "{\"id\":" << hot[i].second << ",\"fetches\":" << hot[i].first << "}";
  }
  out << "]";
  return out.str();
}

std::string DeltaStore::Key(DeltaId id, int component_index) {
  std::string key = "d/";
  key += std::to_string(id);
  key += '/';
  key += kComponentTag[component_index];
  return key;
}

// -- Decoded-object LRU ------------------------------------------------------

bool DeltaStore::CacheLookup(uint64_t key, BatchedRead* r) const {
  std::shared_lock lock(cache_mu_);
  auto it = cache_index_.find(key);
  if (it == cache_index_.end()) {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    LruMisses().Add();
    return false;
  }
  it->second->hot.store(true, std::memory_order_relaxed);
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  LruHits().Add();
  if (r->is_eventlist) {
    r->events = it->second->events;
  } else {
    r->delta = it->second->delta;
  }
  return true;
}

void DeltaStore::CacheInsert(uint64_t key, std::shared_ptr<const Delta> delta,
                             std::shared_ptr<const EventList> events) const {
  std::unique_lock lock(cache_mu_);
  if (cache_capacity_ == 0) return;
  auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {  // Raced decode; keep the existing entry hot.
    it->second->hot.store(true, std::memory_order_relaxed);
    return;
  }
  cache_lru_.emplace_front(key, std::move(delta), std::move(events));
  cache_index_[key] = cache_lru_.begin();
  EvictOverCapacityLocked();
}

void DeltaStore::EvictOverCapacityLocked() const {
  while (cache_lru_.size() > cache_capacity_) {
    auto victim = std::prev(cache_lru_.end());
    if (victim->hot.load(std::memory_order_relaxed)) {
      // Second chance: recently hit under the shared lock; cycle it to the
      // hot end instead of evicting. Each pass either evicts or clears one
      // flag, so the loop terminates.
      victim->hot.store(false, std::memory_order_relaxed);
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, victim);
      continue;
    }
    cache_index_.erase(victim->key);
    cache_lru_.erase(victim);
  }
}

void DeltaStore::CacheInvalidate(DeltaId id) {
  // An id owns at most 32 cache keys (CacheKey packs components and the
  // delta/eventlist bit into its low 5 bits). Probe them under the shared
  // lock: builder ids come fresh from AllocateId() and are never cached, so
  // the write path must not stall concurrent readers' hits behind the
  // exclusive lock.
  const uint64_t first = CacheKey(id, 0, false);
  {
    std::shared_lock lock(cache_mu_);
    uint64_t key = first;
    while (key < first + 32 && cache_index_.count(key) == 0) ++key;
    if (key == first + 32) return;
  }
  std::unique_lock lock(cache_mu_);
  for (uint64_t key = first; key < first + 32; ++key) {
    auto it = cache_index_.find(key);
    if (it == cache_index_.end()) continue;
    cache_lru_.erase(it->second);
    cache_index_.erase(it);
  }
}

void DeltaStore::SetDecodedCacheCapacity(size_t entries) {
  std::unique_lock lock(cache_mu_);
  cache_capacity_ = entries;
  // Capacity shrink is an explicit reset; no second chances here.
  while (cache_lru_.size() > cache_capacity_) {
    cache_index_.erase(cache_lru_.back().key);
    cache_lru_.pop_back();
  }
}

size_t DeltaStore::decoded_cache_hits() const {
  return cache_hits_.load(std::memory_order_relaxed);
}

size_t DeltaStore::decoded_cache_misses() const {
  return cache_misses_.load(std::memory_order_relaxed);
}

// -- Deltas ------------------------------------------------------------------

Status DeltaStore::PutDelta(DeltaId id, const Delta& delta, ComponentSizes* sizes) {
  CacheInvalidate(id);
  *sizes = ComponentSizes();
  std::string blob;
  for (int c = 0; c < 3; ++c) {  // Deltas have no transient component.
    const ComponentMask mask = kComponentByIndex[c];
    if (delta.ElementCount(mask) == 0) continue;
    delta.EncodeComponent(mask, &blob);
    HG_RETURN_NOT_OK(store_->Put(Key(id, c), blob));
    sizes->bytes[c] = blob.size();
    sizes->elements[c] = delta.ElementCount(mask);
  }
  return Status::OK();
}

Status DeltaStore::PutEventList(DeltaId id, const EventList& events,
                                ComponentSizes* sizes) {
  CacheInvalidate(id);
  *sizes = ComponentSizes();
  std::string blob;
  for (int c = 0; c < kNumComponents; ++c) {
    const ComponentMask mask = kComponentByIndex[c];
    const size_t count = events.CountComponent(mask);
    if (count == 0) continue;
    events.EncodeComponent(mask, &blob);
    HG_RETURN_NOT_OK(store_->Put(Key(id, c), blob));
    sizes->bytes[c] = blob.size();
    sizes->elements[c] = count;
  }
  return Status::OK();
}

void DeltaStore::FetchBatch(std::span<BatchedRead> batch,
                            std::vector<FetchedRead>* fetched) const {
  // Resolve decoded-LRU hits first and gather the KV keys of every miss, so
  // the storage round-trip below covers the whole batch.
  struct KeyPart {
    size_t fetched_index;
    ComponentMask mask;
  };
  std::vector<std::string> keys;
  std::vector<KeyPart> parts;
  for (size_t i = 0; i < batch.size(); ++i) {
    BatchedRead& r = batch[i];
    fetch_freq_.Record(r.id);
    if (CacheLookup(CacheKey(r.id, r.components, !r.is_eventlist), &r)) {
      r.status = Status::OK();
      r.lru_hit = true;
      continue;
    }
    const size_t fi = fetched->size();
    fetched->push_back(FetchedRead{i, Status::OK(), {}});
    const int limit = r.is_eventlist ? kNumComponents : 3;
    for (int c = 0; c < limit; ++c) {
      const ComponentMask mask = kComponentByIndex[c];
      if ((r.components & mask) == 0) continue;
      if (r.sizes.bytes[c] == 0) continue;
      keys.push_back(Key(r.id, c));
      parts.push_back(KeyPart{fi, mask});
    }
  }
  if (fetched->empty()) return;

  // One MultiGet round-trip for the entire batch (cross-*delta*, not just
  // cross-component). The KVStore books its own kvstore.* read counters.
  std::vector<std::string> blobs;
  std::vector<Status> statuses;
  if (!keys.empty()) {
    std::vector<Slice> key_slices(keys.begin(), keys.end());
    store_->MultiGet(key_slices, &blobs, &statuses);
    batched_multigets_.fetch_add(1, std::memory_order_relaxed);
    batched_reads_.fetch_add(fetched->size(), std::memory_order_relaxed);
  }
  for (size_t k = 0; k < parts.size(); ++k) {
    FetchedRead& f = (*fetched)[parts[k].fetched_index];
    if (!f.status.ok()) continue;  // A failed key poisons only its own entry.
    if (!statuses[k].ok()) {
      f.status = statuses[k];
      f.blobs.clear();
      continue;
    }
    f.blobs.emplace_back(parts[k].mask, std::move(blobs[k]));
  }
}

void DeltaStore::DecodeFetched(BatchedRead* read, FetchedRead* fetched) const {
  read->status = fetched->status;
  if (!read->status.ok()) return;
  Decodes().Add();
  if (read->is_eventlist) {
    auto decoded = std::make_shared<EventList>();
    for (auto& [mask, blob] : fetched->blobs) {
      (void)mask;  // Eventlist blobs self-describe their component.
      Status s = decoded->DecodeAndMergeComponent(blob);
      if (!s.ok()) {
        read->status = s;
        return;
      }
    }
    decoded->FinalizeMerge();
    read->events = std::move(decoded);
    CacheInsert(CacheKey(read->id, read->components, /*is_delta=*/false),
                nullptr, read->events);
  } else {
    auto decoded = std::make_shared<Delta>();
    for (auto& [mask, blob] : fetched->blobs) {
      Status s = decoded->DecodeComponent(mask, blob);
      if (!s.ok()) {
        read->status = s;
        return;
      }
    }
    read->delta = std::move(decoded);
    CacheInsert(CacheKey(read->id, read->components, /*is_delta=*/true),
                read->delta, nullptr);
  }
}

void DeltaStore::GetBatch(std::span<BatchedRead> batch) const {
  std::vector<FetchedRead> fetched;
  FetchBatch(batch, &fetched);
  for (FetchedRead& f : fetched) DecodeFetched(&batch[f.entry], &f);
}

Status DeltaStore::PutSkeleton(const Skeleton& skeleton) {
  std::string blob;
  skeleton.EncodeTo(&blob);
  return store_->Put("m/skeleton", blob);
}

Status DeltaStore::GetSkeleton(Skeleton* skeleton) const {
  std::string blob;
  HG_RETURN_NOT_OK(store_->Get("m/skeleton", &blob));
  return Skeleton::DecodeFrom(blob, skeleton);
}

Status DeltaStore::PutMeta(const std::string& key, const std::string& value) {
  return store_->Put("m/" + key, value);
}

Status DeltaStore::GetMeta(const std::string& key, std::string* value) const {
  return store_->Get("m/" + key, value);
}

}  // namespace hgdb

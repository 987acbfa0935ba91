#include "exec/fetch_cache.h"

#include <chrono>
#include <type_traits>

#include "deltagraph/delta_graph.h"
#include "exec/task_pool.h"
#include "obs/metrics.h"
#include "obs/stages.h"

namespace hgdb {

namespace {

obs::Counter& DemandFetches() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("exec.fetches_demand");
  return *c;
}
obs::Counter& CoveredFetches() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("exec.fetches_covered");
  return *c;
}
obs::Counter& PrefetchesIssued() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("exec.prefetch_issued");
  return *c;
}
obs::Counter& Drains() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("exec.drains");
  return *c;
}
obs::Histogram& DrainWidth() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("exec.drain_width");
  return *h;
}

// Blocks on `future`, helping drain the calling thread's own TaskPool while
// it waits. With decode offload, a slot's fulfilment can sit in the compute
// pool's queue *behind* this very thread; a plain future.get() would park
// the worker on work only it can start. The timed wait covers the window
// where the fulfilling task is already running on another thread.
template <typename FutureT>
auto WaitHelping(const FutureT& future) {
  TaskPool* helper = TaskPool::Current();
  if (helper != nullptr) {
    while (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      if (!helper->RunOne()) {
        future.wait_for(std::chrono::microseconds(100));
      }
    }
  }
  return future.get();
}

// The promise of the kind `T` names (Delta or EventList).
template <typename T, typename ClaimT>
auto& PromiseOf(ClaimT* claim) {
  if constexpr (std::is_same_v<T, EventList>) {
    return claim->events;
  } else {
    return claim->delta;
  }
}
}  // namespace

ExecFetchCache::ExecFetchCache(const DeltaGraph& dg) : dg_(dg) {}

template <typename T>
ExecFetchCache::SlotMap<T>& ExecFetchCache::Slots() {
  if constexpr (std::is_same_v<T, EventList>) {
    return events_;
  } else {
    return deltas_;
  }
}

template <typename T>
ExecFetchCache::FetchFuture<T> ExecFetchCache::ClaimOrGet(Claim* claim,
                                                          bool* claimed) {
  SlotMap<T>& map = Slots<T>();
  // Fast path: slot already claimed (shared lock, one hash probe).
  {
    std::shared_lock lock(mu_);
    auto it = map.find(claim->key);
    if (it != map.end()) {
      *claimed = false;
      return it->second;
    }
  }
  // Allocate the promise's shared state before taking the exclusive lock.
  auto& promise = PromiseOf<T>(claim).emplace();
  std::unique_lock lock(mu_);
  auto it = map.find(claim->key);
  if (it != map.end()) {  // Raced claim: wait on the winner's future.
    *claimed = false;
    PromiseOf<T>(claim).reset();
    return it->second;
  }
  *claimed = true;
  FetchFuture<T> future = promise.get_future().share();
  map.emplace(claim->key, future);
  return future;
}

template <typename T>
void ExecFetchCache::ReleaseFailedSlot(uint64_t key) {
  // A failed fetch must not pin its error for the cache's lifetime: current
  // waiters see the error (their future is already fulfilled), but dropping
  // the slot lets the next caller re-claim and retry.
  std::unique_lock lock(mu_);
  Slots<T>().erase(key);
}

void ExecFetchCache::Fetch(std::span<DeltaStore::BatchedRead> reads,
                           std::vector<DeltaStore::FetchedRead>* fetched,
                           obs::ScopedSpan* span, const obs::TraceCtx& tc) const {
  dg_.delta_store().FetchBatch(reads, fetched);
  if (!tc) return;
  // Account the round-trip before any decode touches the blobs.
  uint64_t lru_hits = 0, kv_keys = 0, bytes = 0;
  for (const DeltaStore::BatchedRead& r : reads) lru_hits += r.lru_hit ? 1 : 0;
  for (const DeltaStore::FetchedRead& f : *fetched) {
    kv_keys += f.blobs.size();
    for (const auto& [mask, blob] : f.blobs) bytes += blob.size();
  }
  span->SetAttrs({{"lru_hits", static_cast<int64_t>(lru_hits)},
                  {"kv_keys", static_cast<int64_t>(kv_keys)},
                  {"bytes", static_cast<int64_t>(bytes)}});
  tc.trace->lru_hits.fetch_add(lru_hits, std::memory_order_relaxed);
  tc.trace->lru_misses.fetch_add(reads.size() - lru_hits, std::memory_order_relaxed);
  tc.trace->kv_reads.fetch_add(kv_keys, std::memory_order_relaxed);
  tc.trace->bytes_read.fetch_add(bytes, std::memory_order_relaxed);
  tc.trace->bytes_decoded.fetch_add(bytes, std::memory_order_relaxed);
}

void ExecFetchCache::Fulfil(const DeltaStore::BatchedRead& read, Claim* claim) {
  if (read.is_eventlist) {
    claim->events->set_value(read.status.ok() ? FetchResult<EventList>(read.events)
                                              : FetchResult<EventList>(read.status));
    if (!read.status.ok()) ReleaseFailedSlot<EventList>(claim->key);
  } else {
    claim->delta->set_value(read.status.ok() ? FetchResult<Delta>(read.delta)
                                             : FetchResult<Delta>(read.status));
    if (!read.status.ok()) ReleaseFailedSlot<Delta>(claim->key);
  }
}

void ExecFetchCache::DecodeAndFulfil(std::span<DeltaStore::BatchedRead> reads,
                                     std::span<Claim> claims,
                                     std::vector<DeltaStore::FetchedRead>* fetched) {
  for (DeltaStore::FetchedRead& f : *fetched) {
    dg_.delta_store().DecodeFetched(&reads[f.entry], &f);
  }
  for (size_t i = 0; i < reads.size(); ++i) Fulfil(reads[i], &claims[i]);
}

template <typename T>
Result<std::shared_ptr<const T>> ExecFetchCache::Get(const SkeletonEdge& e,
                                                     unsigned components) {
  constexpr bool kEvents = std::is_same_v<T, EventList>;
  const obs::TraceCtx tc = trace();
  Claim claim;
  claim.key = Key(e.id, components);
  bool claimed = false;
  FetchFuture<T> future = ClaimOrGet<T>(&claim, &claimed);
  if (tc) {
    tc.trace->fetches_total.fetch_add(1, std::memory_order_relaxed);
    auto& bucket = claimed ? tc.trace->fetches_demand : tc.trace->fetches_prefetched;
    bucket.fetch_add(1, std::memory_order_relaxed);
  }
  if (!claimed) {
    CoveredFetches().Add();
    return WaitHelping(future);
  }
  // Demand miss: a one-entry batch through the drain's fetch, decode and
  // fulfil. The batch is a span over this stack slot, so a decoded-LRU hit
  // allocates nothing beyond the claim itself.
  DemandFetches().Add();
  {
    obs::StageTimer stage(obs::StageFetchHist());
    obs::ScopedSpan span(tc, "fetch.demand");
    if (tc) {
      span.SetAttrs({{"edge", static_cast<int64_t>(e.id)},
                     {"kind", std::string(kEvents ? "eventlist" : "delta")}});
    }
    DeltaStore::BatchedRead read(e.delta_id, components, e.sizes, kEvents);
    std::vector<DeltaStore::FetchedRead> fetched;
    Fetch({&read, 1}, &fetched, &span, tc);
    DecodeAndFulfil({&read, 1}, {&claim, 1}, &fetched);
  }
  return future.get();
}

template Result<std::shared_ptr<const Delta>> ExecFetchCache::Get<Delta>(
    const SkeletonEdge& e, unsigned components);
template Result<std::shared_ptr<const EventList>> ExecFetchCache::Get<EventList>(
    const SkeletonEdge& e, unsigned components);

void ExecFetchCache::EnqueuePrefetch(size_t shard, const SkeletonEdge& e,
                                     bool is_eventlist, unsigned components) {
  PrefetchesIssued().Add();
  if (const obs::TraceCtx tc = trace()) {
    tc.trace->prefetch_issued.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(batch_mu_);
  batch_queues_[shard].push_back(
      QueuedPrefetch{e.id, e.delta_id, e.sizes, is_eventlist, components});
}

void ExecFetchCache::DrainPrefetchBatch(size_t shard) {
  std::vector<QueuedPrefetch> queued;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    auto it = batch_queues_.find(shard);
    if (it != batch_queues_.end()) queued.swap(it->second);
  }
  if (!queued.empty()) {
    const obs::TraceCtx tc = trace();
    obs::ScopedSpan span(tc, "io.drain");
    // Claim the unclaimed slots, then resolve them all through one batched
    // fetch. Slots someone else claimed are skipped: single-flight, the owner
    // fulfils them.
    auto drain = std::make_shared<Drain>();
    for (const QueuedPrefetch& q : queued) {
      Claim claim;
      claim.key = Key(q.edge, q.components);
      bool claimed = false;
      if (q.is_eventlist) {
        (void)ClaimOrGet<EventList>(&claim, &claimed);
      } else {
        (void)ClaimOrGet<Delta>(&claim, &claimed);
      }
      if (!claimed) continue;
      drain->reads.emplace_back(q.delta_id, q.components, q.sizes, q.is_eventlist);
      drain->claims.push_back(std::move(claim));
    }
    if (tc) {
      span.SetAttrs({{"shard", static_cast<int64_t>(shard)},
                     {"queued", static_cast<int64_t>(queued.size())},
                     {"claimed", static_cast<int64_t>(drain->reads.size())}});
    }
    Fetch(drain->reads, &drain->fetched, &span, tc);
    TaskPool* const decode_pool = decode_pool_;
    if (decode_pool == nullptr || decode_pool->parallelism() < 2) {
      DecodeAndFulfil(drain->reads, drain->claims, &drain->fetched);
    } else {
      // Decode offload: only the byte fetch ran on this I/O thread; each
      // fetched miss becomes one decode job on the compute pool. Every job
      // registers as an in-flight prefetch, so WaitPrefetchesIdle (and the
      // cache destructor) cannot return beneath it.
      for (size_t i = 0; i < drain->reads.size(); ++i) {
        if (drain->reads[i].lru_hit) Fulfil(drain->reads[i], &drain->claims[i]);
      }
      for (size_t j = 0; j < drain->fetched.size(); ++j) {
        BeginPrefetch();
        decode_pool->Submit([this, drain, j] {
          DeltaStore::FetchedRead& f = drain->fetched[j];
          dg_.delta_store().DecodeFetched(&drain->reads[f.entry], &f);
          Fulfil(drain->reads[f.entry], &drain->claims[f.entry]);
          EndPrefetch();
        });
      }
    }
    Drains().Add();
    DrainWidth().Record(queued.size());
  }
  // One scheduled drain job ran (jobs and enqueues are 1:1, so the counter
  // drains exactly once per job even when one job takes the whole queue).
  EndPrefetch();
}

void ExecFetchCache::BeginPrefetch() {
  std::lock_guard<std::mutex> lock(prefetch_mu_);
  ++prefetches_in_flight_;
}

void ExecFetchCache::EndPrefetch() {
  std::lock_guard<std::mutex> lock(prefetch_mu_);
  if (--prefetches_in_flight_ == 0) prefetch_cv_.notify_all();
}

void ExecFetchCache::WaitPrefetchesIdle() {
  // A waiter that is itself a pool worker must help: with decode offload the
  // outstanding "prefetches" may be decode jobs queued on this thread's own
  // pool, parked behind this very frame.
  TaskPool* helper = TaskPool::Current();
  std::unique_lock<std::mutex> lock(prefetch_mu_);
  if (helper == nullptr) {
    prefetch_cv_.wait(lock, [this] { return prefetches_in_flight_ == 0; });
    return;
  }
  while (prefetches_in_flight_ != 0) {
    lock.unlock();
    const bool ran = helper->RunOne();
    lock.lock();
    if (!ran) {
      prefetch_cv_.wait_for(lock, std::chrono::microseconds(100),
                            [this] { return prefetches_in_flight_ == 0; });
    }
  }
}

}  // namespace hgdb

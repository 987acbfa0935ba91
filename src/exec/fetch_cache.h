#ifndef HISTGRAPH_EXEC_FETCH_CACHE_H_
#define HISTGRAPH_EXEC_FETCH_CACHE_H_

#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "deltagraph/delta_store.h"
#include "deltagraph/skeleton.h"
#include "graph/delta.h"
#include "obs/trace.h"
#include "temporal/event_list.h"

namespace hgdb {

class DeltaGraph;
class TaskPool;

/// \brief A thread-safe pin of decoded deltas/eventlists for one plan
/// execution (or one RetrievalSession spanning several), with future-based
/// entries so an asynchronous prefetcher can fill it ahead of the workers.
///
/// The plan executor needs one pin shared across the threads that run a
/// plan's subtrees, a session wants it shared across *plans*, and the
/// prefetch pipeline wants to start fetches before any worker needs them.
/// Every snapshot plan reads its deltas through one of these, and every read
/// it makes — a worker's demand miss (a one-entry batch) or an I/O shard's
/// drain — runs the same DeltaStore::FetchBatch → DecodeFetched pair, claim,
/// fulfil and trace tally. Entries are keyed by (skeleton edge, components)
/// and live for the cache's lifetime — unlike the DeltaStore's LRU
/// underneath, nothing is evicted, so a pinned pointer stays valid without
/// holding the lock.
///
/// Concurrency: every slot is claimed exactly once (first-claimer-wins under
/// the map lock) and holds a shared_future. The claimer — a prefetch job on
/// an I/O thread, or whichever worker got there first — fetches and decodes
/// *outside* the lock and fulfils the future; everyone else blocks on the
/// future, so a fetch is performed at most once per cache no matter how many
/// threads race on the same edge. Claimers run straight-line fetch/decode
/// code and never wait on other tasks. With a decode pool attached
/// (SetDecodePool) a slot's fulfilment may instead sit in the compute pool's
/// queue, so a waiter that is itself a pool worker *helps* — runs queued
/// tasks between readiness checks — rather than parking behind work only it
/// can start; that preserves the no-deadlock invariant of
/// src/exec/README.md.
class ExecFetchCache {
 public:
  /// Binds the cache to the one graph whose payloads it pins (a session holds
  /// one cache per shard; an executor without a shared cache owns one). The
  /// graph must outlive the cache.
  explicit ExecFetchCache(const DeltaGraph& dg);

  /// Destruction waits for in-flight prefetch jobs (see BeginPrefetch), so
  /// owners may die with prefetches still queued on an IoPool.
  ~ExecFetchCache() { WaitPrefetchesIdle(); }

  const DeltaGraph& graph() const { return dg_; }

  /// Returns the decoded payload (T = Delta for an interior edge, EventList
  /// for a leaf-eventlist edge) of skeleton edge `e`, fetching it as a
  /// one-entry DeltaStore batch if no prefetch ever claimed the slot, or
  /// blocking on the in-flight fetch if one did. The edge is resolved by the
  /// caller against *its* pinned frontier's skeleton, so the cache never
  /// reads the live skeleton — payloads are immutable and never deleted, so
  /// an entry fetched under one epoch is valid under every later one.
  template <typename T>
  Result<std::shared_ptr<const T>> Get(const SkeletonEdge& e, unsigned components);

  /// Queues one fetch for I/O shard `shard`'s next drain. The scheduler pairs
  /// each enqueue with one BeginPrefetch and one DrainPrefetchBatch job
  /// submitted to that IoPool shard. The edge's delta id and sizes are
  /// captured here, so the drain job never touches a (possibly newer) live
  /// skeleton.
  void EnqueuePrefetch(size_t shard, const SkeletonEdge& e, bool is_eventlist,
                       unsigned components);

  /// Drains everything queued for `shard` into one DeltaStore batch — one
  /// storage round-trip per wakeup, however many deltas were queued while
  /// the shard was busy. Runs on an IoPool shard thread; a wakeup whose queue
  /// was already taken by an earlier drain is a no-op. Slots another claimer
  /// already owns are skipped (single-flight; the owner fulfils them). With a
  /// decode pool attached, the I/O thread only fetches bytes
  /// (DeltaStore::FetchBatch) and schedules one decode job per fetched miss
  /// on the compute pool, so a seek-bound shard never serializes the
  /// CPU-bound decode of many deltas.
  void DrainPrefetchBatch(size_t shard);

  /// Attaches the compute pool that drains should offload decode to; nullptr
  /// (default) or a pool of parallelism < 2 keeps decode inline on the I/O
  /// thread. Set before any prefetch is scheduled (not thread-safe against
  /// concurrent drains).
  void SetDecodePool(TaskPool* pool) { decode_pool_ = pool; }

  /// Registers one scheduled drain job, keeping this cache (and the
  /// DeltaGraph the queued fetch references) pinned until the job runs.
  /// Called by the scheduler *before* submitting the job to an IoPool.
  void BeginPrefetch();

  /// Blocks until every registered prefetch has run.
  void WaitPrefetchesIdle();

  /// Attaches the query trace that fetches through this cache attribute to
  /// (drain spans, demand-fetch spans, hit/byte tallies). The owning session
  /// sets it before scheduling prefetches or executors; the trace must
  /// outlive the cache. Null trace (the default) records nothing.
  void SetTrace(obs::TraceCtx ctx) {
    trace_span_.store(ctx.span, std::memory_order_relaxed);
    trace_.store(ctx.trace, std::memory_order_release);
  }
  obs::TraceCtx trace() const {
    obs::TraceCtx ctx;
    ctx.trace = trace_.load(std::memory_order_acquire);
    ctx.span = trace_span_.load(std::memory_order_relaxed);
    return ctx;
  }

 private:
  template <typename T>
  using FetchResult = Result<std::shared_ptr<const T>>;
  template <typename T>
  using FetchFuture = std::shared_future<FetchResult<T>>;
  template <typename T>
  using SlotMap = std::unordered_map<uint64_t, FetchFuture<T>>;

  /// A slot won by the caller: it owes the slot one fulfilment. Exactly one
  /// promise engages (a promise allocates its shared state, so only the kind
  /// this read needs is constructed).
  struct Claim {
    uint64_t key = 0;
    std::optional<std::promise<FetchResult<Delta>>> delta;
    std::optional<std::promise<FetchResult<EventList>>> events;
  };

  /// The reads one drain claimed, in a shared_ptr so decode jobs scheduled on
  /// the compute pool can outlive the drain's stack frame.
  struct Drain {
    std::vector<DeltaStore::BatchedRead> reads;
    std::vector<Claim> claims;  ///< claims[i] owns reads[i]'s slot.
    std::vector<DeltaStore::FetchedRead> fetched;
  };

  // Components fit in 4 bits (kCompAll == 0xF).
  static uint64_t Key(int32_t edge, unsigned components) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(edge)) << 4) |
           (components & 0xF);
  }

  template <typename T>
  SlotMap<T>& Slots();

  /// Claims the slot for `claim->key` (engaging the claim's promise; returns
  /// its future and claimed=true) or returns the existing future
  /// (claimed=false).
  template <typename T>
  FetchFuture<T> ClaimOrGet(Claim* claim, bool* claimed);

  /// Drops a slot whose fetch failed so a later caller can retry (current
  /// waiters still observe the error through their future).
  template <typename T>
  void ReleaseFailedSlot(uint64_t key);

  /// The fetch every read shares: one DeltaStore::FetchBatch round-trip for
  /// `reads`, booked onto `span` and the trace tallies.
  void Fetch(std::span<DeltaStore::BatchedRead> reads,
             std::vector<DeltaStore::FetchedRead>* fetched, obs::ScopedSpan* span,
             const obs::TraceCtx& tc) const;

  /// Publishes a resolved read through its claimed slot's future, dropping
  /// the slot on failure.
  void Fulfil(const DeltaStore::BatchedRead& read, Claim* claim);

  /// Decodes every fetched miss of `reads` on the calling thread, then
  /// fulfils each read's claim (claims[i] owns reads[i]).
  void DecodeAndFulfil(std::span<DeltaStore::BatchedRead> reads, std::span<Claim> claims,
                       std::vector<DeltaStore::FetchedRead>* fetched);

  /// Marks one registered prefetch job (drain or decode) finished.
  void EndPrefetch();

  const DeltaGraph& dg_;

  std::shared_mutex mu_;
  SlotMap<Delta> deltas_;
  SlotMap<EventList> events_;

  /// One queued (not yet drained) prefetch.
  struct QueuedPrefetch {
    int32_t edge;        ///< Skeleton edge id (cache key only).
    DeltaId delta_id;    ///< Storage id, captured at enqueue time.
    ComponentSizes sizes;
    bool is_eventlist;
    unsigned components;
  };
  std::mutex batch_mu_;
  std::unordered_map<size_t, std::vector<QueuedPrefetch>> batch_queues_;

  std::mutex prefetch_mu_;
  std::condition_variable prefetch_cv_;
  size_t prefetches_in_flight_ = 0;

  TaskPool* decode_pool_ = nullptr;  ///< Optional decode-offload target.

  // Trace attachment (see SetTrace). Two atomics rather than one struct so
  // drain threads can read it lock-free; span is written first and the trace
  // pointer released last, so a reader never sees the new trace with a stale
  // span id.
  std::atomic<obs::QueryTrace*> trace_{nullptr};
  std::atomic<obs::SpanId> trace_span_{obs::kNoSpan};
};

}  // namespace hgdb

#endif  // HISTGRAPH_EXEC_FETCH_CACHE_H_

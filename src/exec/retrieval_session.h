#ifndef HISTGRAPH_EXEC_RETRIEVAL_SESSION_H_
#define HISTGRAPH_EXEC_RETRIEVAL_SESSION_H_

#include <chrono>
#include <memory>
#include <vector>

#include "common/result.h"
#include "deltagraph/delta_graph.h"
#include "exec/fetch_cache.h"
#include "exec/plan_executor.h"
#include "exec/task_pool.h"
#include "graph/snapshot.h"

namespace hgdb {

class PartitionedDeltaGraph;  // src/deltagraph/partitioned_delta_graph.h

/// \brief Batches several in-flight snapshot retrievals over one index onto
/// a shared TaskPool — the one retrieval session, for any shard count.
///
/// The session holds a list of shard engines: a DeltaGraph is one shard, a
/// PartitionedDeltaGraph gives its partitions, and every shard count runs
/// the same code. Each Submit
///   1. pins every shard's published frontier (epoch);
///   2. plans one Steiner tree per shard for all the request's times (a
///      shard with an empty skeleton replays its pinned recent view);
///   3. queues every shard's prefetch into that shard's session-wide fetch
///      pin, on the shard's own I/O lane;
///   4. only then starts one PlanExecutor task tree per shard in the
///      session's group,
/// so every shard's fetch pipeline is in flight before any shard executes —
/// on a serial pool too, where each tree runs inline as it is started. Wait
/// collects each request's per-shard pieces and merges them per time point
/// with Snapshot::AbsorbDisjoint (O(1) chunk adoption: shard routing is
/// chunk-aligned, see src/deltagraph/README.md).
///
/// The per-shard fetch pins are shared across requests, so two requests
/// traversing the same skeleton edge of the same shard fetch and decode it
/// once, and every request's subtrees land in the same pool.
///
/// Usage:
///   RetrievalSession session(&index);        // DeltaGraph or partitioned
///   auto* a = session.Submit({t1, t2});
///   auto* b = session.Submit({t3}, kCompStruct);
///   HG_RETURN_NOT_OK(session.Wait());       // runs everything, helping
///   use(a->result.value());                  // in the order of a's times
///
/// A session is single-owner: Submit/Wait are driven by one thread (that
/// serializes the planning step, which shares each shard's SSSP cache),
/// while execution fans out on the pool. Sessions from *different* threads
/// over the same index are safe — the underlying stores and caches are
/// thread-safe. The whole request — planning, prefetch, execution — reads
/// only the frontiers pinned at Submit, so the single ingest writer may
/// Append/Finalize concurrently with in-flight sessions (see
/// src/server/README.md for the visibility contract).
class RetrievalSession {
 public:
  /// One per-shard retrieval of a request. `executor` is null when the shard
  /// replayed synchronously or failed to plan; `piece` then holds the
  /// outcome already.
  struct ShardRun {
    Plan plan;  // Owned here: the executor references it until Wait.
    std::unique_ptr<PlanExecutor> executor;
    Result<std::vector<Snapshot>> piece = Status::Internal("shard never ran");
  };

  /// One queued retrieval and, after Wait, its outcome.
  struct Request {
    std::vector<Timestamp> times;
    unsigned components = kCompAll;
    /// Merged snapshots in the order of `times`; set by Wait.
    Result<std::vector<Snapshot>> result = Status::Internal("session not waited");
    /// `parts[s][i]` is shard s's piece of the snapshot at `times[i]`; set
    /// by Wait when every shard succeeded. Pieces are element-disjoint and
    /// `result` is their merge (the two share structure copy-on-write).
    std::vector<std::vector<Snapshot>> parts;

    /// `frontiers[s]` is shard s's published state as of Submit. Everything
    /// the request reads resolves against these, so concurrent appends and
    /// finalizes never skew the result.
    std::vector<FrontierPtr> frontiers;
    std::vector<ShardRun> runs;  ///< One per shard; emptied by Wait.
    obs::SpanId span = obs::kNoSpan;  ///< "request" span; closed by Wait.
  };

  /// `pool` defaults to the index's resolved pool (DeltaGraph::
  /// ResolveTaskPool; every shard of a partitioned index resolves the same
  /// one). Prefetch runs on each shard's resolved I/O pool (SetIoPool /
  /// HISTGRAPH_IO_THREADS), on the shard's own lane.
  explicit RetrievalSession(const DeltaGraph* dg, TaskPool* pool = nullptr);
  explicit RetrievalSession(const PartitionedDeltaGraph* pdg, TaskPool* pool = nullptr);
  ~RetrievalSession();

  RetrievalSession(const RetrievalSession&) = delete;
  RetrievalSession& operator=(const RetrievalSession&) = delete;

  /// Queues a multipoint retrieval and starts every shard's plan on the
  /// pool. The returned pointer stays valid for the session's lifetime; its
  /// `result` is meaningful only after Wait.
  Request* Submit(std::vector<Timestamp> times, unsigned components = kCompAll);

  /// Blocks (helping the pool) until every submitted request finishes, then
  /// fills each request's `parts` and `result`. Returns the first error, if
  /// any (per-request statuses are also available on the requests).
  /// Idempotent.
  Status Wait();

  size_t request_count() const { return requests_.size(); }

  /// The session's query trace, or nullptr when tracing is off (neither
  /// enabled nor picked by the TraceSampler). Spans — one session-wide
  /// "shard" span per shard carrying every fetch through that shard's pin,
  /// per-request "request" spans with the executors' "execute" spans, the
  /// per-shard busy-time skew and a "merge" span — are complete after Wait;
  /// the pointer stays valid for the session's lifetime.
  const obs::QueryTrace* LastTrace() const { return trace_.get(); }

 private:
  RetrievalSession(std::vector<const DeltaGraph*> shards, TaskPool* pool);

  /// Takes `req`'s per-shard outcomes, merges them into `req->result`, and
  /// records the request's busy-time skew.
  void Collect(Request* req);

  std::vector<const DeltaGraph*> shards_;
  TaskPool* pool_;
  /// Declared before caches_ so in-flight prefetch drains (waited out by the
  /// caches' destructors) never outlive the trace they attribute to.
  std::unique_ptr<obs::QueryTrace> trace_;
  /// The session is one query to the TraceSampler: it sampled at
  /// construction, and its first Wait feeds the latency back (and dumps the
  /// trace) exactly once.
  std::chrono::steady_clock::time_point started_ = std::chrono::steady_clock::now();
  bool finished_ = false;
  /// Session-lifetime span per shard; the shard's fetch pin attributes its
  /// drains and demand fetches here. Closed by the first Wait.
  std::vector<obs::SpanId> shard_spans_;
  /// One fetch pin per shard, shared across all requests in the session.
  std::vector<std::unique_ptr<ExecFetchCache>> caches_;
  std::vector<std::unique_ptr<Request>> requests_;
  // Declared last (destroyed first): in-flight tasks reference the plans and
  // executors above; the destructor also waits explicitly.
  TaskGroup group_;
};

}  // namespace hgdb

#endif  // HISTGRAPH_EXEC_RETRIEVAL_SESSION_H_

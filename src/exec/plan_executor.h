#ifndef HISTGRAPH_EXEC_PLAN_EXECUTOR_H_
#define HISTGRAPH_EXEC_PLAN_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>

#include "common/result.h"
#include "common/status.h"
#include "deltagraph/delta_graph.h"
#include "deltagraph/plan.h"
#include "exec/fetch_cache.h"
#include "exec/task_pool.h"

namespace hgdb {

class IoPool;

/// \brief Executes a snapshot retrieval plan: the one executor every
/// retrieval path (GetSnapshots, materialization, Open's current-graph
/// rebuild, and RetrievalSession at any shard count) runs its plans through.
///
/// The executor walks the plan by *forking*: at a branch node it copies the
/// working snapshot — an O(1) copy-on-write share — applies each child's step
/// to its own fork, schedules the sibling subtrees as tasks, and descends into
/// the last child itself. No undo steps are ever applied. A linear plan
/// (every singlepoint query) has no siblings, so it runs start to finish on
/// the calling thread and spawns no task; with TaskPool::Serial() every
/// sibling runs inline as well. Emits go through a mutex-guarded sink keyed
/// by emit target (time / node id), so the assembled results are
/// deterministic regardless of task completion order.
///
/// One executor instance serves one plan execution, pinned to one frontier:
/// every piece of mutable graph state (skeleton, current graph, materialized
/// graphs, recent tail) is resolved against the immutable FrontierState the
/// plan was built from, so concurrent appends/finalizes cannot skew an
/// in-flight execution. Concurrent *retrievals* are fine (see
/// src/exec/README.md for the full concurrency contract).
class PlanExecutor {
 public:
  /// `frontier` (not null) is the pinned epoch this execution reads at; the
  /// plan must have been built from the same frontier. `pool` runs sibling
  /// subtrees and must not be null (DeltaGraph::ResolveTaskPool never is).
  /// `shared_cache` (optional, bound to `dg`) lets a session share fetches across
  /// several concurrent plans; by default the executor uses a private cache
  /// pinned for this plan only. Both must outlive the execution. `io_pool`
  /// (optional) enables asynchronous prefetch: execution starts by
  /// pre-scanning the plan and queueing its fetches on the I/O pool, so fetch
  /// latency overlaps apply work (see src/exec/prefetcher.h).
  PlanExecutor(const DeltaGraph* dg, FrontierPtr frontier, unsigned components,
               TaskPool* pool, ExecFetchCache* shared_cache = nullptr,
               IoPool* io_pool = nullptr);

  /// Runs the plan to completion. The root is walked on the calling thread;
  /// only sibling subtrees are spawned, and the caller helps the pool while
  /// they finish.
  Result<DeltaGraph::SnapshotPlanResults> Run(const Plan& plan);

  /// Asynchronous form for RetrievalSession, one executor per shard:
  /// schedules the plan's root into `group` (the caller later waits on the
  /// group, then collects TakeStatus / TakeResults). `plan` and the
  /// executor must outlive the group's Wait.
  void Start(const Plan& plan, TaskGroup* group);

  Status TakeStatus();
  DeltaGraph::SnapshotPlanResults TakeResults() { return std::move(results_); }

  /// Attributes this execution to `tc`: Run/Start open an "execute" span
  /// (closed by TakeStatus) carrying the task count and busy time, and — when
  /// the executor owns its cache — prefetch drains and demand fetches nest
  /// under the span. Call before Run/Start; with a shared cache the cache's
  /// owner attaches its own trace. No-op for a null trace. A non-negative
  /// `shard` labels the span (`shard=<s>`), so a session's trace can name
  /// the slow shard of a request.
  void SetTrace(obs::TraceCtx tc, int64_t shard = -1) {
    tc_ = tc;
    shard_ = shard;
  }

  /// Total nanoseconds this execution's tasks spent running (accumulated
  /// only when a trace is attached). Sessions compare this across shards to
  /// report execution skew.
  uint64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }

 private:
  /// Opens the trace span and stage window and queues the plan's prefetch.
  /// False (with the error recorded) for a plan without a root.
  bool Begin(const Plan& plan);

  /// Walks `node` with `working` as the working snapshot, spawning sibling
  /// subtrees into `group` and descending into the last child iteratively.
  void RunNode(const PlanNode* node, Snapshot working, TaskGroup* group);

  Status ApplyStepTo(const PlanStep& step, Snapshot* snap);
  void RecordError(Status status);

  void EmitTime(Timestamp t, Snapshot snap);
  void EmitNode(int32_t node, Snapshot snap);

  const FrontierPtr frontier_;  ///< Pinned epoch; all graph state reads go here.
  const unsigned components_;
  TaskPool* pool_;
  IoPool* io_pool_;
  /// The cache fetches go through: the session's shared one, else own_cache_.
  ExecFetchCache* fetches_;
  /// Built only when no shared cache was passed.
  std::optional<ExecFetchCache> own_cache_;

  // Ordered sink: emits land keyed by target, so assembly order never
  // depends on scheduling.
  std::mutex sink_mu_;
  DeltaGraph::SnapshotPlanResults results_;

  std::atomic<bool> failed_{false};
  std::mutex err_mu_;
  Status first_error_;

  // Trace attribution (see SetTrace). The span is opened by Begin and closed
  // by TakeStatus, which both run on the submitting thread; tasks only bump
  // the (relaxed) tallies.
  obs::TraceCtx tc_;
  int64_t shard_ = -1;
  obs::SpanId exec_span_ = obs::kNoSpan;
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint32_t> task_count_{0};

  // Stage-attribution window (server.stage_execute_us): set by Begin, read
  // by TakeStatus — both on the submitting thread, like the span above.
  std::chrono::steady_clock::time_point exec_started_{};
  bool exec_timed_ = false;
};

}  // namespace hgdb

#endif  // HISTGRAPH_EXEC_PLAN_EXECUTOR_H_

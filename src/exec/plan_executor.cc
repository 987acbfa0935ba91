#include "exec/plan_executor.h"

#include <chrono>
#include <utility>

#include "exec/prefetcher.h"
#include "obs/stages.h"

namespace hgdb {

PlanExecutor::PlanExecutor(const DeltaGraph* dg, FrontierPtr frontier,
                           unsigned components, TaskPool* pool,
                           ExecFetchCache* shared_cache, IoPool* io_pool)
    : frontier_(std::move(frontier)),
      components_(components),
      pool_(pool),
      io_pool_(io_pool),
      fetches_(shared_cache) {
  if (fetches_ != nullptr) return;
  // Our own cache can offload blob decode to the compute pool (a shared
  // cache's owner decides for itself; a serial pool keeps decode inline).
  fetches_ = &own_cache_.emplace(*dg);
  own_cache_->SetDecodePool(pool_);
}

Result<DeltaGraph::SnapshotPlanResults> PlanExecutor::Run(const Plan& plan) {
  TaskGroup group(pool_);
  // The root runs right here: a linear plan spawns no task.
  if (Begin(plan)) RunNode(plan.root.get(), Snapshot(), &group);
  group.Wait();
  HG_RETURN_NOT_OK(TakeStatus());
  return TakeResults();
}

void PlanExecutor::Start(const Plan& plan, TaskGroup* group) {
  if (!Begin(plan)) return;
  const PlanNode* root = plan.root.get();
  group->Spawn([this, root, group] { RunNode(root, Snapshot(), group); });
}

bool PlanExecutor::Begin(const Plan& plan) {
  if (!plan.root) {
    RecordError(Status::InvalidArgument("plan has no root"));
    return false;
  }
  if (obs::MetricsEnabled()) {
    // Stage attribution: Begin -> the first status collection brackets this
    // execution (tasks run in between); recorded by TakeStatus.
    exec_started_ = std::chrono::steady_clock::now();
    exec_timed_ = true;
  }
  if (tc_) {
    exec_span_ = tc_.trace->BeginSpan("execute", tc_.span);
    if (shard_ >= 0) tc_.trace->SetAttr(exec_span_, "shard", shard_);
    // Nest this execution's fetches under its span — but only through a cache
    // we own; a shared cache already carries its owner's attachment.
    if (own_cache_) own_cache_->SetTrace(obs::TraceCtx{tc_.trace, exec_span_});
  }
  // Queue every fetch the plan will perform before the first step runs;
  // tasks then overlap apply work with the I/O pool's fetches and block
  // only if they outrun it. The fetch cache outlives any still-queued job
  // (its destructor drains), so early errors cannot strand a prefetch.
  StartPlanPrefetch(*frontier_->skeleton, plan, components_, fetches_, io_pool_);
  return true;
}

Status PlanExecutor::TakeStatus() {
  if (exec_timed_) {
    exec_timed_ = false;
    obs::StageExecuteHist().Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - exec_started_)
            .count()));
  }
  if (tc_ && exec_span_ != obs::kNoSpan) {
    tc_.trace->SetAttr(exec_span_, "tasks",
                       static_cast<int64_t>(task_count_.load(std::memory_order_relaxed)));
    tc_.trace->SetAttr(exec_span_, "busy_us",
                       static_cast<int64_t>(busy_ns() / 1000));
    tc_.trace->EndSpan(exec_span_);
    exec_span_ = obs::kNoSpan;
  }
  std::lock_guard<std::mutex> lock(err_mu_);
  return failed_.load(std::memory_order_acquire) ? first_error_ : Status::OK();
}

void PlanExecutor::RecordError(Status status) {
  std::lock_guard<std::mutex> lock(err_mu_);
  if (!failed_.load(std::memory_order_acquire)) {
    first_error_ = std::move(status);
    failed_.store(true, std::memory_order_release);
  }
}

void PlanExecutor::EmitTime(Timestamp t, Snapshot snap) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  results_.by_time[t] = std::move(snap);
}

void PlanExecutor::EmitNode(int32_t node, Snapshot snap) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  results_.by_node[node] = std::move(snap);
}

Status PlanExecutor::ApplyStepTo(const PlanStep& step, Snapshot* snap) {
  switch (step.kind) {
    case PlanStep::Kind::kLoadMaterialized: {
      const Snapshot* mat = frontier_->materialized_snapshot(step.node);
      if (mat == nullptr) {
        return Status::Internal("plan: node not materialized: " +
                                std::to_string(step.node));
      }
      const unsigned have =
          frontier_->skeleton->node(step.node).materialized_components;
      *snap = (have == components_) ? *mat : mat->CopyFiltered(components_);
      return Status::OK();
    }
    case PlanStep::Kind::kLoadCurrent:
      if (frontier_->current == nullptr) {
        return Status::Internal("plan: current graph not maintained");
      }
      *snap = frontier_->current->CopyFiltered(components_);
      return Status::OK();
    case PlanStep::Kind::kApplyDelta: {
      auto d = fetches_->Get<Delta>(frontier_->skeleton->edge(step.edge),
                                    components_);
      if (!d.ok()) return d.status();
      return d.value()->ApplyTo(snap, step.forward, components_);
    }
    case PlanStep::Kind::kApplyEvents: {
      auto el = fetches_->Get<EventList>(frontier_->skeleton->edge(step.edge),
                                         components_);
      if (!el.ok()) return el.status();
      return ApplyEventRange(el.value()->events(), snap, step.forward, step.lo,
                             step.hi, components_);
    }
    case PlanStep::Kind::kApplyRecentEvents:
      return ApplyEventRange(frontier_->recent.events(), snap, step.forward,
                             step.lo, step.hi, components_);
  }
  return Status::Internal("plan: unknown step kind");
}

void PlanExecutor::RunNode(const PlanNode* node, Snapshot working,
                           TaskGroup* group) {
  // Busy-time accounting (trace only): one interval per task, including time
  // blocked on fetch futures — that is wall time this subtree occupied a
  // thread, which is what shard-skew comparisons want. A sibling that runs
  // inline inside its parent's task (serial pool) is already inside the
  // parent's interval, so only the outermost task of this executor on a
  // thread is timed.
  static thread_local const PlanExecutor* timing = nullptr;
  struct BusyTimer {
    explicit BusyTimer(PlanExecutor* e) : exec(e), on(bool(e->tc_)) {
      if (!on) return;
      exec->task_count_.fetch_add(1, std::memory_order_relaxed);
      timed = timing != exec;
      if (timed) {
        outer = std::exchange(timing, exec);
        start = std::chrono::steady_clock::now();
      }
    }
    ~BusyTimer() {
      if (!on || !timed) return;
      timing = outer;
      exec->busy_ns_.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count(),
          std::memory_order_relaxed);
    }
    PlanExecutor* exec;
    bool on;
    bool timed = false;
    const PlanExecutor* outer = nullptr;  ///< Timed executor this task nests in.
    std::chrono::steady_clock::time_point start;
  } busy_timer(this);

  // Iterative tail descent: this task handles `node`'s emits, forks siblings
  // off as tasks, and follows the last child itself.
  while (!failed_.load(std::memory_order_acquire)) {
    const bool leaf_task = node->children.empty();
    for (size_t i = 0; i < node->emit_times.size(); ++i) {
      // The last emit of a childless node owns the working fork outright.
      const bool last_emit =
          leaf_task && node->emit_nodes.empty() && i + 1 == node->emit_times.size();
      EmitTime(node->emit_times[i], last_emit ? std::move(working) : working);
    }
    for (size_t i = 0; i < node->emit_nodes.size(); ++i) {
      const bool last_emit = leaf_task && i + 1 == node->emit_nodes.size();
      EmitNode(node->emit_nodes[i], last_emit ? std::move(working) : working);
    }
    if (leaf_task) return;

    // Fork a COW copy of the working snapshot per sibling subtree. The copy
    // is O(1); each subtree's mutations clone only the stores they touch.
    for (size_t i = 0; i + 1 < node->children.size(); ++i) {
      const auto& [step, child] = node->children[i];
      Snapshot fork = working;
      const Status s = ApplyStepTo(step, &fork);
      if (!s.ok()) {
        RecordError(s);
        return;
      }
      const PlanNode* child_ptr = child.get();
      group->Spawn([this, child_ptr, fork = std::move(fork), group]() mutable {
        RunNode(child_ptr, std::move(fork), group);
      });
    }
    const auto& [last_step, last_child] = node->children.back();
    const Status s = ApplyStepTo(last_step, &working);
    if (!s.ok()) {
      RecordError(s);
      return;
    }
    node = last_child.get();
  }
}

}  // namespace hgdb

#include "exec/retrieval_session.h"

#include <algorithm>

#include "deltagraph/partitioned_delta_graph.h"
#include "exec/prefetcher.h"
#include "obs/sampler.h"
#include "obs/stages.h"

namespace hgdb {

namespace {

std::vector<const DeltaGraph*> PartitionsOf(const PartitionedDeltaGraph* pdg) {
  std::vector<const DeltaGraph*> shards;
  for (size_t i = 0; i < pdg->partition_count(); ++i) {
    shards.push_back(pdg->partition(i));
  }
  return shards;
}

}  // namespace

RetrievalSession::RetrievalSession(const DeltaGraph* dg, TaskPool* pool)
    : RetrievalSession(std::vector<const DeltaGraph*>{dg}, pool) {}

RetrievalSession::RetrievalSession(const PartitionedDeltaGraph* pdg, TaskPool* pool)
    : RetrievalSession(PartitionsOf(pdg), pool) {}

RetrievalSession::RetrievalSession(std::vector<const DeltaGraph*> shards,
                                   TaskPool* pool)
    : shards_(std::move(shards)),
      pool_(pool != nullptr ? pool : shards_.front()->ResolveTaskPool()),
      group_(pool_) {
  // Trace when globally enabled, or when this session wins the production
  // sampler's draw (1-in-N / tail-armed; see src/obs/sampler.h) — sampled
  // traces land in the flight recorder when the session finishes.
  if (obs::TraceEnabled() || obs::TraceSampler::Global().Sample()) {
    trace_ = std::make_unique<obs::QueryTrace>();
    trace_->set_query_label("session");
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    caches_.push_back(std::make_unique<ExecFetchCache>(*shards_[s]));
    caches_.back()->SetDecodePool(pool_);
    if (trace_ != nullptr) {
      // Every fetch through the shard's pin — whichever request triggered
      // it — lands in the shard's span.
      shard_spans_.push_back(trace_->BeginSpan("shard", obs::kNoSpan));
      trace_->SetAttr(shard_spans_.back(), "shard", static_cast<int64_t>(s));
      caches_.back()->SetTrace(obs::TraceCtx{trace_.get(), shard_spans_.back()});
    }
  }
}

RetrievalSession::~RetrievalSession() {
  // Tasks in flight reference this session's plans and fetch caches; they
  // must drain before members go away.
  (void)Wait();
}

RetrievalSession::Request* RetrievalSession::Submit(std::vector<Timestamp> times,
                                                    unsigned components) {
  requests_.push_back(std::make_unique<Request>());
  Request* req = requests_.back().get();
  req->times = std::move(times);
  req->components = components;
  if (req->times.empty()) {
    req->result = std::vector<Snapshot>();
    return req;
  }
  const size_t n = shards_.size();
  if (trace_ != nullptr) {
    req->span = trace_->BeginSpan("request", obs::kNoSpan);
    trace_->SetAttr(req->span, "times", static_cast<int64_t>(req->times.size()));
    trace_->SetAttr(req->span, "shards", static_cast<int64_t>(n));
  }
  const obs::TraceCtx tc{trace_.get(), req->span};

  // 1. Pin every shard's frontier; the whole request resolves against them.
  for (const DeltaGraph* shard : shards_) req->frontiers.push_back(shard->PinFrontier());

  // 2. Plan every shard before touching storage. A shard with no skeleton
  // (never finalized, or empty) has nothing to plan over; it replays its
  // pinned recent view synchronously instead.
  req->runs.resize(n);
  int64_t steps = 0;
  double est_cost = 0;
  for (size_t s = 0; s < n; ++s) {
    ShardRun& run = req->runs[s];
    const FrontierPtr& frontier = req->frontiers[s];
    if (frontier->skeleton->leaves().empty()) {
      run.piece = shards_[s]->GetSnapshotsAt(frontier, req->times, components, tc);
      continue;
    }
    auto plan = [&] {
      obs::StageTimer stage(obs::StagePlanHist());
      return shards_[s]->PlanForAt(frontier, req->times, components);
    }();
    if (!plan.ok()) {
      run.piece = plan.status();
      continue;
    }
    run.plan = std::move(plan).value();
    steps += static_cast<int64_t>(run.plan.StepCount());
    est_cost += run.plan.estimated_cost;
    // Executors get no I/O pool: step 3 queues their prefetch.
    run.executor = std::make_unique<PlanExecutor>(
        shards_[s], frontier, components, pool_, caches_[s].get(), /*io_pool=*/nullptr);
    run.executor->SetTrace(tc, static_cast<int64_t>(s));
  }
  if (trace_ != nullptr) {
    trace_->SetAttr(req->span, "steps", steps);
    trace_->SetAttr(req->span, "est_cost_bytes", est_cost);
  }

  // 3. Queue every shard's prefetch before any shard executes. Each batch
  // lands on the shard's own I/O lane, so all the per-shard fetch pipelines
  // are in flight together and their storage stalls overlap; the caches'
  // single-flight slots dedup fetches across requests.
  for (size_t s = 0; s < n; ++s) {
    if (req->runs[s].executor == nullptr) continue;
    StartPlanPrefetch(*req->frontiers[s]->skeleton, req->runs[s].plan, components,
                      caches_[s].get(), shards_[s]->ResolveIoPool());
  }

  // 4. One task tree per shard, all in the session's group: shard subtrees
  // are sibling tasks, stolen freely across workers (on a serial pool each
  // tree runs inline as it is started, while the I/O lanes keep fetching the
  // later shards' payloads).
  for (ShardRun& run : req->runs) {
    if (run.executor != nullptr) run.executor->Start(run.plan, &group_);
  }
  return req;
}

void RetrievalSession::Collect(Request* req) {
  uint64_t busy_sum_ns = 0, busy_max_ns = 0;
  size_t busy_shards = 0;
  Status error;
  for (ShardRun& run : req->runs) {
    if (run.executor != nullptr) {
      const uint64_t busy = run.executor->busy_ns();
      busy_sum_ns += busy;
      busy_max_ns = std::max(busy_max_ns, busy);
      ++busy_shards;
      const Status s = run.executor->TakeStatus();
      run.piece = s.ok() ? run.executor->TakeResults().TakeInOrder(req->times)
                         : Result<std::vector<Snapshot>>(s);
    }
    if (error.ok() && !run.piece.ok()) error = run.piece.status();
  }
  if (error.ok()) {
    obs::StageTimer merge_stage(obs::StageMergeHist());
    obs::ScopedSpan merge_span(obs::TraceCtx{trace_.get(), req->span}, "merge");
    std::vector<Snapshot> merged(req->times.size());
    for (ShardRun& run : req->runs) {
      req->parts.push_back(std::move(run.piece).value());
      for (size_t t = 0; t < merged.size(); ++t) {
        merged[t].AbsorbDisjoint(Snapshot(req->parts.back()[t]));
      }
    }
    req->result = std::move(merged);
  } else {
    req->result = error;
  }
  req->runs.clear();  // Collected; Wait stays idempotent.
  if (trace_ == nullptr || req->span == obs::kNoSpan) return;
  // Execution skew: the slowest shard's busy time over the per-shard mean;
  // 1.0 = perfectly balanced (and always, with one shard).
  trace_->SetAttr(req->span, "busy_us_sum", static_cast<int64_t>(busy_sum_ns / 1000));
  trace_->SetAttr(req->span, "busy_us_max", static_cast<int64_t>(busy_max_ns / 1000));
  if (busy_sum_ns > 0) {
    const double skew = static_cast<double>(busy_max_ns) * busy_shards /
                        static_cast<double>(busy_sum_ns);
    trace_->SetAttr(req->span, "shard_skew", skew);
    trace_->set_shard_skew(std::max(trace_->shard_skew(), skew));
  }
  trace_->EndSpan(req->span);
  req->span = obs::kNoSpan;
}

Status RetrievalSession::Wait() {
  group_.Wait();
  Status first_error;
  for (auto& req : requests_) {
    if (!req->runs.empty()) Collect(req.get());
    if (first_error.ok() && !req->result.ok()) first_error = req->result.status();
  }
  if (finished_) return first_error;
  finished_ = true;
  obs::TraceSampler::Global().Observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started_)
          .count()));
  if (trace_ != nullptr) {
    for (obs::SpanId s : shard_spans_) trace_->EndSpan(s);
    // Stamp the query's identity for the flight recorder: the newest request's
    // pinned frontiers — the max shard epoch, events summed over shards.
    uint64_t epoch = 0;
    size_t event_count = 0;
    for (const auto& req : requests_) {
      if (req->frontiers.empty()) continue;
      uint64_t req_epoch = 0;
      size_t req_events = 0;
      for (const FrontierPtr& f : req->frontiers) {
        req_epoch = std::max(req_epoch, f->epoch);
        req_events += f->event_count;
      }
      if (req_epoch >= epoch) {
        epoch = req_epoch;
        event_count = req_events;
      }
    }
    trace_->set_epoch(epoch);
    trace_->set_event_count(event_count);
    obs::FinishAndMaybeDump(trace_.get());
  }
  return first_error;
}

}  // namespace hgdb

#include "exec/retrieval_session.h"

#include "obs/sampler.h"
#include "obs/stages.h"

namespace hgdb {

RetrievalSession::RetrievalSession(DeltaGraph* dg, TaskPool* pool)
    : dg_(dg),
      pool_(pool != nullptr ? pool : dg->ResolveTaskPool()),
      group_(pool_) {
  fetches_.SetDecodePool(pool_);
  // Trace when globally enabled, or when this session wins the production
  // sampler's draw (1-in-N / tail-armed; see src/obs/sampler.h) — sampled
  // traces land in the flight recorder when the session finishes.
  if (obs::TraceEnabled() || obs::TraceSampler::Global().Sample()) {
    trace_ = std::make_unique<obs::QueryTrace>();
    trace_->set_query_label("session");
    fetches_.SetTrace(obs::TraceCtx{trace_.get(), obs::kNoSpan});
  }
}

RetrievalSession::~RetrievalSession() {
  // Tasks in flight reference this session's plans and fetch cache; they must
  // drain before members go away.
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
  // Pin the frontier once; the whole request resolves against it.
  req->frontier = dg_->PinFrontier();
  // An un-finalized (or empty) index has no skeleton to plan over; fall back
  // to the DeltaGraph's own replay path, synchronously (still pinned).
  if (req->frontier->skeleton->leaves().empty()) {
    req->result = dg_->GetSnapshotsAt(req->frontier, req->times, req->components);
    return req;
  }

  auto plan = [&] {
    obs::StageTimer stage(obs::StagePlanHist());
    return dg_->PlanForAt(req->frontier, req->times, req->components);
  }();
  if (!plan.ok()) {
    req->result = plan.status();
    return req;
  }
  req->plan = std::move(plan).value();
  if (trace_ != nullptr) {
    req->span = trace_->BeginSpan("request", obs::kNoSpan);
    trace_->SetAttr(req->span, "times", static_cast<int64_t>(req->times.size()));
    trace_->SetAttr(req->span, "steps",
                    static_cast<int64_t>(req->plan.StepCount()));
    trace_->SetAttr(req->span, "est_cost_bytes", req->plan.estimated_cost);
  }
  req->executor = std::make_unique<PlanExecutor>(
      dg_, req->frontier, req->components, pool_, &fetches_, dg_->ResolveIoPool());
  req->executor->SetTrace(obs::TraceCtx{trace_.get(), req->span});
  req->executor->Start(req->plan, &group_);
  return req;
}

Status RetrievalSession::Wait() {
  group_.Wait();
  Status first_error = Status::OK();
  for (auto& req : requests_) {
    if (req->executor == nullptr) {
      // Never started (planned synchronously or failed to plan) — result is
      // already set; still surface its error below.
    } else {
      const Status s = req->executor->TakeStatus();
      if (s.ok()) {
        obs::StageTimer merge_stage(obs::StageMergeHist());
        req->result = req->executor->TakeResults().TakeInOrder(req->times);
      } else {
        req->result = s;
      }
      req->executor.reset();  // Collected; Wait stays idempotent.
      if (trace_ != nullptr && req->span != obs::kNoSpan) {
        trace_->EndSpan(req->span);
        req->span = obs::kNoSpan;
      }
    }
    if (first_error.ok() && !req->result.ok()) first_error = req->result.status();
  }
  if (trace_ != nullptr && !trace_dumped_) {
    trace_dumped_ = true;
    // Stamp the query's identity for the flight recorder: the newest frontier
    // any request pinned (epoch + its visible-event count).
    uint64_t epoch = 0;
    size_t event_count = 0;
    for (const auto& req : requests_) {
      if (req->frontier != nullptr && req->frontier->epoch >= epoch) {
        epoch = req->frontier->epoch;
        event_count = req->frontier->event_count;
      }
    }
    trace_->set_epoch(epoch);
    trace_->set_event_count(event_count);
    obs::FinishAndMaybeDump(trace_.get());
  }
  return first_error;
}

}  // namespace hgdb

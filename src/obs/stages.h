#ifndef HISTGRAPH_OBS_STAGES_H_
#define HISTGRAPH_OBS_STAGES_H_

#include <chrono>

#include "obs/metrics.h"

namespace hgdb {
namespace obs {

/// \brief Per-stage latency attribution for the retrieval path.
///
/// Four process-wide histograms answer "where does query time go":
///
///  - `server.stage_plan_us`    — planner runs (Steiner tree / cached SSSP),
///  - `server.stage_fetch_us`   — individual blocking payload fetches on a
///                                query thread (demand fetches through the
///                                fetch cache),
///  - `server.stage_execute_us` — plan executions (the plan executor's
///                                start→collect window),
///  - `server.stage_merge_us`   — result assembly (TakeInOrder ordering and
///                                the cross-shard AbsorbDisjoint stitch).
///
/// Stages are recorded per *operation*, not per query: one multipoint query
/// over 8 shards records 8 plan samples and 8 execute samples. Execute spans
/// the whole plan run, so time in `stage_fetch_us` overlaps it — fetch is an
/// attribution within execute, not a disjoint phase. All recording is gated
/// on MetricsEnabled() (a StageTimer costs one relaxed load when metrics are
/// off) and subject to the <2% obs-overhead budget.
inline Histogram& StagePlanHist() {
  static Histogram* h =
      MetricsRegistry::Global().GetHistogram("server.stage_plan_us");
  return *h;
}
inline Histogram& StageFetchHist() {
  static Histogram* h =
      MetricsRegistry::Global().GetHistogram("server.stage_fetch_us");
  return *h;
}
inline Histogram& StageExecuteHist() {
  static Histogram* h =
      MetricsRegistry::Global().GetHistogram("server.stage_execute_us");
  return *h;
}
inline Histogram& StageMergeHist() {
  static Histogram* h =
      MetricsRegistry::Global().GetHistogram("server.stage_merge_us");
  return *h;
}

/// RAII stage sample: records elapsed microseconds into `hist` on
/// destruction; no clock read (let alone a record) when metrics are off.
class StageTimer {
 public:
  explicit StageTimer(Histogram& hist)
      : hist_(MetricsEnabled() ? &hist : nullptr) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() {
    if (hist_ == nullptr) return;
    hist_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace hgdb

#endif  // HISTGRAPH_OBS_STAGES_H_

#ifndef HISTGRAPH_EXEC_PREFETCHER_H_
#define HISTGRAPH_EXEC_PREFETCHER_H_

#include <cstdint>
#include <vector>

#include "deltagraph/plan.h"

namespace hgdb {

class ExecFetchCache;
class IoPool;
class Skeleton;

/// One storage fetch a plan will perform: a skeleton edge and whether its
/// payload is a leaf-eventlist (vs an interior delta).
struct PlanFetch {
  int32_t edge = -1;
  bool is_eventlist = false;
};

/// Pre-scans `plan` depth-first (the serial execution order) and returns the
/// distinct skeleton edges it fetches, in first-touch order. Steps that need
/// no storage fetch (materialized loads, the current graph, the in-memory
/// recent eventlist) are skipped.
std::vector<PlanFetch> CollectPlanFetches(const Plan& plan);

/// Issues an asynchronous fetch into `cache` for every edge `plan` touches,
/// sharded across `io`'s threads by delta id. A plan with fewer than two
/// fetches is not prefetched: there is nothing to overlap its one fetch
/// with. Edges are resolved against `skel` — the *pinned frontier's*
/// skeleton, which the plan was built from — never the live one, so a
/// concurrent leaf cut cannot skew a fetch. Returns
/// immediately: workers that reach an edge before its fetch lands block on
/// the cache's future (they only ever wait if they outrun the prefetcher).
/// The jobs reference `cache` and the graph it is bound to, which must stay
/// alive until the cache drains (~ExecFetchCache waits; `plan` and `skel`
/// are not referenced after this call returns). No-op when `io` is null.
void StartPlanPrefetch(const Skeleton& skel, const Plan& plan, unsigned components,
                       ExecFetchCache* cache, IoPool* io);

/// Same, over an already-collected fetch list.
void StartCollectedPrefetch(const Skeleton& skel, const std::vector<PlanFetch>& fetches,
                            unsigned components, ExecFetchCache* cache, IoPool* io);

}  // namespace hgdb

#endif  // HISTGRAPH_EXEC_PREFETCHER_H_

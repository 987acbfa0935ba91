#include "exec/prefetcher.h"

#include <unordered_set>

#include "deltagraph/delta_graph.h"
#include "exec/fetch_cache.h"
#include "exec/io_pool.h"

namespace hgdb {

namespace {

void CollectNode(const PlanNode& node, std::unordered_set<int32_t>* seen,
                 std::vector<PlanFetch>* out) {
  for (const auto& [step, child] : node.children) {
    switch (step.kind) {
      case PlanStep::Kind::kApplyDelta:
      case PlanStep::Kind::kApplyEvents:
        if (seen->insert(step.edge).second) {
          out->push_back(
              PlanFetch{step.edge, step.kind == PlanStep::Kind::kApplyEvents});
        }
        break;
      case PlanStep::Kind::kLoadMaterialized:
      case PlanStep::Kind::kLoadCurrent:
      case PlanStep::Kind::kApplyRecentEvents:
        break;  // In-memory; nothing to fetch.
    }
    CollectNode(*child, seen, out);
  }
}

}  // namespace

std::vector<PlanFetch> CollectPlanFetches(const Plan& plan) {
  std::vector<PlanFetch> out;
  if (!plan.root) return out;
  std::unordered_set<int32_t> seen;
  CollectNode(*plan.root, &seen, &out);
  return out;
}

void StartPlanPrefetch(const Skeleton& skel, const Plan& plan, unsigned components,
                       ExecFetchCache* cache, IoPool* io) {
  if (io == nullptr || cache == nullptr) return;
  StartCollectedPrefetch(skel, CollectPlanFetches(plan), components, cache, io);
}

void StartCollectedPrefetch(const Skeleton& skel, const std::vector<PlanFetch>& fetches,
                            unsigned components, ExecFetchCache* cache, IoPool* io) {
  // Fewer than two fetches leave nothing to overlap: the executor blocks on
  // the first fetch either way, so it fetches on demand without the queue
  // and its synchronization (e.g. a singlepoint query served from a
  // materialized node).
  if (io == nullptr || cache == nullptr || fetches.size() < 2) return;
  // Fetches are queued per I/O shard and each shard wakeup drains its whole
  // queue into one DeltaStore::FetchBatch (one storage round-trip per *batch*):
  // all the fetches that pile up while a shard sleeps through a simulated
  // seek coalesce into the next round-trip instead of paying one each.
  // A graph pinned to an I/O lane (SetIoLane: one lane per partition of a
  // PartitionedDeltaGraph) sends all its fetches there, so distinct
  // partitions drain on distinct I/O threads and their pipelines overlap;
  // otherwise fetches spread across shards by delta id.
  const auto shards = static_cast<uint64_t>(io->parallelism());
  const int lane = cache->graph().io_lane();
  for (const PlanFetch& fetch : fetches) {
    const SkeletonEdge& e = skel.edge(fetch.edge);
    const size_t shard = lane >= 0
                             ? static_cast<size_t>(lane) % shards
                             : static_cast<size_t>(e.delta_id % shards);
    cache->BeginPrefetch();
    cache->EnqueuePrefetch(shard, e, fetch.is_eventlist, components);
    io->Submit(shard, [cache, shard] { cache->DrainPrefetchBatch(shard); });
  }
}

}  // namespace hgdb

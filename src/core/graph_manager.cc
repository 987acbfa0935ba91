#include "core/graph_manager.h"

#include <cstdlib>

namespace hgdb {

Result<std::unique_ptr<GraphManager>> GraphManager::Create(KVStore* store,
                                                           GraphManagerOptions options) {
  auto dg = DeltaGraph::Create(store, options.index);
  if (!dg.ok()) return dg.status();
  auto gm = std::unique_ptr<GraphManager>(
      new GraphManager(std::move(dg).value(), std::move(options)));
  gm->WireExecPool();
  return gm;
}

Result<std::unique_ptr<GraphManager>> GraphManager::Open(KVStore* store,
                                                         GraphManagerOptions options) {
  auto dg = DeltaGraph::Open(store);
  if (!dg.ok()) return dg.status();
  options.index = dg.value()->options();
  auto gm = std::unique_ptr<GraphManager>(
      new GraphManager(std::move(dg).value(), std::move(options)));
  gm->WireExecPool();
  gm->pool_.InitCurrent(gm->dg_->current());
  gm->leaves_seen_ = gm->dg_->skeleton().leaves().size();
  return gm;
}

void GraphManager::WireExecPool() {
  if (options_.exec_parallelism < 0 || options_.exec_parallelism == 1) {
    // 1 = documented inline execution; negative = invalid, fail
    // conservative (inline) rather than silently spawning the shared pool.
    dg_->SetTaskPool(nullptr);
  } else if (options_.exec_parallelism >= 2) {
    owned_exec_pool_ = std::make_unique<TaskPool>(options_.exec_parallelism);
    dg_->SetTaskPool(owned_exec_pool_.get());
  }
  // 0: keep the DeltaGraph default (the shared pool).

  if (options_.io_parallelism < 0) {
    dg_->SetIoPool(nullptr);  // Prefetch off: fetches block their worker.
  } else if (options_.io_parallelism >= 1) {
    owned_io_pool_ = std::make_unique<IoPool>(options_.io_parallelism);
    dg_->SetIoPool(owned_io_pool_.get());
  }
  // 0: keep the DeltaGraph default (IoPool::Shared via HISTGRAPH_IO_THREADS).
}

std::unique_ptr<RetrievalSession> GraphManager::NewRetrievalSession() {
  return std::make_unique<RetrievalSession>(dg_.get());
}

Status GraphManager::SetInitialSnapshot(const Snapshot& g0, Timestamp t0) {
  HG_RETURN_NOT_OK(dg_->SetInitialSnapshot(g0, t0));
  pool_.InitCurrent(g0);
  leaves_seen_ = dg_->skeleton().leaves().size();
  return Status::OK();
}

Status GraphManager::ApplyEvent(const Event& e) {
  HG_RETURN_NOT_OK(dg_->Append(e));
  HG_RETURN_NOT_OK(pool_.ApplyEventToCurrent(e));
  // If the append cut a leaf, the recent eventlist was folded into the index
  // and the bit-1 (recently deleted, unindexed) marks can be dropped.
  const size_t leaves = dg_->skeleton().leaves().size();
  if (leaves != leaves_seen_) {
    pool_.ClearRecentlyDeleted();
    leaves_seen_ = leaves;
  }
  return Status::OK();
}

Status GraphManager::ApplyEvents(const std::vector<Event>& events) {
  // Batched form: one AppendAll — and therefore ONE published epoch — for
  // the whole batch, so concurrent readers never observe a torn batch. The
  // pool's current graph then catches up event by event.
  HG_RETURN_NOT_OK(dg_->AppendAll(events));
  for (const auto& e : events) HG_RETURN_NOT_OK(pool_.ApplyEventToCurrent(e));
  const size_t leaves = dg_->skeleton().leaves().size();
  if (leaves != leaves_seen_) {
    pool_.ClearRecentlyDeleted();
    leaves_seen_ = leaves;
  }
  return Status::OK();
}

Status GraphManager::FinalizeIndex() {
  HG_RETURN_NOT_OK(dg_->Finalize());
  pool_.ClearRecentlyDeleted();
  leaves_seen_ = dg_->skeleton().leaves().size();
  return Status::OK();
}

void GraphManager::FilterAttrs(Snapshot* snap, const AttrOptions& opts) {
  if (!opts.NeedsFiltering()) return;
  std::vector<std::pair<NodeId, AttrId>> drop_node_attrs;
  for (const auto& [n, attrs] : snap->node_attrs()) {
    for (const auto& [k, v] : attrs) {
      if (!opts.KeepNodeAttr(AttrStr(k))) drop_node_attrs.emplace_back(n, k);
    }
  }
  for (const auto& [n, k] : drop_node_attrs) snap->RemoveNodeAttrId(n, k);
  std::vector<std::pair<EdgeId, AttrId>> drop_edge_attrs;
  for (const auto& [e, attrs] : snap->edge_attrs()) {
    for (const auto& [k, v] : attrs) {
      if (!opts.KeepEdgeAttr(AttrStr(k))) drop_edge_attrs.emplace_back(e, k);
    }
  }
  for (const auto& [e, k] : drop_edge_attrs) snap->RemoveEdgeAttrId(e, k);
}

Result<size_t> GraphManager::MaterializeDepth(int depth) {
  auto count = dg_->MaterializeDepth(depth, kCompAll);
  if (!count.ok()) return count.status();
  for (int32_t node_id : dg_->NodesAtDepth(depth)) {
    // Skip nodes already overlaid.
    bool known = false;
    for (const auto& base : materialized_bases_) {
      if (base.node_id == node_id) {
        known = true;
        break;
      }
    }
    if (known) continue;
    const Snapshot* snap = dg_->materialized_snapshot(node_id);
    if (snap == nullptr) continue;
    auto pool_id = pool_.OverlayMaterialized(*snap);
    if (!pool_id.ok()) return pool_id.status();
    materialized_bases_.push_back(MaterializedBase{pool_id.value(), node_id, snap});
  }
  return count.value();
}

Result<HistGraph> GraphManager::OverlaySnapshot(Snapshot&& snap, Timestamp t,
                                                unsigned components) {
  Result<PoolGraphId> id = Status::OK();
  // The dependence decision of Section 6: "during the query plan
  // construction, we count the total number of events that need to be
  // applied to the materialized graph, and if it is small relative to the
  // size of the graph, the fetched graph is marked as being dependent".
  // Candidate bases: the current graph and the materialized graph whose
  // size is closest to the snapshot's.
  bool overlaid = false;
  if (options_.dependent_overlay_threshold > 0 && components == kCompAll) {
    std::vector<std::pair<PoolGraphId, const Snapshot*>> candidates;
    if (options_.index.maintain_current) {
      candidates.emplace_back(kCurrentGraph, &dg_->current());
    }
    const MaterializedBase* closest = nullptr;
    for (const auto& base : materialized_bases_) {
      if (closest == nullptr ||
          std::llabs(static_cast<long long>(base.snapshot->ElementCount()) -
                     static_cast<long long>(snap.ElementCount())) <
              std::llabs(static_cast<long long>(closest->snapshot->ElementCount()) -
                         static_cast<long long>(snap.ElementCount()))) {
        closest = &base;
      }
    }
    if (closest != nullptr) candidates.emplace_back(closest->pool_id, closest->snapshot);

    PoolGraphId best_base = -1;
    Delta best_diff;
    size_t best_size = 0;
    for (const auto& [pool_id, base_snap] : candidates) {
      Delta diff = Delta::Between(snap, *base_snap);
      if (best_base < 0 || diff.ElementCount() < best_size) {
        best_base = pool_id;
        best_size = diff.ElementCount();
        best_diff = std::move(diff);
      }
    }
    if (best_base >= 0 &&
        best_size <= options_.dependent_overlay_threshold *
                         static_cast<double>(std::max<size_t>(1, snap.ElementCount()))) {
      id = pool_.OverlayDependent(best_base, best_diff);
      overlaid = true;
    }
  }
  if (!overlaid) id = pool_.OverlayHistorical(snap);
  if (!id.ok()) return id.status();
  HistGraph out;
  out.id_ = id.value();
  out.time_ = t;
  out.view_ = pool_.View(out.id_);
  return out;
}

Result<HistGraph> GraphManager::GetHistGraph(Timestamp t,
                                             const std::string& attr_options) {
  auto graphs = GetHistGraphs({t}, attr_options);
  if (!graphs.ok()) return graphs.status();
  return std::move(graphs.value()[0]);
}

Result<std::vector<HistGraph>> GraphManager::GetHistGraphs(
    const std::vector<Timestamp>& times, const std::string& attr_options) {
  auto opts = AttrOptions::Parse(attr_options);
  if (!opts.ok()) return opts.status();
  const unsigned components = opts.value().Components();
  auto snaps = dg_->GetSnapshots(times, components);
  if (!snaps.ok()) return snaps.status();
  std::vector<HistGraph> out;
  out.reserve(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    Snapshot snap = std::move(snaps.value()[i]);
    FilterAttrs(&snap, opts.value());
    auto hist = OverlaySnapshot(std::move(snap), times[i], components);
    if (!hist.ok()) return hist.status();
    out.push_back(std::move(hist).value());
  }
  return out;
}

Result<HistGraph> GraphManager::GetHistGraph(const TimeExpression& expr,
                                             const std::string& attr_options) {
  auto opts = AttrOptions::Parse(attr_options);
  if (!opts.ok()) return opts.status();
  const unsigned components = opts.value().Components();
  auto snaps = dg_->GetSnapshots(expr.times(), components);
  if (!snaps.ok()) return snaps.status();
  const auto& gs = snaps.value();
  const size_t k = gs.size();

  // Evaluate the Boolean expression element-wise over the k snapshots
  // (Section 4.4: fetch the snapshots, then combine).
  Snapshot result;
  std::vector<bool> membership(k);
  auto membership_of = [&](auto&& probe) {
    for (size_t i = 0; i < k; ++i) membership[i] = probe(gs[i]);
    return expr.Evaluate(membership);
  };

  std::unordered_set<NodeId> seen_nodes;
  std::unordered_set<EdgeId> seen_edges;
  for (const auto& g : gs) {
    for (NodeId n : g.nodes()) {
      if (!seen_nodes.insert(n).second) continue;
      if (membership_of([n](const Snapshot& s) { return s.HasNode(n); })) {
        result.AddNode(n);
      }
    }
    for (const auto& [e, rec] : g.edges()) {
      if (!seen_edges.insert(e).second) continue;
      if (membership_of([e](const Snapshot& s) { return s.HasEdge(e); })) {
        result.AddEdge(e, rec);
      }
    }
    for (const auto& [n, attrs] : g.node_attrs()) {
      for (const auto& [key, value] : attrs) {
        if (result.GetNodeAttrValueId(n, key) != kInvalidAttrId) continue;
        if (membership_of([n, key, value](const Snapshot& s) {
              return s.GetNodeAttrValueId(n, key) == value;
            })) {
          result.SetNodeAttrId(n, key, value);
        }
      }
    }
    for (const auto& [e, attrs] : g.edge_attrs()) {
      for (const auto& [key, value] : attrs) {
        if (result.GetEdgeAttrValueId(e, key) != kInvalidAttrId) continue;
        if (membership_of([e, key, value](const Snapshot& s) {
              return s.GetEdgeAttrValueId(e, key) == value;
            })) {
          result.SetEdgeAttrId(e, key, value);
        }
      }
    }
  }
  FilterAttrs(&result, opts.value());
  return OverlaySnapshot(std::move(result),
                         expr.times().empty() ? 0 : expr.times().front(), components);
}

Result<HistGraph> GraphManager::GetHistGraphInterval(Timestamp ts, Timestamp te,
                                                     const std::string& attr_options) {
  auto opts = AttrOptions::Parse(attr_options);
  if (!opts.ok()) return opts.status();
  const unsigned components = opts.value().Components() | kCompTransient;
  EventList events;
  HG_RETURN_NOT_OK(dg_->CollectEvents(ts, te, components, &events));

  // The interval graph: every element *added* during the window, plus the
  // transient events (which by definition no snapshot query returns).
  Snapshot result;
  for (const auto& e : events.events()) {
    switch (e.type) {
      case EventType::kAddNode:
        result.AddNode(e.node);
        break;
      case EventType::kAddEdge:
        result.AddEdge(e.edge, EdgeRecord{e.src, e.dst, e.directed});
        break;
      case EventType::kNodeAttr:
        if (e.new_value.has_value() && opts.value().KeepNodeAttr(e.key)) {
          result.SetNodeAttr(e.node, e.key, *e.new_value);
        }
        break;
      case EventType::kEdgeAttr:
        if (e.new_value.has_value() && opts.value().KeepEdgeAttr(e.key)) {
          result.SetEdgeAttr(e.edge, e.key, *e.new_value);
        }
        break;
      case EventType::kTransientEdge: {
        const EdgeId id = next_transient_edge_id_++;
        result.AddEdge(id, EdgeRecord{e.src, e.dst, true});
        result.SetEdgeAttr(id, "__transient", e.key);
        break;
      }
      case EventType::kTransientNode:
        result.AddNode(e.node);
        result.SetNodeAttr(e.node, "__transient", e.key);
        break;
      case EventType::kDeleteNode:
      case EventType::kDeleteEdge:
        break;  // Deletions are not "elements added during the interval".
    }
  }
  return OverlaySnapshot(std::move(result), ts, components);
}

Result<EventList> GraphManager::GetEvents(Timestamp ts, Timestamp te,
                                          bool include_transient) {
  EventList events;
  const unsigned components =
      include_transient ? kCompAllWithTransient : kCompAll;
  HG_RETURN_NOT_OK(dg_->CollectEvents(ts, te, components, &events));
  return events;
}

Status GraphManager::Release(HistGraph* g) {
  if (g == nullptr || !g->valid()) return Status::OK();
  HG_RETURN_NOT_OK(pool_.Release(g->pool_id()));
  g->id_ = -1;
  return Status::OK();
}

size_t GraphManager::RunCleaner() { return pool_.RunCleaner(); }

}  // namespace hgdb

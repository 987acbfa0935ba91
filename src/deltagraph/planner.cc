#include "deltagraph/planner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <unordered_map>
#include <unordered_set>

namespace hgdb {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Inverts a plan step (traversal in the opposite direction).
PlanStep InvertStep(PlanStep s) {
  s.forward = !s.forward;
  return s;
}

}  // namespace

/// The augmented weighted graph the planner searches: skeleton nodes plus a
/// node for the current graph and one virtual node per query time point
/// (Figure 4). All edges are traversable in both directions.
struct Planner::AugGraph {
  struct Edge {
    int32_t u, v;
    double w;
    PlanStep step;  ///< Transforms the u-side state into the v-side state.
  };

  std::vector<Edge> edges;
  std::vector<std::vector<int32_t>> adj;  // node -> incident edge indices
  std::vector<std::vector<Timestamp>> emit_times;  // per aug node
  std::vector<int32_t> emit_node;  // aug node -> skeleton node to emit, or -1
  int32_t origin = -1;

  int32_t AddNode() {
    adj.emplace_back();
    emit_times.emplace_back();
    emit_node.push_back(-1);
    return static_cast<int32_t>(adj.size()) - 1;
  }

  void AddEdge(int32_t u, int32_t v, double w, PlanStep step) {
    const int32_t id = static_cast<int32_t>(edges.size());
    edges.push_back(Edge{u, v, w, step});
    adj[u].push_back(id);
    adj[v].push_back(id);
  }

  /// Single-source shortest paths (Dijkstra).
  void Dijkstra(int32_t source, std::vector<double>* dist,
                std::vector<int32_t>* parent_edge) const {
    dist->assign(adj.size(), kInf);
    parent_edge->assign(adj.size(), -1);
    using Item = std::pair<double, int32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    (*dist)[source] = 0.0;
    pq.emplace(0.0, source);
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > (*dist)[u]) continue;
      for (int32_t eid : adj[u]) {
        const Edge& e = edges[eid];
        const int32_t v = e.u == u ? e.v : e.u;
        const double nd = d + e.w;
        if (nd < (*dist)[v]) {
          (*dist)[v] = nd;
          (*parent_edge)[v] = eid;
          pq.emplace(nd, v);
        }
      }
    }
  }
};

namespace {

/// Builds the plan tree from a set of chosen augmented edges: takes a BFS
/// spanning tree of the chosen subgraph from the origin, prunes branches that
/// serve no terminal, and converts the remainder into PlanNodes whose steps
/// point away from the origin.
std::unique_ptr<PlanNode> BuildPlanTree(const Planner::AugGraph& g,
                                        const std::vector<int32_t>& chosen_edges,
                                        double* cost_out) {
  // BFS over the chosen subgraph.
  std::unordered_map<int32_t, std::vector<int32_t>> sub_adj;
  for (int32_t eid : chosen_edges) {
    sub_adj[g.edges[eid].u].push_back(eid);
    sub_adj[g.edges[eid].v].push_back(eid);
  }
  std::unordered_map<int32_t, int32_t> tree_parent_edge;  // node -> edge id
  std::vector<int32_t> order;
  std::unordered_set<int32_t> visited{g.origin};
  std::queue<int32_t> q;
  q.push(g.origin);
  while (!q.empty()) {
    const int32_t u = q.front();
    q.pop();
    order.push_back(u);
    auto it = sub_adj.find(u);
    if (it == sub_adj.end()) continue;
    for (int32_t eid : it->second) {
      const auto& e = g.edges[eid];
      const int32_t v = e.u == u ? e.v : e.u;
      if (visited.insert(v).second) {
        tree_parent_edge[v] = eid;
        q.push(v);
      }
    }
  }

  // Prune: repeatedly drop leaves that emit nothing.
  std::unordered_map<int32_t, int> child_count;
  for (const auto& [v, eid] : tree_parent_edge) {
    const auto& e = g.edges[eid];
    const int32_t parent = (e.u == v) ? e.v : e.u;
    ++child_count[parent];
  }
  auto is_terminal = [&](int32_t v) {
    return !g.emit_times[v].empty() || g.emit_node[v] >= 0;
  };
  // Process nodes in reverse BFS order so children are pruned before parents.
  std::unordered_set<int32_t> pruned;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int32_t v = *it;
    if (v == g.origin) continue;
    if (child_count[v] == 0 && !is_terminal(v)) {
      pruned.insert(v);
      const auto& e = g.edges[tree_parent_edge[v]];
      const int32_t parent = (e.u == v) ? e.v : e.u;
      --child_count[parent];
    }
  }

  // Recursively build PlanNodes.
  std::unordered_map<int32_t, std::vector<int32_t>> children_of;
  double cost = 0.0;
  for (const auto& [v, eid] : tree_parent_edge) {
    if (pruned.contains(v)) continue;
    const auto& e = g.edges[eid];
    const int32_t parent = (e.u == v) ? e.v : e.u;
    children_of[parent].push_back(v);
    cost += e.w;
  }
  *cost_out = cost;

  std::function<std::unique_ptr<PlanNode>(int32_t)> build =
      [&](int32_t v) -> std::unique_ptr<PlanNode> {
    auto node = std::make_unique<PlanNode>();
    node->emit_times = g.emit_times[v];
    if (g.emit_node[v] >= 0) node->emit_nodes.push_back(g.emit_node[v]);
    auto it = children_of.find(v);
    if (it != children_of.end()) {
      // Deterministic order: by child id.
      std::vector<int32_t> kids = it->second;
      std::sort(kids.begin(), kids.end());
      for (int32_t c : kids) {
        const auto& e = g.edges[tree_parent_edge[c]];
        PlanStep step = (e.u == v) ? e.step : InvertStep(e.step);
        node->children.emplace_back(step, build(c));
      }
    }
    return node;
  };
  return build(g.origin);
}

}  // namespace

size_t Plan::StepCount() const {
  size_t count = 0;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    for (const auto& [step, child] : n.children) {
      ++count;
      walk(*child);
    }
  };
  if (root) walk(*root);
  return count;
}

namespace {

struct TerminalSpec {
  Timestamp time;
  // Attachment: either an exact skeleton node, or a virtual node on an
  // eventlist edge / the recent eventlist.
  enum class Kind { kExactNode, kOnEventlist, kOnRecent } kind;
  int32_t node = -1;       // kExactNode: skeleton node id.
  int32_t el_edge = -1;    // kOnEventlist: eventlist skeleton edge id.
};

}  // namespace

Result<Plan> Planner::PlanSnapshots(const std::vector<Timestamp>& times,
                                    unsigned components) const {
  const Skeleton& skel = *ctx_.skeleton;
  if (skel.leaves().empty() || skel.super_root() < 0) {
    return Status::InvalidArgument("planner: index has no leaves yet");
  }

  AugGraph g;
  // Augmented node 0..N-1 mirror skeleton nodes.
  for (size_t i = 0; i < skel.node_count(); ++i) g.AddNode();
  g.origin = skel.super_root();

  // Skeleton edges.
  for (size_t i = 0; i < skel.edge_count(); ++i) {
    const SkeletonEdge& e = skel.edge(static_cast<int32_t>(i));
    if (e.deleted) continue;
    PlanStep step;
    step.edge = e.id;
    step.forward = true;
    if (e.is_eventlist) {
      step.kind = PlanStep::Kind::kApplyEvents;
      step.lo = skel.node(e.from).boundary_time;
      step.hi = skel.node(e.to).boundary_time;
    } else {
      step.kind = PlanStep::Kind::kApplyDelta;
    }
    const double w =
        costs_.per_edge_overhead + static_cast<double>(e.sizes.TotalBytes(components));
    g.AddEdge(e.from, e.to, w, step);
  }

  // Materialized nodes hang off the super-root with near-zero weight
  // (Section 4.5). The weight models the in-memory copy. A materialized copy
  // is only usable if it holds every requested component.
  for (size_t i = 0; ctx_.allow_materialized && i < skel.node_count(); ++i) {
    const SkeletonNode& n = skel.node(static_cast<int32_t>(i));
    if (!n.materialized || n.is_super_root) continue;
    if ((n.materialized_components & components) != components) continue;
    PlanStep step;
    step.kind = PlanStep::Kind::kLoadMaterialized;
    step.node = n.id;
    const double w = costs_.memory_cost_factor * costs_.bytes_per_element *
                     static_cast<double>(n.element_count);
    g.AddEdge(g.origin, n.id, w, step);
  }

  // Current-graph node, connected to the last leaf by the recent eventlist.
  const int32_t last_leaf = skel.leaves().back();
  const Timestamp last_boundary = skel.node(last_leaf).boundary_time;
  int32_t current_node = -1;
  if (ctx_.has_current && ctx_.allow_current) {
    current_node = g.AddNode();
    PlanStep load;
    load.kind = PlanStep::Kind::kLoadCurrent;
    const double w = costs_.memory_cost_factor * costs_.bytes_per_element *
                     static_cast<double>(ctx_.current_elements);
    g.AddEdge(g.origin, current_node, w, load);
  }

  // Resolve each distinct query time to a terminal attachment.
  std::map<Timestamp, TerminalSpec> terminals;  // Ordered: chains need sorting.
  const auto& leaves = skel.leaves();
  for (Timestamp t : times) {
    if (terminals.contains(t)) continue;
    TerminalSpec spec;
    spec.time = t;
    const Timestamp first_boundary = skel.node(leaves.front()).boundary_time;
    if (t <= first_boundary) {
      // The first leaf already answers any time at or before its boundary
      // (there are no indexed events at or before it other than its own).
      spec.kind = TerminalSpec::Kind::kExactNode;
      spec.node = leaves.front();
    } else if (t > last_boundary) {
      if (ctx_.recent_count == 0) {
        spec.kind = TerminalSpec::Kind::kExactNode;
        spec.node = last_leaf;
      } else {
        spec.kind = TerminalSpec::Kind::kOnRecent;
      }
    } else {
      const int i = skel.FindLeafInterval(t);
      const int32_t right = leaves[i + 1];
      if (skel.node(right).boundary_time == t) {
        spec.kind = TerminalSpec::Kind::kExactNode;
        spec.node = right;
      } else {
        spec.kind = TerminalSpec::Kind::kOnEventlist;
        spec.el_edge = skel.FindEventlistEdge(leaves[i], right);
        if (spec.el_edge < 0) {
          return Status::Internal("planner: missing eventlist edge");
        }
      }
    }
    terminals.emplace(t, spec);
  }

  // Create virtual nodes and chains. Group on-eventlist terminals by edge.
  std::map<int32_t, std::vector<Timestamp>> by_edge;
  std::vector<Timestamp> on_recent;
  std::vector<int32_t> terminal_aug_nodes;
  std::unordered_map<Timestamp, int32_t> aug_of_time;
  for (auto& [t, spec] : terminals) {
    switch (spec.kind) {
      case TerminalSpec::Kind::kExactNode:
        g.emit_times[spec.node].push_back(t);
        aug_of_time[t] = spec.node;
        break;
      case TerminalSpec::Kind::kOnEventlist:
        by_edge[spec.el_edge].push_back(t);
        break;
      case TerminalSpec::Kind::kOnRecent:
        on_recent.push_back(t);
        break;
    }
  }

  for (auto& [eid, ts] : by_edge) {
    const SkeletonEdge& e = skel.edge(eid);
    const Timestamp b_lo = skel.node(e.from).boundary_time;
    const Timestamp b_hi = skel.node(e.to).boundary_time;
    const double total_bytes = static_cast<double>(e.sizes.TotalBytes(components));
    const double span = std::max<double>(1.0, static_cast<double>(b_hi - b_lo));
    std::sort(ts.begin(), ts.end());
    int32_t prev_node = e.from;
    Timestamp prev_t = b_lo;
    for (Timestamp t : ts) {
      const int32_t v = g.AddNode();
      g.emit_times[v].push_back(t);
      aug_of_time[t] = v;
      PlanStep step;
      step.kind = PlanStep::Kind::kApplyEvents;
      step.edge = eid;
      step.lo = prev_t;
      step.hi = t;
      const double frac = static_cast<double>(t - prev_t) / span;
      g.AddEdge(prev_node, v, costs_.per_edge_overhead + frac * total_bytes, step);
      prev_node = v;
      prev_t = t;
    }
    PlanStep tail;
    tail.kind = PlanStep::Kind::kApplyEvents;
    tail.edge = eid;
    tail.lo = prev_t;
    tail.hi = b_hi;
    const double frac = static_cast<double>(b_hi - prev_t) / span;
    g.AddEdge(prev_node, e.to, costs_.per_edge_overhead + frac * total_bytes, tail);
  }

  if (!on_recent.empty() || current_node >= 0) {
    std::sort(on_recent.begin(), on_recent.end());
    const double total_bytes = costs_.memory_cost_factor * ctx_.avg_event_bytes *
                               static_cast<double>(ctx_.recent_count);
    // An empty tail ends at the last boundary. Its recent_end is
    // kMinTimestamp, and subtracting a boundary from that would overflow.
    const Timestamp recent_end =
        ctx_.recent_count == 0 ? last_boundary : ctx_.recent_end;
    const double span =
        std::max<double>(1.0, static_cast<double>(recent_end - last_boundary));
    int32_t prev_node = last_leaf;
    Timestamp prev_t = last_boundary;
    for (Timestamp t : on_recent) {
      const int32_t v = g.AddNode();
      g.emit_times[v].push_back(t);
      aug_of_time[t] = v;
      PlanStep step;
      step.kind = PlanStep::Kind::kApplyRecentEvents;
      step.lo = prev_t;
      step.hi = t;
      const double frac =
          std::min(1.0, static_cast<double>(t - prev_t) / span);
      g.AddEdge(prev_node, v, frac * total_bytes, step);
      prev_node = v;
      prev_t = t;
    }
    if (current_node >= 0) {
      // Always link the recent chain (or, with no on-recent terminals, the
      // last leaf directly) to the current-graph node. Besides modeling the
      // "rightmost leaf is materialized" rule, this keeps every leaf
      // reachable through the current graph even when the skeleton's roots
      // are not attached yet (leaves cut by appends after — or without —
      // a Finalize); without it such plans had no path from the origin.
      PlanStep tail;
      tail.kind = PlanStep::Kind::kApplyRecentEvents;
      tail.lo = prev_t;
      tail.hi = kMaxTimestamp;
      const double frac = std::max(
          0.0, std::min(1.0, static_cast<double>(recent_end - prev_t) / span));
      g.AddEdge(prev_node, current_node, frac * total_bytes, tail);
    }
  }

  for (const auto& [t, v] : aug_of_time) terminal_aug_nodes.push_back(v);
  std::sort(terminal_aug_nodes.begin(), terminal_aug_nodes.end());
  terminal_aug_nodes.erase(
      std::unique(terminal_aug_nodes.begin(), terminal_aug_nodes.end()),
      terminal_aug_nodes.end());

  return SolveSteiner(g, terminal_aug_nodes);
}

Result<Plan> Planner::PlanSinglepointCached(Timestamp t, unsigned components,
                                            SsspCache* cache) const {
  const Skeleton& skel = *ctx_.skeleton;
  if (skel.leaves().empty() || skel.super_root() < 0) {
    return Status::InvalidArgument("planner: index has no leaves yet");
  }
  const Timestamp last_boundary = skel.node(skel.leaves().back()).boundary_time;
  if (t > last_boundary) {
    // Depends on the recent eventlist / current graph, which change with
    // every append: not worth caching.
    return PlanSnapshots({t}, components);
  }

  // (Re)build the cached SSSP over the base skeleton when stale. The base
  // graph has no virtual nodes, so augmented ids equal skeleton ids.
  if (!cache->ValidFor(skel, components)) {
    AugGraph g;
    for (size_t i = 0; i < skel.node_count(); ++i) g.AddNode();
    g.origin = skel.super_root();
    for (size_t i = 0; i < skel.edge_count(); ++i) {
      const SkeletonEdge& e = skel.edge(static_cast<int32_t>(i));
      if (e.deleted) continue;
      PlanStep step;
      step.edge = e.id;
      step.forward = true;
      if (e.is_eventlist) {
        step.kind = PlanStep::Kind::kApplyEvents;
        step.lo = skel.node(e.from).boundary_time;
        step.hi = skel.node(e.to).boundary_time;
      } else {
        step.kind = PlanStep::Kind::kApplyDelta;
      }
      g.AddEdge(e.from, e.to,
                costs_.per_edge_overhead +
                    static_cast<double>(e.sizes.TotalBytes(components)),
                step);
    }
    for (size_t i = 0; ctx_.allow_materialized && i < skel.node_count(); ++i) {
      const SkeletonNode& n = skel.node(static_cast<int32_t>(i));
      if (!n.materialized || n.is_super_root) continue;
      if ((n.materialized_components & components) != components) continue;
      PlanStep step;
      step.kind = PlanStep::Kind::kLoadMaterialized;
      step.node = n.id;
      g.AddEdge(g.origin, n.id,
                costs_.memory_cost_factor * costs_.bytes_per_element *
                    static_cast<double>(n.element_count),
                step);
    }
    // The base graph's edges map 1:1 onto plan steps; Dijkstra's parent
    // edges reference the *augmented* edge ids, which we translate back via
    // the stored steps. Keep the aug edge list alongside.
    std::vector<double> dist;
    std::vector<int32_t> parent;
    g.Dijkstra(g.origin, &dist, &parent);
    cache->skeleton_version = skel.version();
    cache->components = components;
    cache->dist = std::move(dist);
    // Translate parent aug-edge ids to (kind, skeleton ids) by re-walking;
    // store the aug edge index and rebuild steps below from the aug graph.
    // To keep the cache self-contained we instead store, per node, the
    // skeleton edge id (>= 0) or ~node for a materialized load (< -1).
    cache->parent_edge.assign(skel.node_count(), -1);
    for (size_t v = 0; v < skel.node_count(); ++v) {
      const int32_t aug_eid = parent[v];
      if (aug_eid < 0) continue;
      const auto& e = g.edges[aug_eid];
      if (e.step.kind == PlanStep::Kind::kLoadMaterialized) {
        cache->parent_edge[v] = -2 - e.step.node;  // Encoded materialized load.
      } else {
        cache->parent_edge[v] = e.step.edge;
      }
    }
  }

  // Resolve the terminal: exact leaf, or one side of a leaf-eventlist.
  const auto& leaves = skel.leaves();
  const Timestamp first_boundary = skel.node(leaves.front()).boundary_time;
  int32_t target = -1;
  int32_t el_edge = -1;  // Partial eventlist to apply after reaching target.
  bool forward = true;
  Timestamp lo = 0, hi = 0;
  double partial_weight = 0.0;
  if (t <= first_boundary) {
    target = leaves.front();
  } else {
    const int i = skel.FindLeafInterval(t);
    const int32_t left = leaves[i], right = leaves[i + 1];
    if (skel.node(right).boundary_time == t) {
      target = right;
    } else {
      el_edge = skel.FindEventlistEdge(left, right);
      if (el_edge < 0) return Status::Internal("planner: missing eventlist edge");
      const SkeletonEdge& e = skel.edge(el_edge);
      const Timestamp b_lo = skel.node(left).boundary_time;
      const Timestamp b_hi = skel.node(right).boundary_time;
      const double total = static_cast<double>(e.sizes.TotalBytes(components));
      const double span = std::max<double>(1.0, static_cast<double>(b_hi - b_lo));
      const double w_left = total * static_cast<double>(t - b_lo) / span;
      const double w_right = total * static_cast<double>(b_hi - t) / span;
      if (cache->dist[left] + w_left <= cache->dist[right] + w_right) {
        target = left;
        forward = true;
        lo = b_lo;
        hi = t;
        partial_weight = costs_.per_edge_overhead + w_left;
      } else {
        target = right;
        forward = false;
        lo = t;
        hi = b_hi;
        partial_weight = costs_.per_edge_overhead + w_right;
      }
    }
  }
  if (cache->dist[target] == kInf) {
    // The target is not reachable through persisted skeleton edges alone —
    // e.g. it lives in a leaf cut by appends after the last Finalize, whose
    // root is not yet attached to the super-root. The general planner also
    // knows the current-graph and recent-eventlist edges; use it.
    return PlanSnapshots({t}, components);
  }

  // Unfold the cached parent chain into a linear plan.
  std::vector<PlanStep> steps;
  for (int32_t v = target; v != skel.super_root();) {
    const int32_t enc = cache->parent_edge[v];
    if (enc == -1) return Status::Internal("planner: broken cached path");
    PlanStep step;
    if (enc <= -2) {
      step.kind = PlanStep::Kind::kLoadMaterialized;
      step.node = -2 - enc;
      steps.push_back(step);
      break;  // Materialized loads always hang off the super-root.
    }
    const SkeletonEdge& e = skel.edge(enc);
    step.edge = e.id;
    if (e.is_eventlist) {
      step.kind = PlanStep::Kind::kApplyEvents;
      step.lo = skel.node(e.from).boundary_time;
      step.hi = skel.node(e.to).boundary_time;
    } else {
      step.kind = PlanStep::Kind::kApplyDelta;
    }
    step.forward = (e.to == v);  // Stored direction is from -> to.
    steps.push_back(step);
    v = (e.to == v) ? e.from : e.to;
  }
  std::reverse(steps.begin(), steps.end());

  Plan plan;
  plan.root = std::make_unique<PlanNode>();
  PlanNode* cursor = plan.root.get();
  plan.estimated_cost = cache->dist[target] + partial_weight;
  for (const auto& step : steps) {
    auto child = std::make_unique<PlanNode>();
    PlanNode* next = child.get();
    cursor->children.emplace_back(step, std::move(child));
    cursor = next;
  }
  if (el_edge >= 0) {
    PlanStep partial;
    partial.kind = PlanStep::Kind::kApplyEvents;
    partial.edge = el_edge;
    partial.forward = forward;
    partial.lo = lo;
    partial.hi = hi;
    auto child = std::make_unique<PlanNode>();
    PlanNode* next = child.get();
    cursor->children.emplace_back(partial, std::move(child));
    cursor = next;
  }
  cursor->emit_times.push_back(t);
  return plan;
}

Result<Plan> Planner::PlanNodes(const std::vector<int32_t>& node_ids,
                                unsigned components) const {
  const Skeleton& skel = *ctx_.skeleton;
  if (skel.super_root() < 0) {
    return Status::InvalidArgument("planner: index has no super-root yet");
  }
  AugGraph g;
  for (size_t i = 0; i < skel.node_count(); ++i) g.AddNode();
  g.origin = skel.super_root();
  for (size_t i = 0; i < skel.edge_count(); ++i) {
    const SkeletonEdge& e = skel.edge(static_cast<int32_t>(i));
    if (e.deleted) continue;
    PlanStep step;
    step.edge = e.id;
    step.forward = true;
    if (e.is_eventlist) {
      step.kind = PlanStep::Kind::kApplyEvents;
      step.lo = skel.node(e.from).boundary_time;
      step.hi = skel.node(e.to).boundary_time;
    } else {
      step.kind = PlanStep::Kind::kApplyDelta;
    }
    const double w =
        costs_.per_edge_overhead + static_cast<double>(e.sizes.TotalBytes(components));
    g.AddEdge(e.from, e.to, w, step);
  }
  for (size_t i = 0; ctx_.allow_materialized && i < skel.node_count(); ++i) {
    const SkeletonNode& n = skel.node(static_cast<int32_t>(i));
    if (!n.materialized || n.is_super_root) continue;
    if ((n.materialized_components & components) != components) continue;
    PlanStep step;
    step.kind = PlanStep::Kind::kLoadMaterialized;
    step.node = n.id;
    const double w = costs_.memory_cost_factor * costs_.bytes_per_element *
                     static_cast<double>(n.element_count);
    g.AddEdge(g.origin, n.id, w, step);
  }
  std::vector<int32_t> terminal_nodes;
  for (int32_t id : node_ids) {
    if (id < 0 || static_cast<size_t>(id) >= skel.node_count()) {
      return Status::InvalidArgument("planner: bad node id");
    }
    g.emit_node[id] = id;
    terminal_nodes.push_back(id);
  }
  std::sort(terminal_nodes.begin(), terminal_nodes.end());
  terminal_nodes.erase(std::unique(terminal_nodes.begin(), terminal_nodes.end()),
                       terminal_nodes.end());
  return SolveSteiner(g, terminal_nodes);
}

Result<Plan> Planner::SolveSteiner(AugGraph& g,
                                   const std::vector<int32_t>& terminals) const {
  // Single terminal: plain Dijkstra from the origin (Section 4.3).
  std::vector<int32_t> chosen;
  if (terminals.size() <= 1) {
    std::vector<double> dist;
    std::vector<int32_t> parent;
    g.Dijkstra(g.origin, &dist, &parent);
    for (int32_t t : terminals) {
      if (dist[t] == kInf) return Status::Internal("planner: terminal unreachable");
      for (int32_t v = t; v != g.origin;) {
        const int32_t eid = parent[v];
        chosen.push_back(eid);
        const auto& e = g.edges[eid];
        v = (e.u == v) ? e.v : e.u;
      }
    }
  } else {
    // Metric-closure MST 2-approximation (Section 4.4).
    std::vector<int32_t> T;
    T.push_back(g.origin);
    for (int32_t t : terminals) {
      if (t != g.origin) T.push_back(t);
    }
    const size_t K = T.size();
    std::vector<std::vector<double>> dist(K);
    std::vector<std::vector<int32_t>> parent(K);
    for (size_t i = 0; i < K; ++i) g.Dijkstra(T[i], &dist[i], &parent[i]);

    // Prim over the K terminals.
    std::vector<bool> in_tree(K, false);
    std::vector<double> best(K, kInf);
    std::vector<size_t> best_from(K, 0);
    best[0] = 0.0;
    std::unordered_set<int32_t> chosen_set;
    for (size_t iter = 0; iter < K; ++iter) {
      size_t u = K;
      for (size_t i = 0; i < K; ++i) {
        if (!in_tree[i] && (u == K || best[i] < best[u])) u = i;
      }
      if (u == K || best[u] == kInf) {
        return Status::Internal("planner: disconnected terminals");
      }
      in_tree[u] = true;
      if (iter > 0) {
        // Unfold the path from T[best_from[u]] to T[u].
        const size_t s = best_from[u];
        for (int32_t v = T[u]; v != T[s];) {
          const int32_t eid = parent[s][v];
          chosen_set.insert(eid);
          const auto& e = g.edges[eid];
          v = (e.u == v) ? e.v : e.u;
        }
      }
      for (size_t i = 0; i < K; ++i) {
        if (!in_tree[i] && dist[u][T[i]] < best[i]) {
          best[i] = dist[u][T[i]];
          best_from[i] = u;
        }
      }
    }
    chosen.assign(chosen_set.begin(), chosen_set.end());
  }

  Plan plan;
  plan.root = BuildPlanTree(g, chosen, &plan.estimated_cost);
  return plan;
}

}  // namespace hgdb

#include "bench_log.h"

#include <algorithm>
#include <map>
#include <random>
#include <unordered_set>

namespace perfbench {
namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001B3ull;
  return Mix(h);
}

uint64_t NodeHash(NodeId n) { return Mix(n ^ 0x1111); }
uint64_t EdgeHash(EdgeId e, NodeId src, NodeId dst, bool directed) {
  return Mix(Mix(e ^ 0x2222) + 3 * Mix(src) + 5 * Mix(dst) + (directed ? 7 : 0));
}
uint64_t AttrHash(NodeId n, const std::string& key, const std::string& value) {
  return Mix(Mix(n ^ 0x3333) + 7 * HashString(key) + 11 * HashString(value));
}

// Tracks the live graph while a generator emits events, so every emitted
// event is valid and attribute events carry their exact old value.
class World {
 public:
  explicit World(uint64_t seed) : rng_(seed) {}

  size_t node_count() const { return nodes_.size(); }
  size_t edge_count() const { return live_edges_.size(); }

  NodeId RandomNode() { return nodes_[Below(nodes_.size())]; }
  size_t Below(size_t n) { return std::uniform_int_distribution<size_t>(0, n - 1)(rng_); }
  double Unit() { return std::uniform_real_distribution<double>(0, 1)(rng_); }

  Event AddNode(Timestamp t) {
    const NodeId n = next_node_++;
    nodes_.push_back(n);
    return Event::AddNode(t, n);
  }
  // Prefers an endpoint of a random live edge half the time (preferential
  // attachment), so degrees are skewed.
  NodeId PreferentialNode() {
    if (!live_edges_.empty() && Unit() < 0.5) {
      const EdgeRec& r = edges_.at(live_edges_[Below(live_edges_.size())]);
      return Unit() < 0.5 ? r.src : r.dst;
    }
    return RandomNode();
  }
  Event AddEdge(Timestamp t, NodeId src, NodeId dst, bool directed) {
    const EdgeId e = next_edge_++;
    edges_[e] = EdgeRec{src, dst, directed, live_edges_.size()};
    live_edges_.push_back(e);
    return Event::AddEdge(t, e, src, dst, directed);
  }
  Event DeleteRandomEdge(Timestamp t) {
    const size_t slot = Below(live_edges_.size());
    const EdgeId e = live_edges_[slot];
    const EdgeRec r = edges_.at(e);
    live_edges_[slot] = live_edges_.back();
    edges_[live_edges_[slot]].slot = slot;
    live_edges_.pop_back();
    edges_.erase(e);
    return Event::DeleteEdge(t, e, r.src, r.dst, r.directed);
  }
  Event SetAttr(Timestamp t) {
    const NodeId n = RandomNode();
    const std::string& key = AttrKeys()[Below(AttrKeys().size())];
    auto it = attrs_.find({n, key});
    std::optional<std::string> old_value;
    if (it != attrs_.end()) old_value = it->second;
    std::optional<std::string> new_value;
    if (!old_value || Unit() < 0.9) new_value = "v" + std::to_string(Below(1000));
    if (new_value) {
      attrs_[{n, key}] = *new_value;
    } else {
      attrs_.erase({n, key});
    }
    return Event::SetNodeAttr(t, n, key, old_value, new_value);
  }

 private:
  struct EdgeRec {
    NodeId src, dst;
    bool directed;
    size_t slot;
  };
  std::mt19937_64 rng_;
  NodeId next_node_ = 1;
  EdgeId next_edge_ = 1;
  std::vector<NodeId> nodes_;
  std::vector<EdgeId> live_edges_;
  std::unordered_map<EdgeId, EdgeRec> edges_;
  std::map<std::pair<NodeId, std::string>, std::string> attrs_;
};

// A quarter of consecutive events share a timestamp, so batch and leaf
// boundaries land inside equal-time runs.
Timestamp NextTime(World* w, Timestamp t) { return w->Unit() < 0.25 ? t : t + 1; }

// Folds one event into a running prefix fingerprint. Deletes carry the
// deleted edge's endpoints and attribute events their old value, so the
// replay needs no state beyond the digest itself.
void Fold(Fingerprint* fp, const Event& e) {
  switch (e.type) {
    case hgdb::EventType::kAddNode:
      fp->structure += NodeHash(e.node);
      ++fp->nodes;
      break;
    case hgdb::EventType::kDeleteNode:
      fp->structure -= NodeHash(e.node);
      --fp->nodes;
      break;
    case hgdb::EventType::kAddEdge:
      fp->structure += EdgeHash(e.edge, e.src, e.dst, e.directed);
      ++fp->edges;
      break;
    case hgdb::EventType::kDeleteEdge:
      fp->structure -= EdgeHash(e.edge, e.src, e.dst, e.directed);
      --fp->edges;
      break;
    case hgdb::EventType::kNodeAttr:
      if (e.old_value) {
        fp->attributes -= AttrHash(e.node, e.key, *e.old_value);
        --fp->attrs;
      }
      if (e.new_value) {
        fp->attributes += AttrHash(e.node, e.key, *e.new_value);
        ++fp->attrs;
      }
      break;
    default:  // The generators emit no other event types.
      break;
  }
}

}  // namespace

GeneratedLog GenerateServingLog(size_t num_events, uint64_t seed) {
  GeneratedLog log;
  World w(seed * 0x2545F4914F6CDD1Dull + 1);
  Timestamp t = 1;
  log.events.reserve(num_events);
  while (log.events.size() < num_events) {
    t = NextTime(&w, t);
    const double u = w.Unit();
    if (w.node_count() < 16 || u < 0.12) {
      log.events.push_back(w.AddNode(t));
    } else if (u < 0.52 || (u < 0.72 && w.edge_count() == 0)) {
      NodeId src = w.PreferentialNode(), dst = w.RandomNode();
      while (dst == src) dst = w.RandomNode();
      log.events.push_back(w.AddEdge(t, src, dst, w.Unit() < 0.3));
    } else if (u < 0.72) {
      log.events.push_back(w.DeleteRandomEdge(t));
    } else {
      log.events.push_back(w.SetAttr(t));
    }
  }
  return log;
}

GeneratedLog GenerateCitationLog(size_t initial_nodes, size_t initial_edges,
                                 size_t churn_events, uint64_t seed) {
  GeneratedLog log;
  World w(seed * 0x9E3779B97F4A7C15ull + 3);
  // The starting graph is built with the same world (so churn can delete
  // its edges) and installed as one snapshot at time 0.
  std::vector<Event> bootstrap;
  for (size_t i = 0; i < initial_nodes; ++i) bootstrap.push_back(w.AddNode(0));
  while (w.edge_count() < initial_edges) {
    NodeId src = w.RandomNode(), dst = w.PreferentialNode();
    while (dst == src) dst = w.RandomNode();
    bootstrap.push_back(w.AddEdge(0, src, dst, /*directed=*/true));
  }
  for (const Event& e : bootstrap) (void)log.initial.Apply(e, /*forward=*/true);

  Timestamp t = 1;
  log.events.reserve(churn_events);
  while (log.events.size() < churn_events) {
    t = NextTime(&w, t);
    if (w.Unit() < 0.5 || w.edge_count() == 0) {
      NodeId src = w.PreferentialNode(), dst = w.RandomNode();
      while (dst == src) dst = w.RandomNode();
      log.events.push_back(w.AddEdge(t, src, dst, /*directed=*/true));
    } else {
      log.events.push_back(w.DeleteRandomEdge(t));
    }
  }
  return log;
}

Fingerprint FingerprintOf(const hgdb::Snapshot& g) {
  Fingerprint fp;
  for (NodeId n : g.nodes()) {
    fp.structure += NodeHash(n);
    ++fp.nodes;
    for (const std::string& key : AttrKeys()) {
      if (const std::string* v = g.GetNodeAttr(n, key)) fp.attributes += AttrHash(n, key, *v);
    }
  }
  for (const auto& [id, rec] : g.edges()) {
    fp.structure += EdgeHash(id, rec.src, rec.dst, rec.directed);
    ++fp.edges;
  }
  fp.attrs = static_cast<int64_t>(g.NodeAttrCount() + g.EdgeAttrCount());
  return fp;
}

Fingerprint FingerprintOf(const hgdb::HistGraphView& view) {
  Fingerprint fp;
  for (NodeId n : view.GetNodes()) {
    fp.structure += NodeHash(n);
    ++fp.nodes;
    for (const std::string& key : AttrKeys()) {
      if (const std::string* v = view.GetNodeAttr(n, key)) {
        fp.attributes += AttrHash(n, key, *v);
        ++fp.attrs;
      }
    }
    for (EdgeId e : view.GetIncidentEdges(n)) {
      const hgdb::EdgeRecord* rec = view.GetEdgeRecord(e);
      if (rec == nullptr || rec->src != n) continue;  // Count each edge once.
      fp.structure += EdgeHash(e, rec->src, rec->dst, rec->directed);
      ++fp.edges;
    }
  }
  return fp;
}

ReplayOracle::ReplayOracle(const GeneratedLog& log) : log_(log) {
  Fingerprint fp = FingerprintOf(log.initial);
  prefix_.reserve(log.events.size() + 1);
  prefix_.push_back(fp);
  for (const Event& e : log.events) {
    Fold(&fp, e);
    prefix_.push_back(fp);
  }
}

size_t ReplayOracle::PrefixAt(Timestamp t) const {
  const auto it = std::upper_bound(
      log_.events.begin(), log_.events.end(), t,
      [](Timestamp v, const Event& e) { return v < e.time; });
  return static_cast<size_t>(it - log_.events.begin());
}

std::vector<NaiveGraph> ReplayGraphsAt(const GeneratedLog& log,
                                       const std::vector<size_t>& prefixes) {
  std::vector<size_t> order(prefixes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return prefixes[a] < prefixes[b]; });

  std::unordered_set<NodeId> nodes(log.initial.nodes().begin(), log.initial.nodes().end());
  std::unordered_map<EdgeId, NaiveGraph::Arc> edges;
  for (const auto& [id, rec] : log.initial.edges()) {
    edges[id] = NaiveGraph::Arc{rec.src, rec.dst, rec.directed};
  }
  std::vector<NaiveGraph> out(prefixes.size());
  size_t applied = 0;
  for (size_t i : order) {
    for (; applied < prefixes[i]; ++applied) {
      const Event& e = log.events[applied];
      switch (e.type) {
        case hgdb::EventType::kAddNode: nodes.insert(e.node); break;
        case hgdb::EventType::kDeleteNode: nodes.erase(e.node); break;
        case hgdb::EventType::kAddEdge:
          edges[e.edge] = NaiveGraph::Arc{e.src, e.dst, e.directed};
          break;
        case hgdb::EventType::kDeleteEdge: edges.erase(e.edge); break;
        default: break;
      }
    }
    out[i].nodes.assign(nodes.begin(), nodes.end());
    for (const auto& [id, arc] : edges) out[i].edges.push_back(arc);
  }
  return out;
}

std::unordered_map<NodeId, double> NaivePageRank(const NaiveGraph& g, int iterations,
                                                 double damping) {
  std::unordered_map<NodeId, size_t> index;
  for (size_t i = 0; i < g.nodes.size(); ++i) index[g.nodes[i]] = i;
  const size_t n = g.nodes.size();
  std::vector<std::vector<size_t>> out(n);
  for (const NaiveGraph::Arc& a : g.edges) {
    out[index.at(a.src)].push_back(index.at(a.dst));
    if (!a.directed) out[index.at(a.dst)].push_back(index.at(a.src));
  }
  std::vector<double> value(n, 1.0 / static_cast<double>(n)), next(n);
  for (int step = 1; step <= iterations; ++step) {
    std::vector<double> incoming(n, 0.0);
    for (size_t v = 0; v < n; ++v) {
      if (out[v].empty()) continue;
      const double share = value[v] / static_cast<double>(out[v].size());
      for (size_t d : out[v]) incoming[d] += share;
    }
    for (size_t v = 0; v < n; ++v) {
      next[v] = (1.0 - damping) / static_cast<double>(n) + damping * incoming[v];
    }
    value.swap(next);
  }
  std::unordered_map<NodeId, double> ranks;
  for (size_t i = 0; i < n; ++i) ranks[g.nodes[i]] = value[i];
  return ranks;
}

}  // namespace perfbench

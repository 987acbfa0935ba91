#ifndef HISTGRAPH_GRAPHPOOL_GRAPH_POOL_H_
#define HISTGRAPH_GRAPHPOOL_GRAPH_POOL_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/dynamic_bitset.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "graph/delta.h"
#include "graph/snapshot.h"
#include "temporal/event.h"

namespace hgdb {

/// Identifier of a graph resident in the pool (an index into the GraphID-bit
/// mapping table, Figure 5(c)).
using PoolGraphId = int32_t;
inline constexpr PoolGraphId kCurrentGraph = 0;

class HistGraphView;

/// \brief GraphPool: many graphs overlaid on one in-memory union graph
/// (Section 6).
///
/// The pool maintains a single graph that is the union of all active graphs:
/// the current graph, retrieved historical snapshots, and materialized
/// DeltaGraph nodes. Every element (node, edge, and each attribute *value*)
/// carries a bitmap (BM) saying which active graphs contain it:
///
///  - Bit 0: membership in the current graph.
///  - Bit 1: elements recently deleted from the current graph but not yet
///    folded into the DeltaGraph index.
///  - Materialized graphs: one bit each.
///  - Historical graphs: a bit *pair* {2i, 2i+1}. An independent graph sets
///    both bits on its members. A *dependent* graph (one that differs from a
///    materialized/current graph in only a few elements) stores only
///    overrides: bit 2i = "membership explicitly overridden here", bit 2i+1 =
///    the overridden membership; unset pairs inherit the dependency's
///    membership. (The paper words the pair the other way around, which
///    would still touch every element; flipping the default to "inherit" is
///    what makes the optimization eliminate the full scan.)
///
/// Cleanup is lazy (Section 6, "Clean-up of a graph from memory"): Release()
/// only marks a slot dead; RunCleaner() later resets bits and evicts elements
/// whose bitmaps become empty.
class GraphPool {
 public:
  GraphPool();

  // -- Current graph -----------------------------------------------------------
  /// (Re)initializes the current graph's membership (bit 0) from `g`.
  void InitCurrent(const Snapshot& g);

  /// Applies one update event to the current graph. Deletions keep the
  /// element in the union and set bit 1 (recently-deleted) until
  /// ClearRecentlyDeleted() is called after the index absorbs the eventlist.
  Status ApplyEventToCurrent(const Event& e);

  /// Drops all bit-1 marks (the recent eventlist was flushed into the index).
  void ClearRecentlyDeleted();

  // -- Overlaying graphs --------------------------------------------------------
  /// Overlays an independent historical snapshot; returns its pool id.
  Result<PoolGraphId> OverlayHistorical(const Snapshot& g);

  /// Overlays one historical graph supplied as disjoint per-shard pieces (a
  /// PartitionedDeltaGraph's GetSnapshotParts output, or one time point of a
  /// RetrievalSession request's `parts`) under a *single* pool
  /// id, without first merging the pieces into one Snapshot. Pieces must be
  /// element-disjoint; each piece's edge attributes must reference edges of
  /// the same piece (shard routing co-locates an edge with its attributes).
  Result<PoolGraphId> OverlayHistoricalParts(const std::vector<Snapshot>& parts);

  /// Overlays a historical snapshot as `base` plus `diff` (the dependent-
  /// graph optimization): only elements in the diff are touched.
  /// `diff` must satisfy: base-graph-membership + diff = overlaid graph.
  Result<PoolGraphId> OverlayDependent(PoolGraphId base, const Delta& diff);

  /// Overlays a materialized DeltaGraph node (single bit).
  Result<PoolGraphId> OverlayMaterialized(const Snapshot& g);

  // -- Membership and access ----------------------------------------------------
  bool ContainsNode(PoolGraphId id, NodeId n) const;
  bool ContainsEdge(PoolGraphId id, EdgeId e) const;
  /// The value of an attribute in graph `id`, or nullptr.
  const std::string* GetNodeAttr(PoolGraphId id, NodeId n, const std::string& key) const;
  const std::string* GetEdgeAttr(PoolGraphId id, EdgeId e, const std::string& key) const;
  const EdgeRecord* FindEdge(EdgeId e) const;

  /// A filtered view of one pool graph (the paper's HistGraph).
  HistGraphView View(PoolGraphId id) const;

  /// Extracts a full standalone copy (testing / handoff).
  Snapshot ExtractSnapshot(PoolGraphId id) const;

  // -- Lifecycle ---------------------------------------------------------------
  /// Marks a graph as no longer needed. Cleanup happens lazily.
  Status Release(PoolGraphId id);

  /// Scans the pool, clearing bits of released graphs and evicting elements
  /// with empty bitmaps. Returns the number of elements evicted.
  size_t RunCleaner();

  // -- Introspection -------------------------------------------------------------
  /// One row of the GraphID-bit mapping table.
  struct SlotInfo {
    PoolGraphId id = -1;
    enum class Kind { kCurrent, kHistorical, kMaterialized } kind = Kind::kHistorical;
    bool active = false;
    int bit0 = -1;          ///< Kind-dependent (see class comment).
    int bit1 = -1;          ///< Historical graphs only.
    PoolGraphId dep = -1;   ///< Dependency, or -1.
  };
  const std::vector<SlotInfo>& slots() const { return slots_; }
  size_t ActiveGraphCount() const;

  size_t UnionNodeCount() const { return nodes_.size(); }
  size_t UnionEdgeCount() const { return edges_.size(); }

  /// All node ids present in the union graph, regardless of membership.
  std::vector<NodeId> UnionNodes() const {
    std::vector<NodeId> out;
    out.reserve(nodes_.size());
    for (const auto& [n, entry] : nodes_) out.push_back(n);
    return out;
  }

  /// Approximate total heap usage: union graph + all bitmaps. This backs the
  /// Figure 8(a) memory plot.
  size_t MemoryBytes() const;

  /// Incident edge ids of `n` in the union graph (callers filter by graph).
  const std::vector<EdgeId>* UnionIncidentEdges(NodeId n) const;

 private:
  friend class HistGraphView;

  /// One attribute value *variant* (Section 6: a graph holds at most one
  /// value per attribute; the pool holds every value any resident graph has,
  /// each with its own membership bitmap). Values are interned ids — the
  /// same id space Snapshots use, so overlaying never touches string bytes.
  struct AttrValue {
    AttrId value = kInvalidAttrId;
    DynamicBitset bm;
  };
  using PoolAttrs = std::unordered_map<AttrId, std::vector<AttrValue>>;

  struct NodeEntry {
    DynamicBitset bm;
    PoolAttrs attrs;
  };
  struct EdgeEntry {
    EdgeRecord rec;
    DynamicBitset bm;
    PoolAttrs attrs;
  };

  // Membership evaluation under the bit-pair/dependency scheme.
  bool MemberOf(const DynamicBitset& bm, PoolGraphId id) const;
  // Sets membership of an element in graph `id` (resolving the slot's bits).
  void SetMembership(DynamicBitset* bm, PoolGraphId id, bool member);

  int AllocateBit();
  PoolGraphId AllocateSlot(SlotInfo::Kind kind, int bits_needed, PoolGraphId dep);

  NodeEntry* EnsureNode(NodeId n);
  EdgeEntry* EnsureEdge(EdgeId e, const EdgeRecord& rec);
  /// Marks every element of `g` as a member of the (historical) slot `id`.
  void OverlayIntoSlot(PoolGraphId id, const Snapshot& g);
  void SetAttrValue(PoolAttrs* attrs, AttrId key, AttrId value, PoolGraphId id);
  /// The value id of `key` in graph `id`, or kInvalidAttrId.
  AttrId FindAttrValue(const PoolAttrs& attrs, AttrId key, PoolGraphId id) const;

  std::vector<SlotInfo> slots_;
  std::vector<int> free_bits_;
  int next_bit_ = 2;  // 0 and 1 are reserved for the current graph.

  std::unordered_map<NodeId, NodeEntry> nodes_;
  std::unordered_map<EdgeId, EdgeEntry> edges_;
  std::unordered_map<NodeId, std::vector<EdgeId>> adjacency_;
};

/// \brief A single graph's read view over the pool (the paper's HistGraph,
/// Section 3.2.1): traversal and attribute access filtered by the graph's
/// bitmap bits.
class HistGraphView {
 public:
  HistGraphView() = default;
  HistGraphView(const GraphPool* pool, PoolGraphId id) : pool_(pool), id_(id) {}

  bool HasNode(NodeId n) const { return pool_->ContainsNode(id_, n); }
  bool HasEdge(EdgeId e) const { return pool_->ContainsEdge(id_, e); }

  /// All node ids in this graph (paper: h.getNodes()).
  std::vector<NodeId> GetNodes() const;

  /// Neighbor node ids of `n` (paper: node.getNeighbors()); for directed
  /// edges both directions are reported (co-citation style traversal), like
  /// the union adjacency the paper overlays.
  std::vector<NodeId> GetNeighbors(NodeId n) const;

  /// Incident edge ids of `n` within this graph.
  std::vector<EdgeId> GetIncidentEdges(NodeId n) const;

  /// Out-neighbors only (directed edges respected; undirected count both ways).
  std::vector<NodeId> GetOutNeighbors(NodeId n) const;

  const EdgeRecord* GetEdgeRecord(EdgeId e) const {
    return HasEdge(e) ? pool_->FindEdge(e) : nullptr;
  }
  const std::string* GetNodeAttr(NodeId n, const std::string& key) const {
    return pool_->GetNodeAttr(id_, n, key);
  }
  const std::string* GetEdgeAttr(EdgeId e, const std::string& key) const {
    return pool_->GetEdgeAttr(id_, e, key);
  }

  size_t CountNodes() const;
  size_t CountEdges() const;

  PoolGraphId id() const { return id_; }
  const GraphPool* pool() const { return pool_; }

 private:
  const GraphPool* pool_ = nullptr;
  PoolGraphId id_ = -1;
};

}  // namespace hgdb

#endif  // HISTGRAPH_GRAPHPOOL_GRAPH_POOL_H_

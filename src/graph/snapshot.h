#ifndef HISTGRAPH_GRAPH_SNAPSHOT_H_
#define HISTGRAPH_GRAPH_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/chunked_store.h"
#include "common/cow.h"
#include "common/interner.h"
#include "common/status.h"
#include "common/types.h"
#include "graph/attr_map.h"
#include "temporal/event.h"

// The COW/TSan annotation helpers (CowAnnotateAcquire/Release and the
// HISTGRAPH_TSAN detection) live in common/cow.h — they are shared with the
// chunk-granular sharing layer in common/chunked_store.h.

namespace hgdb {

/// Endpoint and orientation payload of an edge. The edge id is kept outside.
struct EdgeRecord {
  NodeId src = kInvalidNodeId;
  NodeId dst = kInvalidNodeId;
  bool directed = false;

  bool operator==(const EdgeRecord& other) const {
    return src == other.src && dst == other.dst && directed == other.directed;
  }
};

/// \brief A graph as a set of *elements* — the unit the DeltaGraph's set
/// algebra operates on (Section 4.2).
///
/// Elements are: node existence `(id)`, edge existence `(id, src, dst,
/// directed)`, node attribute `(node, key, value)`, and edge attribute
/// `(edge, key, value)`. Differential functions (intersection, union, ...)
/// and deltas are defined element-wise over this representation. Both the
/// DeltaGraph and GraphPool "treat the network as a collection of objects and
/// do not exploit any properties of the graphical structure" — which is why
/// the same machinery would serve a temporal relational store.
///
/// Representation (see src/graph/README.md for the invariants):
///  - Attribute keys/values are interned AttrIds; the bytes live once in the
///    process-wide StringInterner. Value equality is id equality.
///  - The four element stores are *chunked* COW containers
///    (common/chunked_store.h) held through shared_ptr with two granularities
///    of sharing: copying a Snapshot is O(1) and shares whole stores; the
///    first mutation of a shared store clones only the store's spine (a table
///    of chunk pointers), sharing every chunk; and each element mutation then
///    copies just the one 128/256-id chunk it lands in. Snapshots emitted by
///    the same retrieval plan therefore share all chunks the plan did not
///    touch between emits, which is what makes multipoint retrieval's
///    marginal emit cost O(|delta|) instead of O(|graph|) — the sharing
///    discipline of the paper's follow-up system (Khurana & Deshpande, 2015)
///    applied in memory.
class Snapshot {
 public:
  using NodeSet = ChunkedIdSet<NodeId, 8>;              // 256-id bitmap chunks.
  using EdgeMap = ChunkedIdMap<EdgeId, EdgeRecord, 7>;  // 128-id chunks.
  using NodeAttrTable = ChunkedIdMap<NodeId, AttrMap, 7>;
  using EdgeAttrTable = ChunkedIdMap<EdgeId, AttrMap, 7>;

  Snapshot() = default;
  Snapshot(const Snapshot&) = default;  // O(1): shares all stores.
  Snapshot(Snapshot&&) = default;
#if defined(HISTGRAPH_TSAN)
  // Assignment and destruction drop store references; under TSan each drop
  // announces its reads so a later sole-owner writer can join them (see the
  // CowAnnotate* note above). Production keeps the defaulted members.
  Snapshot& operator=(const Snapshot& other) {
    if (this != &other) {
      AnnotateReleaseStores();
      nodes_ = other.nodes_;
      edges_ = other.edges_;
      node_attrs_ = other.node_attrs_;
      edge_attrs_ = other.edge_attrs_;
    }
    return *this;
  }
  Snapshot& operator=(Snapshot&& other) {
    if (this != &other) {
      AnnotateReleaseStores();
      nodes_ = std::move(other.nodes_);
      edges_ = std::move(other.edges_);
      node_attrs_ = std::move(other.node_attrs_);
      edge_attrs_ = std::move(other.edge_attrs_);
    }
    return *this;
  }
  ~Snapshot() { AnnotateReleaseStores(); }
#else
  Snapshot& operator=(const Snapshot&) = default;  // O(1): shares all stores.
  Snapshot& operator=(Snapshot&&) = default;
#endif

  // -- Structure ------------------------------------------------------------
  bool HasNode(NodeId n) const { return nodes_ && nodes_->contains(n); }
  bool HasEdge(EdgeId e) const { return edges_ && edges_->contains(e); }
  /// The record of edge `e`, or nullptr. Invalidated by any mutation of this
  /// snapshot's edge store (flat tables move elements on rehash/erase).
  const EdgeRecord* FindEdge(EdgeId e) const {
    return edges_ ? edges_->FindValue(e) : nullptr;
  }

  /// Adds a node; returns false if already present.
  bool AddNode(NodeId n) {
    if (SoleOwner(nodes_)) return nodes_->insert(n);  // Single probe.
    if (HasNode(n)) return false;  // No-op: don't break sharing.
    return MutableNodes()->insert(n);
  }
  /// Removes a node; returns false if absent. Does not touch attributes or
  /// incident edges — the event protocol guarantees they were removed first.
  bool RemoveNode(NodeId n) {
    if (SoleOwner(nodes_)) return nodes_->erase(n);
    if (!HasNode(n)) return false;
    return MutableNodes()->erase(n);
  }
  bool AddEdge(EdgeId e, const EdgeRecord& rec) {
    if (SoleOwner(edges_)) return edges_->emplace(e, rec).second;
    if (HasEdge(e)) return false;
    return MutableEdges()->emplace(e, rec).second;
  }
  bool RemoveEdge(EdgeId e) {
    if (SoleOwner(edges_)) return edges_->erase(e);
    if (!HasEdge(e)) return false;
    return MutableEdges()->erase(e);
  }

  // -- Attributes -----------------------------------------------------------
  /// Sets (inserting or overwriting) a node attribute.
  void SetNodeAttr(NodeId n, const std::string& key, const std::string& value) {
    SetNodeAttrId(n, InternAttr(key), InternAttr(value));
  }
  void RemoveNodeAttr(NodeId n, const std::string& key);
  const std::string* GetNodeAttr(NodeId n, const std::string& key) const;
  /// The attribute map of `n`, or nullptr. Invalidated by mutation (COW clone
  /// or rehash) — copy it if you mutate this snapshot while holding it.
  const AttrMap* GetNodeAttrs(NodeId n) const {
    return node_attrs_ ? node_attrs_->FindValue(n) : nullptr;
  }

  void SetEdgeAttr(EdgeId e, const std::string& key, const std::string& value) {
    SetEdgeAttrId(e, InternAttr(key), InternAttr(value));
  }
  void RemoveEdgeAttr(EdgeId e, const std::string& key);
  const std::string* GetEdgeAttr(EdgeId e, const std::string& key) const;
  const AttrMap* GetEdgeAttrs(EdgeId e) const {
    return edge_attrs_ ? edge_attrs_->FindValue(e) : nullptr;
  }

  // -- Interned-id attribute API (hot paths skip the string round-trip) ------
  void SetNodeAttrId(NodeId n, AttrId key, AttrId value);
  void SetEdgeAttrId(EdgeId e, AttrId key, AttrId value);
  bool RemoveNodeAttrId(NodeId n, AttrId key);
  bool RemoveEdgeAttrId(EdgeId e, AttrId key);
  /// Value id of the attribute, or kInvalidAttrId if absent.
  AttrId GetNodeAttrValueId(NodeId n, AttrId key) const {
    const AttrMap* attrs = GetNodeAttrs(n);
    return attrs == nullptr ? kInvalidAttrId : attrs->Get(key);
  }
  AttrId GetEdgeAttrValueId(EdgeId e, AttrId key) const {
    const AttrMap* attrs = GetEdgeAttrs(e);
    return attrs == nullptr ? kInvalidAttrId : attrs->Get(key);
  }

  // -- Event application ----------------------------------------------------
  /// Applies one event in the given direction (forward = evolving time).
  /// Only aspects selected by `components` are applied; transient events are
  /// always ignored (they are not part of any snapshot by definition).
  /// Returns InvalidArgument on inconsistent application (e.g. adding an edge
  /// whose endpoint is missing) — the ground-truth tests rely on this being
  /// strict.
  Status Apply(const Event& e, bool forward, unsigned components = kCompAll);

  /// Applies a span of events in order (or reverse order when !forward).
  Status ApplyAll(const std::vector<Event>& events, bool forward,
                  unsigned components = kCompAll);

  // -- Introspection --------------------------------------------------------
  const NodeSet& nodes() const { return nodes_ ? *nodes_ : EmptyNodes(); }
  const EdgeMap& edges() const { return edges_ ? *edges_ : EmptyEdges(); }
  const NodeAttrTable& node_attrs() const {
    return node_attrs_ ? *node_attrs_ : EmptyNodeAttrs();
  }
  const EdgeAttrTable& edge_attrs() const {
    return edge_attrs_ ? *edge_attrs_ : EmptyEdgeAttrs();
  }

  size_t NodeCount() const { return nodes_ ? nodes_->size() : 0; }
  size_t EdgeCount() const { return edges_ ? edges_->size() : 0; }
  size_t NodeAttrCount() const;
  size_t EdgeAttrCount() const;
  /// Total element count |G| used by the analytical models of Section 5.
  size_t ElementCount() const {
    return NodeCount() + EdgeCount() + NodeAttrCount() + EdgeAttrCount();
  }

  bool Empty() const { return NodeCount() == 0 && EdgeCount() == 0; }

  /// Element-wise equality (the correctness oracle of the test suite).
  /// Shared stores short-circuit by pointer identity.
  bool Equals(const Snapshot& other) const;

  /// Returns a copy containing only the selected components (e.g. structure
  /// without attributes, for structure-only retrieval from a full snapshot).
  /// O(1): the returned snapshot shares the selected stores.
  Snapshot CopyFiltered(unsigned components) const;

  /// The element-set intersection a ∩ b (the paper's Intersection
  /// differential function): nodes and edges present in both, and attribute
  /// triples present in both *with the same value*. Edge records come from
  /// `a`. Built chunk-wise (ChunkedIdSet/ChunkedIdMap::Intersect): the
  /// result shares every store and chunk of `a` or `b` it can, so its cost
  /// and its fresh memory are O(divergent chunks), not O(|a|).
  static Snapshot Intersect(const Snapshot& a, const Snapshot& b);

  /// Merges another snapshot whose ids are disjoint from this one (used to
  /// combine per-partition retrieval results). Steals the other's stores
  /// outright when this side is empty.
  void AbsorbDisjoint(Snapshot&& other);

  /// Returns a human-readable diff of up to `limit` differing elements
  /// (test-failure diagnostics).
  std::string DiffString(const Snapshot& other, size_t limit = 10) const;

  void Clear();

  /// Pre-sizes the structure tables for `nodes` / `edges` additional entries
  /// (bulk delta application avoids rehash churn this way).
  void ReserveAdditional(size_t nodes, size_t edges) {
    if (nodes > 0) MutableNodes()->reserve(NodeCount() + nodes);
    if (edges > 0) MutableEdges()->reserve(EdgeCount() + edges);
  }

  /// Approximate heap usage in bytes (memory-accounting benches). Counts each
  /// store this snapshot references, whether or not it is shared; interned
  /// string bytes are global and not included.
  size_t MemoryBytes() const;

  /// Enumerates the heap parts this snapshot references as
  /// `fn(const void* part, size_t bytes)` pairs. Parts shared between
  /// snapshots report identical pointers, so a caller can dedupe by pointer
  /// to compute *resident* bytes across a set of snapshots (as opposed to
  /// the per-copy sum MemoryBytes gives) and measure how much structure a
  /// group of emitted snapshots actually shares.
  void ForEachStorePart(
      const std::function<void(const void*, size_t)>& fn) const;

  // -- Copy-on-write introspection (tests / benches) -------------------------
  /// True if both snapshots reference the same store object for every
  /// component they hold (i.e. a copy that has not diverged).
  bool SharesAllStoresWith(const Snapshot& other) const {
    return nodes_ == other.nodes_ && edges_ == other.edges_ &&
           node_attrs_ == other.node_attrs_ && edge_attrs_ == other.edge_attrs_;
  }
  bool SharesNodeStoreWith(const Snapshot& other) const {
    return nodes_ == other.nodes_;
  }
  bool SharesEdgeStoreWith(const Snapshot& other) const {
    return edges_ == other.edges_;
  }
  bool SharesNodeAttrStoreWith(const Snapshot& other) const {
    return node_attrs_ == other.node_attrs_;
  }
  bool SharesEdgeAttrStoreWith(const Snapshot& other) const {
    return edge_attrs_ == other.edge_attrs_;
  }

 private:
  static const NodeSet& EmptyNodes();
  static const EdgeMap& EmptyEdges();
  static const NodeAttrTable& EmptyNodeAttrs();
  static const EdgeAttrTable& EmptyEdgeAttrs();

  // Copy-on-write gates: allocate on first write, clone on first write to a
  // shared store. All mutations funnel through these. Mutators first try the
  // SoleOwner fast path (uniquely-owned store: write straight through, one
  // probe); the shared path re-checks for no-ops before cloning so that
  // no-op writes never break sharing.
  //
  // The acquire fence is what lets snapshots that share stores be mutated
  // from different threads (the plan executor's fork model): use_count()
  // is a relaxed load, so observing 1 does not by itself synchronize with
  // the other thread's release-decrement of the refcount. The fence pairs
  // with that release, ordering the releasing thread's reads of the store
  // (its COW clone) before our in-place writes. Free on x86; one dmb on ARM.
  template <typename T>
  static bool SoleOwner(const std::shared_ptr<T>& store) {
    if (store == nullptr || store.use_count() != 1) return false;
    std::atomic_thread_fence(std::memory_order_acquire);
    CowAnnotateAcquire(store.get());
    return true;
  }
  template <typename T>
  static T* Mutable(std::shared_ptr<T>* store) {
    if (*store == nullptr) {
      *store = std::make_shared<T>();
    } else if (store->use_count() > 1) {
      auto fresh = std::make_shared<T>(**store);
      CowAnnotateRelease(store->get());  // Our clone read the shared block.
      *store = std::move(fresh);
    } else {
      std::atomic_thread_fence(std::memory_order_acquire);  // See SoleOwner.
      CowAnnotateAcquire(store->get());
    }
    return store->get();
  }
  NodeSet* MutableNodes() { return Mutable(&nodes_); }
  EdgeMap* MutableEdges() { return Mutable(&edges_); }
  NodeAttrTable* MutableNodeAttrs() { return Mutable(&node_attrs_); }
  EdgeAttrTable* MutableEdgeAttrs() { return Mutable(&edge_attrs_); }

  /// Announces (for TSan) that this snapshot is done reading all stores it
  /// references; no-op in production builds.
  void AnnotateReleaseStores() const {
    CowAnnotateRelease(nodes_.get());
    CowAnnotateRelease(edges_.get());
    CowAnnotateRelease(node_attrs_.get());
    CowAnnotateRelease(edge_attrs_.get());
  }

  std::shared_ptr<NodeSet> nodes_;
  std::shared_ptr<EdgeMap> edges_;
  std::shared_ptr<NodeAttrTable> node_attrs_;
  std::shared_ptr<EdgeAttrTable> edge_attrs_;
};

}  // namespace hgdb

#endif  // HISTGRAPH_GRAPH_SNAPSHOT_H_

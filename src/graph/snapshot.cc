#include "graph/snapshot.h"

#include <sstream>
#include <type_traits>

namespace hgdb {

const Snapshot::NodeSet& Snapshot::EmptyNodes() {
  static const NodeSet* empty = new NodeSet();
  return *empty;
}
const Snapshot::EdgeMap& Snapshot::EmptyEdges() {
  static const EdgeMap* empty = new EdgeMap();
  return *empty;
}
const Snapshot::NodeAttrTable& Snapshot::EmptyNodeAttrs() {
  static const NodeAttrTable* empty = new NodeAttrTable();
  return *empty;
}
const Snapshot::EdgeAttrTable& Snapshot::EmptyEdgeAttrs() {
  static const EdgeAttrTable* empty = new EdgeAttrTable();
  return *empty;
}

void Snapshot::SetNodeAttrId(NodeId n, AttrId key, AttrId value) {
  // Skip the write when it would be a no-op (common during idempotent
  // replays and union-style combines): on a shared store it would clone the
  // store's spine, and even on a solely-owned store it would deep-copy the
  // 128-slot attr chunk the owner lives in if that chunk is still shared
  // with an emitted sibling.
  if (GetNodeAttrValueId(n, key) == value) return;
  if (SoleOwner(node_attrs_)) {
    (*node_attrs_)[n].Set(key, value);
    return;
  }
  (*MutableNodeAttrs())[n].Set(key, value);
}

void Snapshot::SetEdgeAttrId(EdgeId e, AttrId key, AttrId value) {
  if (GetEdgeAttrValueId(e, key) == value) return;
  if (SoleOwner(edge_attrs_)) {
    (*edge_attrs_)[e].Set(key, value);
    return;
  }
  (*MutableEdgeAttrs())[e].Set(key, value);
}

bool Snapshot::RemoveNodeAttrId(NodeId n, AttrId key) {
  // Probe read-only first: a no-op removal must not clone a store *or* a
  // chunk. Only then take ownership of the one chunk the map lives in.
  const AttrMap* attrs = GetNodeAttrs(n);
  if (attrs == nullptr || !attrs->Contains(key)) return false;
  NodeAttrTable* table =
      SoleOwner(node_attrs_) ? node_attrs_.get() : MutableNodeAttrs();
  AttrMap* mine = table->MutableValue(n);
  mine->Erase(key);
  if (mine->empty()) table->erase(n);
  return true;
}

bool Snapshot::RemoveEdgeAttrId(EdgeId e, AttrId key) {
  const AttrMap* attrs = GetEdgeAttrs(e);
  if (attrs == nullptr || !attrs->Contains(key)) return false;
  EdgeAttrTable* table =
      SoleOwner(edge_attrs_) ? edge_attrs_.get() : MutableEdgeAttrs();
  AttrMap* mine = table->MutableValue(e);
  mine->Erase(key);
  if (mine->empty()) table->erase(e);
  return true;
}

void Snapshot::RemoveNodeAttr(NodeId n, const std::string& key) {
  const AttrId kid = StringInterner::Global().Find(key);
  if (kid == kInvalidAttrId) return;
  RemoveNodeAttrId(n, kid);
}

const std::string* Snapshot::GetNodeAttr(NodeId n, const std::string& key) const {
  const AttrId kid = StringInterner::Global().Find(key);
  if (kid == kInvalidAttrId) return nullptr;
  const AttrId vid = GetNodeAttrValueId(n, kid);
  return vid == kInvalidAttrId ? nullptr : &AttrStr(vid);
}

void Snapshot::RemoveEdgeAttr(EdgeId e, const std::string& key) {
  const AttrId kid = StringInterner::Global().Find(key);
  if (kid == kInvalidAttrId) return;
  RemoveEdgeAttrId(e, kid);
}

const std::string* Snapshot::GetEdgeAttr(EdgeId e, const std::string& key) const {
  const AttrId kid = StringInterner::Global().Find(key);
  if (kid == kInvalidAttrId) return nullptr;
  const AttrId vid = GetEdgeAttrValueId(e, kid);
  return vid == kInvalidAttrId ? nullptr : &AttrStr(vid);
}

namespace {

Status Inconsistent(const Event& e, const char* what) {
  return Status::InvalidArgument(std::string("inconsistent event application (") + what +
                                 "): " + e.ToString());
}

}  // namespace

Status Snapshot::Apply(const Event& e, bool forward, unsigned components) {
  if (e.is_transient()) return Status::OK();
  if ((e.component() & components) == 0) return Status::OK();

  // An event applied backward behaves exactly like its mirror event applied
  // forward: adds become deletes and attribute old/new swap roles.
  switch (e.type) {
    case EventType::kAddNode:
    case EventType::kDeleteNode: {
      const bool add = (e.type == EventType::kAddNode) == forward;
      if (add) {
        if (!AddNode(e.node)) return Inconsistent(e, "node already present");
      } else {
        if (GetNodeAttrs(e.node) != nullptr) {
          return Inconsistent(e, "deleting node that still has attributes");
        }
        if (!RemoveNode(e.node)) return Inconsistent(e, "node absent");
      }
      return Status::OK();
    }
    case EventType::kAddEdge:
    case EventType::kDeleteEdge: {
      const bool add = (e.type == EventType::kAddEdge) == forward;
      if (add) {
        // Endpoint checks only make sense when structure is being tracked,
        // which it is here (struct component gate above).
        if (!AddEdge(e.edge, EdgeRecord{e.src, e.dst, e.directed})) {
          return Inconsistent(e, "edge already present");
        }
      } else {
        if (GetEdgeAttrs(e.edge) != nullptr) {
          return Inconsistent(e, "deleting edge that still has attributes");
        }
        if (!RemoveEdge(e.edge)) return Inconsistent(e, "edge absent");
      }
      return Status::OK();
    }
    case EventType::kNodeAttr: {
      const auto& before = forward ? e.old_value : e.new_value;
      const auto& after = forward ? e.new_value : e.old_value;
      const AttrId kid = InternAttr(e.key);
      const AttrId current = GetNodeAttrValueId(e.node, kid);
      if (before.has_value()) {
        if (current == kInvalidAttrId || AttrStr(current) != *before) {
          return Inconsistent(e, "node attr old value mismatch");
        }
      } else if (current != kInvalidAttrId) {
        return Inconsistent(e, "node attr unexpectedly present");
      }
      if (after.has_value()) {
        SetNodeAttrId(e.node, kid, InternAttr(*after));
      } else {
        RemoveNodeAttrId(e.node, kid);
      }
      return Status::OK();
    }
    case EventType::kEdgeAttr: {
      const auto& before = forward ? e.old_value : e.new_value;
      const auto& after = forward ? e.new_value : e.old_value;
      const AttrId kid = InternAttr(e.key);
      const AttrId current = GetEdgeAttrValueId(e.edge, kid);
      if (before.has_value()) {
        if (current == kInvalidAttrId || AttrStr(current) != *before) {
          return Inconsistent(e, "edge attr old value mismatch");
        }
      } else if (current != kInvalidAttrId) {
        return Inconsistent(e, "edge attr unexpectedly present");
      }
      if (after.has_value()) {
        SetEdgeAttrId(e.edge, kid, InternAttr(*after));
      } else {
        RemoveEdgeAttrId(e.edge, kid);
      }
      return Status::OK();
    }
    case EventType::kTransientEdge:
    case EventType::kTransientNode:
      return Status::OK();
  }
  return Status::OK();
}

Status Snapshot::ApplyAll(const std::vector<Event>& events, bool forward,
                          unsigned components) {
  if (forward) {
    for (const auto& e : events) HG_RETURN_NOT_OK(Apply(e, true, components));
  } else {
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
      HG_RETURN_NOT_OK(Apply(*it, false, components));
    }
  }
  return Status::OK();
}

size_t Snapshot::NodeAttrCount() const {
  size_t n = 0;
  for (const auto& [id, attrs] : node_attrs()) n += attrs.size();
  return n;
}

size_t Snapshot::EdgeAttrCount() const {
  size_t n = 0;
  for (const auto& [id, attrs] : edge_attrs()) n += attrs.size();
  return n;
}

bool Snapshot::Equals(const Snapshot& other) const {
  const bool nodes_eq = nodes_ == other.nodes_ || nodes() == other.nodes();
  if (!nodes_eq) return false;
  const bool edges_eq = edges_ == other.edges_ || edges() == other.edges();
  if (!edges_eq) return false;
  const bool nattrs_eq =
      node_attrs_ == other.node_attrs_ || node_attrs() == other.node_attrs();
  if (!nattrs_eq) return false;
  return edge_attrs_ == other.edge_attrs_ || edge_attrs() == other.edge_attrs();
}

std::string Snapshot::DiffString(const Snapshot& other, size_t limit) const {
  std::ostringstream os;
  size_t shown = 0;
  auto note = [&](const std::string& s) {
    if (shown < limit) os << s << "\n";
    ++shown;
  };
  for (NodeId n : nodes()) {
    if (!other.HasNode(n)) note("node " + std::to_string(n) + " only in lhs");
  }
  for (NodeId n : other.nodes()) {
    if (!HasNode(n)) note("node " + std::to_string(n) + " only in rhs");
  }
  for (const auto& [id, rec] : edges()) {
    auto* o = other.FindEdge(id);
    if (o == nullptr) {
      note("edge " + std::to_string(id) + " only in lhs");
    } else if (!(rec == *o)) {
      note("edge " + std::to_string(id) + " differs");
    }
  }
  for (const auto& [id, rec] : other.edges()) {
    if (!HasEdge(id)) note("edge " + std::to_string(id) + " only in rhs");
  }
  for (const auto& [id, attrs] : node_attrs()) {
    for (const auto& [k, v] : attrs) {
      const AttrId o = other.GetNodeAttrValueId(id, k);
      if (o == kInvalidAttrId) {
        note("nattr (" + std::to_string(id) + "," + AttrStr(k) + ") only in lhs");
      } else if (o != v) {
        note("nattr (" + std::to_string(id) + "," + AttrStr(k) + ") value differs");
      }
    }
  }
  for (const auto& [id, attrs] : other.node_attrs()) {
    for (const auto& [k, v] : attrs) {
      if (GetNodeAttrValueId(id, k) == kInvalidAttrId) {
        note("nattr (" + std::to_string(id) + "," + AttrStr(k) + ") only in rhs");
      }
    }
  }
  for (const auto& [id, attrs] : edge_attrs()) {
    for (const auto& [k, v] : attrs) {
      const AttrId o = other.GetEdgeAttrValueId(id, k);
      if (o == kInvalidAttrId) {
        note("eattr (" + std::to_string(id) + "," + AttrStr(k) + ") only in lhs");
      } else if (o != v) {
        note("eattr (" + std::to_string(id) + "," + AttrStr(k) + ") value differs");
      }
    }
  }
  for (const auto& [id, attrs] : other.edge_attrs()) {
    for (const auto& [k, v] : attrs) {
      if (GetEdgeAttrValueId(id, k) == kInvalidAttrId) {
        note("eattr (" + std::to_string(id) + "," + AttrStr(k) + ") only in rhs");
      }
    }
  }
  if (shown > limit) {
    os << "... and " << (shown - limit) << " more differences\n";
  }
  return os.str();
}

Snapshot Snapshot::CopyFiltered(unsigned components) const {
  Snapshot out;
  if (components & kCompStruct) {
    out.nodes_ = nodes_;
    out.edges_ = edges_;
  }
  if (components & kCompNodeAttr) out.node_attrs_ = node_attrs_;
  if (components & kCompEdgeAttr) out.edge_attrs_ = edge_attrs_;
  return out;
}

Snapshot Snapshot::Intersect(const Snapshot& a, const Snapshot& b) {
  // Per store: a missing or empty side leaves the result's store null, a
  // store shared by pointer is shared whole, and anything else meets
  // chunk-wise.
  auto meet_store = [](const auto& x, const auto& y, auto* out, auto kernel) {
    if (x == nullptr || y == nullptr || x->empty() || y->empty()) return;
    if (x == y) {
      *out = x;
      return;
    }
    auto meet = kernel(*x, *y);
    if (meet.empty()) return;
    *out = std::make_shared<std::decay_t<decltype(meet)>>(std::move(meet));
  };
  // Ids are never reused, so records under one edge id agree; `a`'s wins.
  const auto edge_meet = [](const EdgeRecord& x, const EdgeRecord&, EdgeRecord* out) {
    *out = x;
    return true;
  };
  // Attribute triples are value-sensitive: keep (key, value) only when both
  // sides hold that value.
  const auto attr_meet = [](const AttrMap& x, const AttrMap& y, AttrMap* out) {
    *out = AttrMap();
    for (const auto& [k, v] : x) {
      if (y.Get(k) == v) out->Set(k, v);
    }
    return !out->empty();
  };
  Snapshot out;
  meet_store(a.nodes_, b.nodes_, &out.nodes_,
             [](const NodeSet& x, const NodeSet& y) { return NodeSet::Intersect(x, y); });
  meet_store(a.edges_, b.edges_, &out.edges_, [&](const EdgeMap& x, const EdgeMap& y) {
    return EdgeMap::Intersect(x, y, edge_meet);
  });
  meet_store(a.node_attrs_, b.node_attrs_, &out.node_attrs_,
             [&](const NodeAttrTable& x, const NodeAttrTable& y) {
               return NodeAttrTable::Intersect(x, y, attr_meet);
             });
  meet_store(a.edge_attrs_, b.edge_attrs_, &out.edge_attrs_,
             [&](const EdgeAttrTable& x, const EdgeAttrTable& y) {
               return EdgeAttrTable::Intersect(x, y, attr_meet);
             });
  return out;
}

void Snapshot::AbsorbDisjoint(Snapshot&& other) {
  // Per store: steal the whole store when this side is empty; otherwise
  // merge chunk-wise — id ranges only one side occupies adopt the other
  // side's chunk pointer outright (O(1), shared), colliding ranges merge
  // element-wise. Values move (instead of copy) only out of chunks `other`
  // solely owns; a COW sibling (another emit of the same plan, a
  // materialized snapshot) may still be reading shared chunks, and chunk
  // adoption only ever copies pointers, never mutates in place.
  auto absorb = [](auto* mine, auto&& theirs, auto&& make_mutable) {
    if (theirs == nullptr || theirs->empty()) return;
    if (*mine == nullptr || (*mine)->empty()) {
      CowAnnotateRelease(mine->get());  // Dropping our (empty) reference.
      *mine = std::move(theirs);
      return;
    }
    auto* m = make_mutable();
    if (theirs.use_count() == 1) {
      m->MergeDisjointMove(std::move(*theirs));
    } else {
      m->MergeDisjointCopy(*theirs);
    }
  };
  absorb(&nodes_, std::move(other.nodes_), [&] { return MutableNodes(); });
  absorb(&edges_, std::move(other.edges_), [&] { return MutableEdges(); });
  absorb(&node_attrs_, std::move(other.node_attrs_),
         [&] { return MutableNodeAttrs(); });
  absorb(&edge_attrs_, std::move(other.edge_attrs_),
         [&] { return MutableEdgeAttrs(); });
}

void Snapshot::Clear() {
  AnnotateReleaseStores();
  nodes_.reset();
  edges_.reset();
  node_attrs_.reset();
  edge_attrs_.reset();
}

void Snapshot::ForEachStorePart(
    const std::function<void(const void*, size_t)>& fn) const {
  const auto no_heap = [](const EdgeRecord&) { return size_t{0}; };
  const auto attr_heap = [](const AttrMap& attrs) { return attrs.MemoryBytes(); };
  if (nodes_) nodes_->ForEachPart(fn);
  if (edges_) edges_->ForEachPart(fn, no_heap);
  if (node_attrs_) node_attrs_->ForEachPart(fn, attr_heap);
  if (edge_attrs_) edge_attrs_->ForEachPart(fn, attr_heap);
}

size_t Snapshot::MemoryBytes() const {
  size_t bytes = 0;
  ForEachStorePart([&bytes](const void*, size_t part_bytes) { bytes += part_bytes; });
  return bytes;
}

}  // namespace hgdb

#include "auxiliary/aux_index_base.h"

#include <algorithm>
#include <iterator>

namespace hgdb {

Status AuxIndexBase::BuildOnEvent(const Event& e, const Snapshot& graph_after) {
  std::vector<AuxEvent> aux_events = CreateAuxEvents(e, graph_after);
  for (auto& ae : aux_events) {
    if (ae.add) {
      current_.Add(ae.key, ae.value);
    } else {
      current_.Remove(ae.key, ae.value);
    }
    recent_.push_back(std::move(ae));
  }
  return Status::OK();
}

Status AuxIndexBase::BuildOnLeaf(int32_t leaf_id, int32_t prev_leaf_id,
                                 int32_t eventlist_edge_id, Timestamp boundary_time) {
  (void)prev_leaf_id;
  // Aux events past the boundary belong to the next leaf: they stay recent,
  // and the leaf's snapshot is the running one with them undone.
  const auto later =
      std::find_if(recent_.begin(), recent_.end(),
                   [&](const AuxEvent& ae) { return ae.time > boundary_time; });
  std::vector<AuxEvent> held(std::make_move_iterator(later),
                             std::make_move_iterator(recent_.end()));
  recent_.erase(later, recent_.end());
  AuxSnapshot at_leaf = current_;
  HG_RETURN_NOT_OK(ApplyAuxEvents(held, /*forward=*/false, kMinTimestamp,
                                  kMaxTimestamp, &at_leaf));
  pending_[leaf_id] = std::move(at_leaf);
  if (eventlist_edge_id >= 0) {
    std::string blob;
    EncodeAuxEvents(recent_, &blob);
    HG_RETURN_NOT_OK(store_->Put(EdgeKey(eventlist_edge_id), blob));
  }
  recent_ = std::move(held);
  return Status::OK();
}

Status AuxIndexBase::BuildOnParent(int32_t parent_id,
                                   const std::vector<int32_t>& children,
                                   const std::vector<int32_t>& delta_edge_ids) {
  std::vector<const AuxSnapshot*> child_snaps;
  child_snaps.reserve(children.size());
  for (int32_t c : children) {
    auto it = pending_.find(c);
    if (it == pending_.end()) {
      return Status::Internal("aux index: missing pending snapshot for node " +
                              std::to_string(c));
    }
    child_snaps.push_back(&it->second);
  }
  AuxSnapshot parent = AuxDF(child_snaps);
  for (size_t i = 0; i < children.size(); ++i) {
    AuxDelta d = AuxDelta::Between(pending_[children[i]], parent);
    std::string blob;
    d.EncodeTo(&blob);
    HG_RETURN_NOT_OK(store_->Put(EdgeKey(delta_edge_ids[i]), blob));
  }
  for (int32_t c : children) pending_.erase(c);
  pending_[parent_id] = std::move(parent);
  return Status::OK();
}

Status AuxIndexBase::BuildOnSuperRootEdge(int32_t edge_id, int32_t node_id) {
  auto it = pending_.find(node_id);
  if (it == pending_.end()) {
    return Status::Internal("aux index: missing pending snapshot for root " +
                            std::to_string(node_id));
  }
  static const AuxSnapshot kEmpty;
  AuxDelta d = AuxDelta::Between(it->second, kEmpty);
  std::string blob;
  d.EncodeTo(&blob);
  HG_RETURN_NOT_OK(store_->Put(EdgeKey(edge_id), blob));
  pending_.erase(it);
  return Status::OK();
}

Status AuxIndexBase::ApplyDeltaEdge(AuxState* state, int32_t edge_id,
                                    bool forward) const {
  auto* s = static_cast<AuxSnapshotState*>(state);
  std::string blob;
  HG_RETURN_NOT_OK(store_->Get(EdgeKey(edge_id), &blob));
  AuxDelta d;
  HG_RETURN_NOT_OK(AuxDelta::DecodeFrom(blob, &d));
  return d.ApplyTo(&s->snapshot, forward);
}

Status AuxIndexBase::ApplyEventRange(AuxState* state, int32_t edge_id, bool forward,
                                     Timestamp lo, Timestamp hi) const {
  auto* s = static_cast<AuxSnapshotState*>(state);
  std::string blob;
  Status st = store_->Get(EdgeKey(edge_id), &blob);
  if (st.IsNotFound()) return Status::OK();  // No aux events on this edge.
  HG_RETURN_NOT_OK(st);
  std::vector<AuxEvent> events;
  HG_RETURN_NOT_OK(DecodeAuxEvents(blob, &events));
  return ApplyAuxEvents(events, forward, lo, hi, &s->snapshot);
}

Status AuxIndexBase::ApplyRecentRange(AuxState* state, bool forward, Timestamp lo,
                                      Timestamp hi) const {
  auto* s = static_cast<AuxSnapshotState*>(state);
  return ApplyAuxEvents(recent_, forward, lo, hi, &s->snapshot);
}

}  // namespace hgdb

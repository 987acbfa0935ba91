#ifndef HISTGRAPH_AUXILIARY_AUX_INDEX_BASE_H_
#define HISTGRAPH_AUXILIARY_AUX_INDEX_BASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "auxiliary/aux_snapshot.h"
#include "deltagraph/aux_hook.h"
#include "kvstore/kv_store.h"

namespace hgdb {

/// Query-time auxiliary state: just an AuxSnapshot under reconstruction.
class AuxSnapshotState final : public AuxState {
 public:
  AuxSnapshot snapshot;
};

/// \brief Generic implementation of the DeltaGraph auxiliary hook
/// (Section 4.7's AuxIndex abstract class).
///
/// Subclasses only implement the *semantics*: CreateAuxEvents — "generates an
/// AuxiliaryEvent corresponding to a plain Event, based upon the current
/// Graph and the latest Auxiliary Snapshot" — and optionally a different
/// differential function (AuxDF; the default is intersection). This base
/// class does the rest of what the paper's HistoryManager automates: it
/// mirrors the skeleton's leaves and interior nodes with auxiliary
/// snapshots, persists aux eventlists / aux deltas keyed by skeleton edge
/// id, and replays them along retrieval plans.
class AuxIndexBase : public AuxIndexHook {
 public:
  /// `store` holds the aux blobs under "aux/<name>/..."; it may be the same
  /// store as the main index and must outlive the hook.
  AuxIndexBase(std::string name, KVStore* store)
      : name_(std::move(name)), store_(store) {}

  const std::string& name() const override { return name_; }

  // -- Semantics supplied by subclasses -----------------------------------------
  /// Translates one plain event into auxiliary events (may be none or many).
  virtual std::vector<AuxEvent> CreateAuxEvents(const Event& e,
                                                const Snapshot& graph_after) = 0;

  /// The auxiliary differential function (default: intersection — a pair is
  /// at an interior node iff it is in all children).
  virtual AuxSnapshot AuxDF(const std::vector<const AuxSnapshot*>& children) const {
    return AuxIntersect(children);
  }

  // -- Build-time callbacks (wired by the DeltaGraph) ----------------------------
  Status BuildOnEvent(const Event& e, const Snapshot& graph_after) override;
  Status BuildOnLeaf(int32_t leaf_id, int32_t prev_leaf_id, int32_t eventlist_edge_id,
                     Timestamp boundary_time) override;
  Status BuildOnParent(int32_t parent_id, const std::vector<int32_t>& children,
                       const std::vector<int32_t>& delta_edge_ids) override;
  Status BuildOnSuperRootEdge(int32_t edge_id, int32_t node_id) override;

  // -- Query-time callbacks -------------------------------------------------------
  std::unique_ptr<AuxState> NewState() const override {
    return std::make_unique<AuxSnapshotState>();
  }
  Status ApplyDeltaEdge(AuxState* state, int32_t edge_id, bool forward) const override;
  Status ApplyEventRange(AuxState* state, int32_t edge_id, bool forward, Timestamp lo,
                         Timestamp hi) const override;
  Status ApplyRecentRange(AuxState* state, bool forward, Timestamp lo,
                          Timestamp hi) const override;

  /// The live auxiliary snapshot (tracks the current graph).
  const AuxSnapshot& current() const { return current_; }

 protected:
  std::string EdgeKey(int32_t edge_id) const {
    return "aux/" + name_ + "/e/" + std::to_string(edge_id);
  }

  std::string name_;
  KVStore* store_;
  AuxSnapshot current_;
  std::vector<AuxEvent> recent_;  ///< Aux events since the last leaf cut.
  std::map<int32_t, AuxSnapshot> pending_;  ///< Un-parented skeleton nodes.
};

}  // namespace hgdb

#endif  // HISTGRAPH_AUXILIARY_AUX_INDEX_BASE_H_

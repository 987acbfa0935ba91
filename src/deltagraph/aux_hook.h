#ifndef HISTGRAPH_DELTAGRAPH_AUX_HOOK_H_
#define HISTGRAPH_DELTAGRAPH_AUX_HOOK_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "graph/snapshot.h"
#include "temporal/event.h"

namespace hgdb {

/// Opaque per-query state of an auxiliary index (e.g. the reconstructed
/// auxiliary snapshot). Created by AuxIndexHook::NewState and threaded through
/// plan execution.
class AuxState {
 public:
  virtual ~AuxState() = default;
};

/// \brief Extensibility hook wiring an auxiliary index into the DeltaGraph
/// (Section 4.7).
///
/// The DeltaGraph calls the Build* methods while constructing or updating the
/// index so the auxiliary information is "automatically indexed along with
/// the original graph data": the hook maintains its own auxiliary snapshots
/// mirroring the skeleton's nodes and persists auxiliary deltas keyed by the
/// skeleton's edge ids. At query time the planner's chosen path is replayed
/// through Apply* to reconstruct the auxiliary snapshot as of any time point.
class AuxIndexHook {
 public:
  virtual ~AuxIndexHook() = default;

  virtual const std::string& name() const = 0;

  // -- Build-time callbacks ---------------------------------------------------
  /// Called when the index is seeded with a non-empty initial graph G0
  /// (DeltaGraph::SetInitialSnapshot). The hook must rebuild its auxiliary
  /// state from scratch. The default refuses, so hooks that do not support
  /// bootstrapping fail loudly instead of silently indexing garbage.
  virtual Status BuildOnInitialSnapshot(const Snapshot& g0) {
    (void)g0;
    return Status::NotSupported(name() +
                                ": auxiliary index cannot bootstrap from an "
                                "initial snapshot");
  }

  /// Called for every event, in chronological order, after the event has been
  /// applied to `graph_after` (the current graph). The hook derives its
  /// auxiliary event (CreateAuxEvent) and updates its running aux snapshot.
  virtual Status BuildOnEvent(const Event& e, const Snapshot& graph_after) = 0;

  /// Called when a leaf is cut at `boundary_time`: the hook must snapshot its
  /// auxiliary state as of that time as the leaf's aux snapshot and persist
  /// the auxiliary eventlist for `eventlist_edge_id` (the edge from
  /// `prev_leaf_id` to `leaf_id`; -1 for the first leaf). Events already
  /// seen may be newer than the boundary: Finalize holds a trailing
  /// equal-time run back for the next leaf.
  virtual Status BuildOnLeaf(int32_t leaf_id, int32_t prev_leaf_id,
                             int32_t eventlist_edge_id, Timestamp boundary_time) = 0;

  /// Called when an interior node is formed from `children`. The hook applies
  /// its differential function (AuxDF) over the children's aux snapshots and
  /// persists one aux delta per `delta_edge_ids[i]` (parent -> children[i]).
  virtual Status BuildOnParent(int32_t parent_id,
                               const std::vector<int32_t>& children,
                               const std::vector<int32_t>& delta_edge_ids) = 0;

  /// Called when `node_id` is attached to the super-root by `edge_id`; the
  /// hook persists the full aux snapshot of that node as the edge's delta.
  virtual Status BuildOnSuperRootEdge(int32_t edge_id, int32_t node_id) = 0;

  // -- Query-time callbacks ---------------------------------------------------
  /// Fresh (empty, super-root) auxiliary state.
  virtual std::unique_ptr<AuxState> NewState() const = 0;

  /// Applies the aux delta stored for skeleton edge `edge_id`.
  virtual Status ApplyDeltaEdge(AuxState* state, int32_t edge_id, bool forward) const = 0;

  /// Applies the aux events stored for eventlist edge `edge_id` restricted to
  /// times in (lo, hi].
  virtual Status ApplyEventRange(AuxState* state, int32_t edge_id, bool forward,
                                 Timestamp lo, Timestamp hi) const = 0;

  /// Applies the hook's buffered *recent* aux events (those not yet folded
  /// into the index) restricted to times in (lo, hi].
  virtual Status ApplyRecentRange(AuxState* state, bool forward, Timestamp lo,
                                  Timestamp hi) const = 0;
};

}  // namespace hgdb

#endif  // HISTGRAPH_DELTAGRAPH_AUX_HOOK_H_

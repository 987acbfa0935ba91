#ifndef HISTGRAPH_TESTS_FINALIZE_ROUNDS_H_
#define HISTGRAPH_TESTS_FINALIZE_ROUNDS_H_

// Repeated-Finalize workloads for the suites that check unattached roots.
// Finalize gives a later root a super-root delta only when the leaf
// eventlists cut since its hierarchy's last attached root hold more events
// than the root has elements; every other window is reached through those
// eventlists alone. These helpers append a log in rounds, each ending in
// Finalize, and record which rounds' roots were attached.

#include <gtest/gtest.h>

#include <vector>

#include "deltagraph/delta_graph.h"
#include "temporal/event.h"

namespace hgdb {
namespace test {

/// Live delta edges out of the super-root (one per attached root).
inline size_t SuperRootEdges(const Skeleton& skel) {
  size_t count = 0;
  for (int32_t eid : skel.incident_edges(skel.super_root())) {
    const SkeletonEdge& e = skel.edge(eid);
    if (!e.deleted && e.from == skel.super_root()) ++count;
  }
  return count;
}

/// The leaves one Finalize sealed, as positions in Skeleton::leaves():
/// [begin, end). A time t in the window has
/// boundary(leaves[begin - 1]) < t <= boundary(leaves[end - 1]).
struct FinalizeWindow {
  size_t begin = 0;
  size_t end = 0;
  bool attached = false;  ///< This Finalize added a super-root edge.
  /// Position of the last leaf sealed by the latest attaching Finalize
  /// before this one: the chain an unattached window hangs from.
  size_t chain_start = 0;
};

/// Appends events[0, cuts.back()) to a single-hierarchy `dg`, calling
/// Finalize once events[0, cuts[i]) are in. Returns one window per Finalize
/// that sealed at least one leaf.
inline std::vector<FinalizeWindow> AppendInFinalizedRounds(
    DeltaGraph* dg, const std::vector<Event>& events, const std::vector<size_t>& cuts) {
  std::vector<FinalizeWindow> windows;
  size_t next = 0;
  size_t chain_start = 0;
  for (size_t cut : cuts) {
    // Leaves cut by the appends belong to this round's window too.
    const size_t leaves_before = dg->skeleton().leaves().size();
    const size_t edges_before = SuperRootEdges(dg->skeleton());
    for (; next < cut; ++next) EXPECT_TRUE(dg->Append(events[next]).ok());
    EXPECT_TRUE(dg->Finalize().ok());
    FinalizeWindow w;
    w.begin = leaves_before;
    w.end = dg->skeleton().leaves().size();
    if (w.begin == w.end) continue;
    w.attached = SuperRootEdges(dg->skeleton()) > edges_before;
    w.chain_start = chain_start;
    if (w.attached) chain_start = w.end - 1;
    windows.push_back(w);
  }
  return windows;
}

/// Times inside window `w` (which must not be the first one): its first and
/// last boundary, the midpoint between them, and a time just past the start.
inline std::vector<Timestamp> TimesInWindow(const Skeleton& skel, const FinalizeWindow& w) {
  const Timestamp lo = skel.node(skel.leaves()[w.begin - 1]).boundary_time;
  const Timestamp hi = skel.node(skel.leaves()[w.end - 1]).boundary_time;
  return {lo + 1, lo + (hi - lo) / 2, skel.node(skel.leaves()[w.begin]).boundary_time, hi};
}

}  // namespace test
}  // namespace hgdb

#endif  // HISTGRAPH_TESTS_FINALIZE_ROUNDS_H_

// Seeded input generation and the naive-replay oracle of the benchmark.
//
// The benchmark owns its inputs: every event log is generated here from the
// run's seed, with no call into the library's own workload generators, so a
// change to the program can never change what the benchmark feeds it.
//
// The oracle is a naive replay of the generated log. Every answer the
// benchmark checks is reduced to an order-independent fingerprint (a sum of
// per-element hashes plus element counts); the same fingerprint is kept for
// every prefix of the log by replaying it event by event. An answer that
// claims to reflect the first `c` events at time `t` must equal the prefix
// of length min(c, events with time <= t).
#ifndef PERFBENCH_BENCH_LOG_H_
#define PERFBENCH_BENCH_LOG_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/snapshot.h"
#include "graphpool/graph_pool.h"
#include "temporal/event.h"

namespace perfbench {

using hgdb::EdgeId;
using hgdb::Event;
using hgdb::NodeId;
using hgdb::Timestamp;

/// Node attribute keys the generators use; the fingerprint reads exactly
/// these through the string API and checks the total attribute count.
inline const std::vector<std::string>& AttrKeys() {
  static const std::vector<std::string> keys = {"name", "score", "group"};
  return keys;
}

/// One generated history: an optional initial graph and a chronological log.
struct GeneratedLog {
  hgdb::Snapshot initial;      ///< Empty for logs without a starting graph.
  Timestamp initial_time = 0;  ///< Time of `initial` (before every event).
  std::vector<Event> events;
};

/// A growing, churning social-style graph: node adds, edge adds and deletes,
/// node attribute sets. Never deletes a node, so every event is valid on
/// its own.
GeneratedLog GenerateServingLog(size_t num_events, uint64_t seed);

/// Dataset-3-shaped history: a citation-like starting graph (directed,
/// preferential) followed by edge add/delete churn.
GeneratedLog GenerateCitationLog(size_t initial_nodes, size_t initial_edges,
                                 size_t churn_events, uint64_t seed);

/// Order-independent digest of a graph's elements: structure (nodes and
/// edges) and node attributes are digested apart, so a structure-only answer
/// can be checked against the same replay.
struct Fingerprint {
  uint64_t structure = 0;
  uint64_t attributes = 0;
  int64_t nodes = 0;
  int64_t edges = 0;
  int64_t attrs = 0;

  bool Matches(const Fingerprint& o, bool with_attrs) const {
    return structure == o.structure && nodes == o.nodes && edges == o.edges &&
           (!with_attrs || (attributes == o.attributes && attrs == o.attrs));
  }
};

Fingerprint FingerprintOf(const hgdb::Snapshot& g);
Fingerprint FingerprintOf(const hgdb::HistGraphView& view);

/// Prefix fingerprints of a log: At(p) digests the initial graph plus the
/// first p events, replayed naively.
class ReplayOracle {
 public:
  explicit ReplayOracle(const GeneratedLog& log);

  /// Events with time <= t.
  size_t PrefixAt(Timestamp t) const;
  /// The prefix an answer for time t must reflect when it claims to see the
  /// first `event_count` events.
  size_t Expected(Timestamp t, size_t event_count) const {
    const size_t p = PrefixAt(t);
    return p < event_count ? p : event_count;
  }
  const Fingerprint& At(size_t prefix) const { return prefix_[prefix]; }

 private:
  const GeneratedLog& log_;
  std::vector<Fingerprint> prefix_;
};

/// Directed/undirected edge list of the naive replay at one prefix.
struct NaiveGraph {
  std::vector<NodeId> nodes;
  struct Arc {
    NodeId src, dst;
    bool directed;
  };
  std::vector<Arc> edges;
};

/// Naive replays of the log at each requested prefix (any order).
std::vector<NaiveGraph> ReplayGraphsAt(const GeneratedLog& log,
                                       const std::vector<size_t>& prefixes);

/// PageRank with the vertex-centric engine's exact semantics (every vertex
/// starts at 1/n and updates in each of `iterations` supersteps; mass sent
/// to out-neighbors, undirected edges both ways), computed directly.
std::unordered_map<NodeId, double> NaivePageRank(const NaiveGraph& g, int iterations,
                                                 double damping);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LOG_H_

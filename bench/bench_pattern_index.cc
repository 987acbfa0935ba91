// Section 4.7 extensibility example: subgraph pattern matching over the
// entire history through the auxiliary path index (paper: a query over
// Dataset 1 with ten random labels returned 14109 matches in 148 s).

#include "auxiliary/path_index.h"
#include "bench/bench_common.h"
#include "workload/trace_world.h"

int main() {
  using namespace hgdb;
  using namespace hgdb::bench;
  PrintHeader("Section 4.7: pattern matching over history via the path index");

  // Labeled growing co-authorship-like trace with ten labels, as the paper.
  const double scale = WorkloadScale();
  const size_t num_events = static_cast<size_t>(30000 * scale);
  GeneratedTrace trace;
  trace.world = std::make_unique<TraceWorld>(77);
  TraceWorld& w = *trace.world;
  Rng& rng = w.rng();
  Timestamp t = 1;
  auto label = [&] { return std::string("l").append(std::to_string(rng.Uniform(10))); };
  for (size_t i = 0; i < 8; ++i) {
    const NodeId n = w.AddNode(t, 0, &trace.events);
    w.SetNodeAttr(t, n, "label", label(), &trace.events);
  }
  while (trace.events.size() < num_events) {
    t += 1;
    if (rng.Chance(0.25)) {
      const NodeId n = w.AddNode(t, 0, &trace.events);
      w.SetNodeAttr(t, n, "label", label(), &trace.events);
    } else {
      w.AddRandomEdge(t, false, &trace.events);
    }
  }
  std::printf("trace: %zu events, %zu nodes, %zu edges, 10 labels\n",
              trace.events.size(), w.node_count(), w.edge_count());

  auto store = NewMemKVStore();
  PathIndex index(store.get());
  DeltaGraphOptions opts;
  opts.leaf_size = std::max<size_t>(500, trace.events.size() / 30);
  opts.arity = 4;
  auto dg_result = DeltaGraph::Create(store.get(), opts);
  if (!dg_result.ok()) std::abort();
  auto dg = std::move(dg_result).value();
  dg->RegisterAuxHook(&index);
  Stopwatch build_sw;
  if (!dg->AppendAll(trace.events).ok()) std::abort();
  if (!dg->Finalize().ok()) std::abort();
  std::printf("index built (with path maintenance) in %s\n",
              FormatMs(build_sw.ElapsedMillis()).c_str());
  std::printf("live path entries at head: %zu\n\n", index.current().PairCount());

  PatternGraph pattern;
  pattern.labels = {"l1", "l2", "l3", "l1"};
  pattern.edges = {{0, 1}, {1, 2}, {2, 3}};

  Stopwatch query_sw;
  std::set<PatternMatch> distinct;
  auto count = FindMatchesOverHistory(dg.get(), index, pattern, &distinct);
  if (!count.ok()) {
    std::printf("query failed: %s\n", count.status().ToString().c_str());
    return 1;
  }
  std::printf("pattern l1-l2-l3-l1 over full history:\n");
  std::printf("  occurrences (boundary x match): %zu\n", count.value());
  std::printf("  distinct matches: %zu\n", distinct.size());
  std::printf("  query time: %s\n", FormatMs(query_sw.ElapsedMillis()).c_str());
  std::printf("\npaper shape: 14109 matches / 148 s on the full-size Dataset 1.\n");
  return 0;
}

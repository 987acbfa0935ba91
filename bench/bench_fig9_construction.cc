// Figure 9: effect of the DeltaGraph construction parameters (Dataset 1).
//
// (a) Varying arity k: query time falls quickly then flattens; space grows
//     (with plateaus where the tree height does not change).
// (b) Varying the leaf-eventlist size L: space falls (fewer leaves), query
//     time rises sharply.
//
// Every row also reports the index build time (bulk append + Finalize), as
// build_arity<k> / build_L<L> rows of BENCH_fig9_construction.json.

#include "bench/bench_common.h"

namespace hgdb {
namespace bench {
namespace {

struct Measurement {
  double build_ms;
  double avg_query_ms;
  uint64_t space_bytes;
  int height;
};

Measurement Measure(const Dataset& data, size_t L, int k) {
  auto store = NewSimDiskStore();
  DeltaGraphOptions opts;
  opts.leaf_size = L;
  opts.arity = k;
  opts.functions = {"intersection"};
  opts.maintain_current = false;
  Stopwatch build;
  auto dg = BuildIndex(store.get(), data, opts);
  const double build_ms = build.ElapsedMillis();
  const std::vector<Timestamp> times = UniformTimepoints(data, 10);
  double total = 0;
  for (Timestamp t : times) {
    Stopwatch sw;
    auto snap = dg->GetSnapshot(t, kCompAll);
    if (!snap.ok()) std::abort();
    total += sw.ElapsedMillis();
  }
  const auto stats = dg->Stats();
  return Measurement{build_ms, total / times.size(), stats.store_bytes, stats.height};
}

}  // namespace
}  // namespace bench
}  // namespace hgdb

int main() {
  using namespace hgdb;
  using namespace hgdb::bench;
  PrintHeader("Figure 9: varying arity and leaf-eventlist size");
  OpenReport("fig9_construction");
  Dataset data = MakeDataset1();
  std::printf("dataset: %s, %zu events\n", data.name.c_str(), data.events.size());
  const size_t base_L = std::max<size_t>(400, data.events.size() / 60);

  std::printf("\n(a) varying arity, L=%zu\n", base_L);
  PrintRow({"arity", "build", "avg query", "space", "height"}, 14);
  for (int k : {2, 4, 6, 8}) {
    Measurement m = Measure(data, base_L, k);
    PrintRow({std::to_string(k), FormatMs(m.build_ms), FormatMs(m.avg_query_ms),
              FormatBytes(m.space_bytes), std::to_string(m.height)},
             14);
    ReportResult("avg_query_arity" + std::to_string(k), m.avg_query_ms * 1e6,
                 m.space_bytes);
    ReportResult("build_arity" + std::to_string(k), m.build_ms * 1e6, m.space_bytes);
  }

  std::printf("\n(b) varying leaf-eventlist size, arity=2\n");
  PrintRow({"L", "build", "avg query", "space", "height"}, 14);
  for (size_t L : {base_L / 2, base_L, base_L * 2, base_L * 4}) {
    Measurement m = Measure(data, L, 2);
    PrintRow({std::to_string(L), FormatMs(m.build_ms), FormatMs(m.avg_query_ms),
              FormatBytes(m.space_bytes), std::to_string(m.height)},
             14);
    ReportResult("avg_query_L" + std::to_string(L), m.avg_query_ms * 1e6,
                 m.space_bytes);
    ReportResult("build_L" + std::to_string(L), m.build_ms * 1e6, m.space_bytes);
  }
  std::printf(
      "\npaper shape: (a) higher arity -> lower query time (flattening) and\n"
      "more space; (b) larger L -> less space, sharply higher query time.\n");
  return 0;
}

#ifndef HISTGRAPH_TESTS_TEST_UTIL_H_
#define HISTGRAPH_TESTS_TEST_UTIL_H_

// Shared randomness plumbing for the property/stress test suites. Every
// random choice a test makes flows through an explicit seed so any failure
// reproduces bit-for-bit:
//
//  - Wrap engines in SeededRng so the seed travels with the generator and
//    shows up in failure output (add `SCOPED_TRACE(rng.Desc())` or stream
//    `rng.seed()` into an assertion message).
//  - Derive per-iteration seeds with PropertySeeds(): by default it yields
//    {base, base+1, ...}; setting HISTGRAPH_TEST_SEED=<n> narrows any
//    property test to exactly the failing seed printed by a red run.

#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "graph/snapshot.h"
#include "temporal/event.h"

namespace hgdb {
namespace test {

/// A std::mt19937_64 that remembers the seed it was built from.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : seed_(seed), engine_(seed) {}

  uint64_t seed() const { return seed_; }
  std::mt19937_64& engine() { return engine_; }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t Uniform(uint64_t n) {
    return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
  }

  /// Uniform integer in [lo, hi].
  int64_t UniformRange(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  double NextDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  bool Chance(double p) { return NextDouble() < p; }

  /// Failure-trace description, e.g. "seed=1234 (HISTGRAPH_TEST_SEED=1234
  /// reruns exactly this case)".
  std::string Desc() const {
    return "seed=" + std::to_string(seed_) + " (HISTGRAPH_TEST_SEED=" +
           std::to_string(seed_) + " reruns exactly this case)";
  }

 private:
  uint64_t seed_;
  std::mt19937_64 engine_;
};

/// Seeds for a property test: {base, base+1, ..., base+count-1}, unless the
/// HISTGRAPH_TEST_SEED environment variable pins a single seed (the way a
/// failure printed by SeededRng::Desc is reproduced).
inline std::vector<uint64_t> PropertySeeds(size_t count, uint64_t base) {
  if (const char* env = std::getenv("HISTGRAPH_TEST_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  std::vector<uint64_t> seeds;
  seeds.reserve(count);
  for (size_t i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

/// `k` random timestamps covering the event log's span (with a margin on both
/// sides); when k >= 4 the last one duplicates the first, so multipoint
/// requests always exercise the duplicate-time path.
inline std::vector<Timestamp> RandomTimes(SeededRng& rng,
                                          const std::vector<Event>& ev, int k) {
  const Timestamp lo = ev.front().time, hi = ev.back().time;
  std::vector<Timestamp> times;
  times.reserve(k);
  for (int i = 0; i < k; ++i) {
    times.push_back(rng.UniformRange(lo > 10 ? lo - 10 : 0, hi + 20));
  }
  if (k >= 4) times[k - 1] = times[0];
  return times;
}

/// The heap parts (spines and chunks) `g` references, by pointer: parts
/// shared between snapshots compare equal (Snapshot::ForEachStorePart).
inline std::unordered_set<const void*> StoreParts(const Snapshot& g) {
  std::unordered_set<const void*> parts;
  g.ForEachStorePart([&](const void* p, size_t) { parts.insert(p); });
  return parts;
}

/// Element-wise reference for Snapshot::Intersect: every element of `a` that
/// `b` holds too, attribute triples only with an equal value, edge records
/// from `a`. Built one element at a time into fresh chunks, so it shares
/// nothing with either input.
inline Snapshot ReferenceIntersect(const Snapshot& a, const Snapshot& b) {
  Snapshot out;
  for (NodeId n : a.nodes()) {
    if (b.HasNode(n)) out.AddNode(n);
  }
  for (const auto& [id, rec] : a.edges()) {
    if (b.HasEdge(id)) out.AddEdge(id, rec);
  }
  for (const auto& [owner, attrs] : a.node_attrs()) {
    for (const auto& [k, val] : attrs) {
      if (b.GetNodeAttrValueId(owner, k) == val) out.SetNodeAttrId(owner, k, val);
    }
  }
  for (const auto& [owner, attrs] : a.edge_attrs()) {
    for (const auto& [k, val] : attrs) {
      if (b.GetEdgeAttrValueId(owner, k) == val) out.SetEdgeAttrId(owner, k, val);
    }
  }
  return out;
}

}  // namespace test
}  // namespace hgdb

#endif  // HISTGRAPH_TESTS_TEST_UTIL_H_

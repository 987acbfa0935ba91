#include <gtest/gtest.h>

#include <algorithm>

#include "auxiliary/path_index.h"
#include "tests/finalize_rounds.h"
#include "workload/generators.h"
#include "workload/trace_world.h"

namespace hgdb {
namespace {

// --- AuxSnapshot / AuxDelta ----------------------------------------------------

TEST(AuxSnapshotTest, AddRemoveContains) {
  AuxSnapshot s;
  EXPECT_TRUE(s.Add("k", "v1"));
  EXPECT_FALSE(s.Add("k", "v1"));  // Duplicate.
  EXPECT_TRUE(s.Add("k", "v2"));
  EXPECT_TRUE(s.Contains("k", "v1"));
  EXPECT_EQ(s.PairCount(), 2u);
  EXPECT_TRUE(s.Remove("k", "v1"));
  EXPECT_FALSE(s.Remove("k", "v1"));
  EXPECT_FALSE(s.Contains("k", "v1"));
  EXPECT_TRUE(s.Remove("k", "v2"));
  EXPECT_TRUE(s.Empty());
}

TEST(AuxDeltaTest, BetweenAndApplyBothDirections) {
  AuxSnapshot a, b;
  a.Add("x", "1");
  a.Add("y", "2");
  b.Add("y", "2");
  b.Add("z", "3");
  AuxDelta d = AuxDelta::Between(b, a);
  AuxSnapshot g = a;
  ASSERT_TRUE(d.ApplyTo(&g, true).ok());
  EXPECT_TRUE(g.Equals(b));
  ASSERT_TRUE(d.ApplyTo(&g, false).ok());
  EXPECT_TRUE(g.Equals(a));
}

TEST(AuxDeltaTest, SerdeRoundTrip) {
  AuxDelta d;
  d.add = {{"a", "1"}, {"b", "2"}};
  d.del = {{"c", "3"}};
  std::string blob;
  d.EncodeTo(&blob);
  AuxDelta back;
  ASSERT_TRUE(AuxDelta::DecodeFrom(blob, &back).ok());
  EXPECT_EQ(back.add, d.add);
  EXPECT_EQ(back.del, d.del);
  std::string bad = blob + "x";
  EXPECT_FALSE(AuxDelta::DecodeFrom(bad, &back).ok());
}

TEST(AuxEventsTest, RangeApplicationAndInversion) {
  std::vector<AuxEvent> events = {
      {1, true, "k", "a"}, {3, true, "k", "b"}, {5, false, "k", "a"}};
  AuxSnapshot s;
  ASSERT_TRUE(ApplyAuxEvents(events, true, kMinTimestamp, 3, &s).ok());
  EXPECT_TRUE(s.Contains("k", "a"));
  EXPECT_TRUE(s.Contains("k", "b"));
  ASSERT_TRUE(ApplyAuxEvents(events, true, 3, kMaxTimestamp, &s).ok());
  EXPECT_FALSE(s.Contains("k", "a"));
  // Undo the tail.
  ASSERT_TRUE(ApplyAuxEvents(events, false, 3, kMaxTimestamp, &s).ok());
  EXPECT_TRUE(s.Contains("k", "a"));
}

TEST(AuxEventsTest, SerdeRoundTrip) {
  std::vector<AuxEvent> events = {{1, true, "k", "v"}, {-5, false, "a", ""}};
  std::string blob;
  EncodeAuxEvents(events, &blob);
  std::vector<AuxEvent> back;
  ASSERT_TRUE(DecodeAuxEvents(blob, &back).ok());
  EXPECT_EQ(back, events);
}

TEST(AuxIntersectTest, KeepsCommonPairsOnly) {
  AuxSnapshot a, b;
  a.Add("k", "1");
  a.Add("k", "2");
  b.Add("k", "2");
  b.Add("j", "9");
  AuxSnapshot p = AuxIntersect({&a, &b});
  EXPECT_EQ(p.PairCount(), 1u);
  EXPECT_TRUE(p.Contains("k", "2"));
}

// --- PathIndex over a DeltaGraph ------------------------------------------------

// Builds a labeled random trace: every node gets a label from a small
// alphabet at creation.
GeneratedTrace LabeledTrace(size_t num_events, uint64_t seed, int num_labels) {
  GeneratedTrace trace;
  trace.world = std::make_unique<TraceWorld>(seed);
  TraceWorld& w = *trace.world;
  Rng& rng = w.rng();
  Timestamp t = 1;
  auto add_labeled_node = [&]() {
    const NodeId n = w.AddNode(t, 0, &trace.events);
    const std::string label(1, static_cast<char>('a' + rng.Uniform(num_labels)));
    w.SetNodeAttr(t, n, "label", label, &trace.events);
  };
  for (int i = 0; i < 6; ++i) add_labeled_node();
  while (trace.events.size() < num_events) {
    t += 1;
    const double roll = rng.NextDouble();
    if (roll < 0.2) {
      add_labeled_node();
    } else if (roll < 0.75 || w.edge_count() == 0) {
      w.AddRandomEdge(t, false, &trace.events);
    } else {
      w.DeleteRandomEdge(t, &trace.events);
    }
  }
  return trace;
}

class PathIndexTest : public ::testing::Test {
 protected:
  /// An empty index with the path index hooked in, over a fresh trace.
  void Create(size_t num_events, uint64_t seed, size_t leaf_size) {
    trace_ = LabeledTrace(num_events, seed, 4);
    store_ = NewMemKVStore();
    index_ = std::make_unique<PathIndex>(store_.get());
    DeltaGraphOptions opts;
    opts.leaf_size = leaf_size;
    auto dg = DeltaGraph::Create(store_.get(), opts);
    ASSERT_TRUE(dg.ok());
    dg_ = std::move(dg).value();
    dg_->RegisterAuxHook(index_.get());
  }

  void Build(size_t num_events, uint64_t seed, size_t leaf_size = 150) {
    Create(num_events, seed, leaf_size);
    ASSERT_TRUE(dg_->AppendAll(trace_.events).ok());
    ASSERT_TRUE(dg_->Finalize().ok());
  }

  void ExpectAuxMatchesBruteForce(Timestamp t) {
    auto state = dg_->GetAuxState(*index_, t);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    const auto& aux = static_cast<const AuxSnapshotState&>(*state.value()).snapshot;
    AuxSnapshot expected = EnumerateAllLabelPaths(ReplayAt(trace_.events, t), "label");
    EXPECT_TRUE(aux.Equals(expected))
        << "t=" << t << " aux=" << aux.PairCount()
        << " expected=" << expected.PairCount();
  }

  GeneratedTrace trace_;
  std::unique_ptr<KVStore> store_;
  std::unique_ptr<PathIndex> index_;
  std::unique_ptr<DeltaGraph> dg_;
};

TEST_F(PathIndexTest, CurrentAuxMatchesBruteForce) {
  Build(1500, 7);
  Snapshot now = ReplayAt(trace_.events, trace_.events.back().time);
  AuxSnapshot expected = EnumerateAllLabelPaths(now, "label");
  EXPECT_TRUE(index_->current().Equals(expected))
      << "index: " << index_->current().PairCount()
      << " brute: " << expected.PairCount();
}

TEST_F(PathIndexTest, HistoricalAuxSnapshotsMatchBruteForce) {
  Build(1200, 13);
  const auto& skel = dg_->skeleton();
  // Probe a few leaf boundaries and mid-eventlist times.
  std::vector<Timestamp> probes;
  for (size_t i = 1; i < skel.leaves().size(); i += 2) {
    probes.push_back(skel.node(skel.leaves()[i]).boundary_time);
    probes.push_back(skel.node(skel.leaves()[i]).boundary_time - 1);
  }
  for (Timestamp t : probes) ExpectAuxMatchesBruteForce(t);
}

// Rounds short next to the graph leave their roots off the super-root; the
// aux walk then reaches those windows through the leaf eventlists (aux
// events included) and must still equal the replayed graph's aux state.
TEST_F(PathIndexTest, AuxStateAcrossUnattachedWindowsMatchesBruteForce) {
  Create(1400, 17, 40);
  const auto windows = test::AppendInFinalizedRounds(
      dg_.get(), trace_.events, {700, 800, 900, 1000, 1100, 1200, 1300, 1400});
  ASSERT_TRUE(std::any_of(windows.begin(), windows.end(),
                          [](const auto& w) { return !w.attached; }));
  for (const test::FinalizeWindow& w : windows) {
    if (w.attached) continue;
    for (Timestamp t : test::TimesInWindow(dg_->skeleton(), w)) {
      ExpectAuxMatchesBruteForce(t);
    }
  }
}

TEST_F(PathIndexTest, PatternMatchesOverHistoryAgreeWithBruteForce) {
  Build(900, 21);
  // Pattern: a path a-b-a-c (labels), pure path pattern.
  PatternGraph pattern;
  pattern.labels = {"a", "b", "a", "c"};
  pattern.edges = {{0, 1}, {1, 2}, {2, 3}};

  std::set<PatternMatch> matches;
  auto count = FindMatchesOverHistory(dg_.get(), *index_, pattern, &matches);
  ASSERT_TRUE(count.ok()) << count.status().ToString();

  // Brute-force: at each leaf boundary, enumerate label paths and count the
  // ones matching the pattern's quartet in either orientation.
  size_t expected_total = 0;
  const auto& skel = dg_->skeleton();
  const std::string key_fwd = PathIndex::QuartetKey({"a", "b", "a", "c"});
  const std::string key_rev = PathIndex::QuartetKey({"c", "a", "b", "a"});
  for (int32_t leaf : skel.leaves()) {
    const Timestamp t = skel.node(leaf).boundary_time;
    Snapshot g = ReplayAt(trace_.events, t);
    AuxSnapshot paths = EnumerateAllLabelPaths(g, "label");
    std::set<std::string> distinct;
    if (const auto* vals = paths.Get(key_fwd)) {
      for (const auto& v : *vals) distinct.insert(v);
    }
    if (const auto* vals = paths.Get(key_rev)) {
      for (const auto& v : *vals) distinct.insert(v);
    }
    expected_total += distinct.size();
  }
  EXPECT_EQ(count.value(), expected_total);
}

TEST_F(PathIndexTest, PatternWithExtraEdgeVerifies) {
  Build(700, 33);
  // A 4-cycle: path a-b-a-c plus the closing edge (0,3).
  PatternGraph cycle;
  cycle.labels = {"a", "b", "a", "c"};
  cycle.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  PatternGraph path = cycle;
  path.edges.pop_back();

  std::set<PatternMatch> cycle_matches, path_matches;
  auto c1 = FindMatchesOverHistory(dg_.get(), *index_, cycle, &cycle_matches);
  auto c2 = FindMatchesOverHistory(dg_.get(), *index_, path, &path_matches);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  // Every cycle match is also a path match.
  EXPECT_LE(c1.value(), c2.value());
  for (const auto& m : cycle_matches) {
    EXPECT_TRUE(path_matches.contains(m));
  }
}

TEST_F(PathIndexTest, RejectsTooSmallPatterns) {
  Build(300, 41);
  PatternGraph small;
  small.labels = {"a", "b"};
  small.edges = {{0, 1}};
  auto result = FindMatchesOverHistory(dg_.get(), *index_, small, nullptr);
  EXPECT_TRUE(result.status().IsNotSupported());
}

}  // namespace
}  // namespace hgdb

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_set>

#include "deltagraph/delta_graph.h"
#include "deltagraph/differential.h"
#include "deltagraph/partitioned_delta_graph.h"
#include "tests/finalize_rounds.h"
#include "tests/test_util.h"
#include "workload/generators.h"
#include "workload/trace_world.h"

namespace hgdb {
namespace {

// ---------------------------------------------------------------------------
// Differential functions
// ---------------------------------------------------------------------------

Snapshot MakeSnap(std::initializer_list<NodeId> nodes) {
  Snapshot s;
  for (NodeId n : nodes) s.AddNode(n);
  return s;
}

TEST(DifferentialTest, IntersectionKeepsCommonElements) {
  Snapshot a = MakeSnap({1, 2, 3});
  Snapshot b = MakeSnap({2, 3, 4});
  Snapshot c = MakeSnap({3, 4, 5});
  auto fn = MakeIntersectionFunction();
  Snapshot p = fn->Combine({&a, &b, &c});
  EXPECT_EQ(p.NodeCount(), 1u);
  EXPECT_TRUE(p.HasNode(3));
}

TEST(DifferentialTest, IntersectionIsValueSensitiveForAttrs) {
  Snapshot a = MakeSnap({1});
  a.SetNodeAttr(1, "k", "x");
  Snapshot b = MakeSnap({1});
  b.SetNodeAttr(1, "k", "y");
  auto fn = MakeIntersectionFunction();
  Snapshot p = fn->Combine({&a, &b});
  EXPECT_TRUE(p.HasNode(1));
  EXPECT_EQ(p.GetNodeAttr(1, "k"), nullptr);  // Different values: not common.
}

TEST(DifferentialTest, IntersectionParentSharesMostChunksWithLeaves) {
  // Two leaves cut 100 events apart on a graph of ~10k elements, as the
  // builder sees them: the later leaf is a COW copy of the earlier one with
  // 100 more events applied.
  RandomTraceOptions opts;
  opts.num_events = 18000;
  opts.seed = 314;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  Snapshot left;
  for (size_t i = 0; i + 100 < trace.events.size(); ++i) {
    ASSERT_TRUE(left.Apply(trace.events[i], true).ok());
  }
  Snapshot right = left;
  for (size_t i = trace.events.size() - 100; i < trace.events.size(); ++i) {
    ASSERT_TRUE(right.Apply(trace.events[i], true).ok());
  }
  ASSERT_GT(left.ElementCount(), 8000u);

  const Snapshot parent = MakeIntersectionFunction()->Combine({&left, &right});
  ASSERT_TRUE(parent.Equals(test::ReferenceIntersect(left, right)));
  const auto mine = test::StoreParts(parent);
  for (const Snapshot* child : {&left, &right}) {
    const auto theirs = test::StoreParts(*child);
    size_t shared = 0;
    for (const void* p : mine) shared += theirs.count(p);
    EXPECT_GE(2 * shared, mine.size())
        << shared << " of " << mine.size() << " parent parts shared";
  }
}

TEST(DifferentialTest, UnionContainsEverything) {
  Snapshot a = MakeSnap({1, 2});
  Snapshot b = MakeSnap({3});
  b.AddEdge(9, EdgeRecord{1, 3, false});
  auto fn = MakeUnionFunction();
  Snapshot p = fn->Combine({&a, &b});
  EXPECT_EQ(p.NodeCount(), 3u);
  EXPECT_TRUE(p.HasEdge(9));
}

TEST(DifferentialTest, EmptyFunctionYieldsEmpty) {
  Snapshot a = MakeSnap({1, 2, 3});
  auto fn = MakeEmptyFunction();
  EXPECT_TRUE(fn->Combine({&a, &a}).Empty());
}

TEST(DifferentialTest, SkewedExtremes) {
  Snapshot a = MakeSnap({1, 2, 3});
  Snapshot b = MakeSnap({3, 4});
  EXPECT_TRUE(MakeSkewedFunction(0.0)->Combine({&a, &b}).Equals(a));
  EXPECT_TRUE(MakeSkewedFunction(1.0)->Combine({&a, &b}).Equals(b));
}

TEST(DifferentialTest, MixedExtremes) {
  Snapshot a = MakeSnap({1, 2, 3});
  Snapshot b = MakeSnap({3, 4});
  // r1=r2=1: a + all additions - all removals = b.
  EXPECT_TRUE(MakeMixedFunction(1.0, 1.0)->Combine({&a, &b}).Equals(b));
  // r1=r2=0: parent = a.
  EXPECT_TRUE(MakeMixedFunction(0.0, 0.0)->Combine({&a, &b}).Equals(a));
}

TEST(DifferentialTest, BalancedRoughlyHalvesDeltas) {
  // Large disjoint change: balanced parent should sit about halfway.
  Snapshot a, b;
  for (NodeId n = 0; n < 2000; ++n) a.AddNode(n);
  for (NodeId n = 1000; n < 3000; ++n) b.AddNode(n);
  auto fn = MakeBalancedFunction();
  Snapshot p = fn->Combine({&a, &b});
  const size_t da = Delta::Between(a, p).ElementCount();
  const size_t db = Delta::Between(b, p).ElementCount();
  // |delta(a,p)| and |delta(b,p)| should be close to each other.
  EXPECT_LT(static_cast<double>(da > db ? da - db : db - da), 0.2 * (da + db));
}

TEST(DifferentialTest, RightSkewedIsIntersectionPlusFractionOfNew) {
  Snapshot a = MakeSnap({1, 2, 3});
  Snapshot b = MakeSnap({2, 3, 4, 5});
  Snapshot p0 = MakeRightSkewedFunction(0.0)->Combine({&a, &b});
  EXPECT_EQ(p0.NodeCount(), 2u);  // a ∩ b
  Snapshot p1 = MakeRightSkewedFunction(1.0)->Combine({&a, &b});
  EXPECT_TRUE(p1.Equals(b));  // a∩b + (b − a∩b) = b
  Snapshot l1 = MakeLeftSkewedFunction(1.0)->Combine({&a, &b});
  EXPECT_TRUE(l1.Equals(a));
}

TEST(DifferentialTest, FactoryParsesSpecs) {
  for (const char* spec :
       {"intersection", "union", "empty", "balanced", "mixed:0.7:0.3",
        "skewed:0.25", "rightskewed:0.5", "leftskewed:0.5"}) {
    auto fn = MakeDifferentialFunction(spec);
    ASSERT_TRUE(fn.ok()) << spec;
  }
  EXPECT_FALSE(MakeDifferentialFunction("bogus").ok());
  EXPECT_FALSE(MakeDifferentialFunction("mixed:0.3:0.7").ok());  // r2 > r1.
  EXPECT_FALSE(MakeDifferentialFunction("mixed:abc:0.1").ok());
}

TEST(DifferentialTest, SelectionIsDeterministic) {
  Snapshot a = MakeSnap({1, 2, 3, 4, 5, 6, 7, 8});
  Snapshot b = MakeSnap({5, 6, 7, 8, 9, 10, 11, 12});
  auto fn = MakeBalancedFunction();
  Snapshot p1 = fn->Combine({&a, &b});
  Snapshot p2 = fn->Combine({&a, &b});
  EXPECT_TRUE(p1.Equals(p2));
}

// ---------------------------------------------------------------------------
// Skeleton
// ---------------------------------------------------------------------------

TEST(SkeletonTest, LeafIntervalSearch) {
  Skeleton s;
  SkeletonNode sr;
  sr.is_super_root = true;
  s.SetSuperRoot(s.AddNode(sr));
  // Added out of order: AddNode keeps leaves() chronological.
  for (Timestamp t : {20, 0, 30, 10}) {
    SkeletonNode leaf;
    leaf.is_leaf = true;
    leaf.level = 1;
    leaf.boundary_time = t;
    s.AddNode(leaf);
  }
  std::vector<Timestamp> order;
  for (int32_t leaf : s.leaves()) order.push_back(s.node(leaf).boundary_time);
  EXPECT_EQ(order, (std::vector<Timestamp>{0, 10, 20, 30}));
  EXPECT_EQ(s.FindLeafInterval(0), -1);   // t <= first boundary.
  EXPECT_EQ(s.FindLeafInterval(-5), -1);
  EXPECT_EQ(s.FindLeafInterval(1), 0);    // (0, 10]
  EXPECT_EQ(s.FindLeafInterval(10), 0);
  EXPECT_EQ(s.FindLeafInterval(11), 1);
  EXPECT_EQ(s.FindLeafInterval(30), 2);
  EXPECT_EQ(s.FindLeafInterval(99), 3);   // Beyond the last boundary.
}

TEST(SkeletonTest, SerializationRoundTrip) {
  Skeleton s;
  SkeletonNode sr;
  sr.is_super_root = true;
  s.SetSuperRoot(s.AddNode(sr));
  SkeletonNode leaf;
  leaf.is_leaf = true;
  leaf.level = 1;
  leaf.boundary_time = 42;
  leaf.element_count = 17;
  const int32_t l1 = s.AddNode(leaf);
  leaf.boundary_time = 84;
  const int32_t l2 = s.AddNode(leaf);
  SkeletonEdge e;
  e.from = l1;
  e.to = l2;
  e.is_eventlist = true;
  e.delta_id = 7;
  e.sizes.bytes[0] = 100;
  e.sizes.elements[0] = 10;
  const int32_t eid = s.AddEdge(e);
  SkeletonEdge d;
  d.from = s.super_root();
  d.to = l1;
  d.delta_id = 8;
  const int32_t did = s.AddEdge(d);
  s.RemoveEdge(did);

  std::string blob;
  s.EncodeTo(&blob);
  Skeleton back;
  ASSERT_TRUE(Skeleton::DecodeFrom(blob, &back).ok());
  EXPECT_EQ(back.node_count(), 3u);
  EXPECT_EQ(back.edge_count(), 2u);
  EXPECT_EQ(back.super_root(), s.super_root());
  EXPECT_EQ(back.leaves().size(), 2u);
  EXPECT_TRUE(back.edge(did).deleted);
  EXPECT_EQ(back.edge(eid).sizes.bytes[0], 100u);
  EXPECT_EQ(back.node(l1).boundary_time, 42);
  EXPECT_EQ(back.node(l1).element_count, 17u);
  // Corruption detection.
  std::string bad = blob.substr(0, blob.size() / 2);
  Skeleton reject;
  EXPECT_FALSE(Skeleton::DecodeFrom(bad, &reject).ok());
}

// ---------------------------------------------------------------------------
// DeltaGraph ground truth: every configuration must reproduce exact replay.
// ---------------------------------------------------------------------------

struct DgConfig {
  std::string function;
  int arity;
  size_t leaf_size;
};

std::string ConfigName(const ::testing::TestParamInfo<DgConfig>& info) {
  std::string name = info.param.function + "_k" + std::to_string(info.param.arity) +
                     "_L" + std::to_string(info.param.leaf_size);
  for (auto& c : name) {
    if (c == ':' || c == '.') c = '_';
  }
  return name;
}

class DeltaGraphGroundTruthTest : public ::testing::TestWithParam<DgConfig> {
 protected:
  void BuildIndex(const std::vector<Event>& events) {
    store_ = NewMemKVStore();
    DeltaGraphOptions opts;
    opts.leaf_size = GetParam().leaf_size;
    opts.arity = GetParam().arity;
    opts.functions = {GetParam().function};
    auto dg = DeltaGraph::Create(store_.get(), opts);
    ASSERT_TRUE(dg.ok()) << dg.status().ToString();
    dg_ = std::move(dg).value();
    ASSERT_TRUE(dg_->AppendAll(events).ok());
    ASSERT_TRUE(dg_->Finalize().ok());
  }

  std::unique_ptr<KVStore> store_;
  std::unique_ptr<DeltaGraph> dg_;
};

TEST_P(DeltaGraphGroundTruthTest, SinglepointMatchesReplayEverywhere) {
  RandomTraceOptions opts;
  opts.num_events = 6000;
  opts.seed = 424242;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  BuildIndex(trace.events);

  const Timestamp t_min = trace.events.front().time;
  const Timestamp t_max = trace.events.back().time;
  // Probe uniformly, plus edge cases: before first event, exactly at leaf
  // boundaries, beyond the end.
  std::vector<Timestamp> probes = {t_min - 10, t_min, t_max, t_max + 100};
  for (int i = 1; i <= 20; ++i) {
    probes.push_back(t_min + (t_max - t_min) * i / 21);
  }
  for (int32_t leaf : dg_->skeleton().leaves()) {
    probes.push_back(dg_->skeleton().node(leaf).boundary_time);
  }
  for (Timestamp t : probes) {
    auto snap = dg_->GetSnapshot(t);
    ASSERT_TRUE(snap.ok()) << "t=" << t << ": " << snap.status().ToString();
    Snapshot expected = ReplayAt(trace.events, t);
    EXPECT_TRUE(snap.value().Equals(expected))
        << "t=" << t << "\n" << snap.value().DiffString(expected);
  }
}

TEST_P(DeltaGraphGroundTruthTest, ComponentFilteredRetrievalMatchesFilteredReplay) {
  RandomTraceOptions opts;
  opts.num_events = 4000;
  opts.seed = 777;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  BuildIndex(trace.events);

  const Timestamp t_max = trace.events.back().time;
  const unsigned component_sets[] = {kCompStruct, kCompStruct | kCompNodeAttr,
                                     kCompStruct | kCompEdgeAttr, kCompAll};
  for (unsigned components : component_sets) {
    for (int i = 1; i <= 5; ++i) {
      const Timestamp t = t_max * i / 6;
      auto snap = dg_->GetSnapshot(t, components);
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      Snapshot expected = ReplayAt(trace.events, t, components);
      EXPECT_TRUE(snap.value().Equals(expected))
          << "components=" << components << " t=" << t << "\n"
          << snap.value().DiffString(expected);
    }
  }
}

TEST_P(DeltaGraphGroundTruthTest, MultipointMatchesSinglepoint) {
  RandomTraceOptions opts;
  opts.num_events = 5000;
  opts.seed = 31337;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  BuildIndex(trace.events);

  const Timestamp t_max = trace.events.back().time;
  std::vector<Timestamp> times;
  for (int i = 1; i <= 12; ++i) times.push_back(t_max * i / 13);
  times.push_back(times[3]);  // Duplicate time point.

  auto multi = dg_->GetSnapshots(times);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  ASSERT_EQ(multi.value().size(), times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    Snapshot expected = ReplayAt(trace.events, times[i]);
    EXPECT_TRUE(multi.value()[i].Equals(expected))
        << "t=" << times[i] << "\n" << multi.value()[i].DiffString(expected);
  }
}

TEST_P(DeltaGraphGroundTruthTest, MaterializationPreservesCorrectness) {
  RandomTraceOptions opts;
  opts.num_events = 4000;
  opts.seed = 11;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  BuildIndex(trace.events);

  auto mat = dg_->MaterializeDepth(0);  // Root(s).
  ASSERT_TRUE(mat.ok()) << mat.status().ToString();
  EXPECT_GE(mat.value(), 1u);

  const Timestamp t_max = trace.events.back().time;
  for (int i = 1; i <= 8; ++i) {
    const Timestamp t = t_max * i / 9;
    auto snap = dg_->GetSnapshot(t);
    ASSERT_TRUE(snap.ok());
    Snapshot expected = ReplayAt(trace.events, t);
    EXPECT_TRUE(snap.value().Equals(expected))
        << "t=" << t << "\n" << snap.value().DiffString(expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DeltaGraphGroundTruthTest,
    ::testing::Values(DgConfig{"intersection", 2, 500},
                      DgConfig{"intersection", 4, 250},
                      DgConfig{"balanced", 2, 500},
                      DgConfig{"balanced", 3, 300},
                      DgConfig{"union", 2, 400},
                      DgConfig{"empty", 4, 500},
                      DgConfig{"mixed:0.9:0.9", 2, 350},
                      DgConfig{"mixed:0.1:0.1", 2, 350},
                      DgConfig{"skewed:0.5", 2, 500},
                      DgConfig{"rightskewed:0.7", 2, 450},
                      DgConfig{"leftskewed:0.7", 2, 450},
                      DgConfig{"intersection", 8, 100}),
    ConfigName);

// ---------------------------------------------------------------------------
// Focused DeltaGraph behaviors
// ---------------------------------------------------------------------------

class DeltaGraphTest : public ::testing::Test {
 protected:
  void Build(const std::vector<Event>& events, DeltaGraphOptions opts = {}) {
    store_ = NewMemKVStore();
    auto dg = DeltaGraph::Create(store_.get(), opts);
    ASSERT_TRUE(dg.ok()) << dg.status().ToString();
    dg_ = std::move(dg).value();
    ASSERT_TRUE(dg_->AppendAll(events).ok());
    ASSERT_TRUE(dg_->Finalize().ok());
  }

  std::unique_ptr<KVStore> store_;
  std::unique_ptr<DeltaGraph> dg_;
};

TEST_F(DeltaGraphTest, RejectsOutOfOrderEvents) {
  Build({Event::AddNode(10, 1)});
  EXPECT_FALSE(dg_->Append(Event::AddNode(5, 2)).ok());
}

TEST_F(DeltaGraphTest, EqualTimeEventsNeverStraddleLeaves) {
  // 50 events all at t=1, leaf size 10: all must land in one eventlist.
  std::vector<Event> events;
  for (NodeId n = 1; n <= 50; ++n) events.push_back(Event::AddNode(1, n));
  events.push_back(Event::AddNode(2, 51));
  DeltaGraphOptions opts;
  opts.leaf_size = 10;
  Build(events, opts);
  auto snap = dg_->GetSnapshot(1);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value().NodeCount(), 50u);
  // Boundaries are distinct times.
  const auto& skel = dg_->skeleton();
  for (size_t i = 1; i < skel.leaves().size(); ++i) {
    EXPECT_LT(skel.node(skel.leaves()[i - 1]).boundary_time,
              skel.node(skel.leaves()[i]).boundary_time);
  }
}

TEST_F(DeltaGraphTest, QueriesBeforeFinalizeUseRecentReplay) {
  store_ = NewMemKVStore();
  DeltaGraphOptions opts;
  opts.leaf_size = 1000;  // Large: nothing gets flushed.
  auto dg = DeltaGraph::Create(store_.get(), opts);
  ASSERT_TRUE(dg.ok());
  dg_ = std::move(dg).value();
  ASSERT_TRUE(dg_->Append(Event::AddNode(1, 1)).ok());
  ASSERT_TRUE(dg_->Append(Event::AddNode(5, 2)).ok());
  auto snap = dg_->GetSnapshot(3);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value().NodeCount(), 1u);
  auto snap2 = dg_->GetSnapshot(10);
  ASSERT_TRUE(snap2.ok());
  EXPECT_EQ(snap2.value().NodeCount(), 2u);
}

TEST_F(DeltaGraphTest, UpdatesAfterFinalizeRemainQueryable) {
  RandomTraceOptions opts;
  opts.num_events = 2000;
  opts.seed = 5;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  DeltaGraphOptions dgo;
  dgo.leaf_size = 300;
  Build(trace.events, dgo);

  // Continue the trace after finalize (Section 6: updates to current graph).
  std::vector<Event> more;
  Timestamp t = trace.events.back().time;
  for (int i = 0; i < 1500; ++i) {
    t += 1;
    trace.world->AddRandomEdge(t, false, &more);
    if (i % 3 == 0) trace.world->DeleteRandomEdge(t, &more);
  }
  ASSERT_TRUE(dg_->AppendAll(more).ok());

  std::vector<Event> all = trace.events;
  all.insert(all.end(), more.begin(), more.end());

  // Query times spanning old index, new leaves, and the recent tail.
  const Timestamp t_max = all.back().time;
  for (int i = 1; i <= 10; ++i) {
    const Timestamp probe = t_max * i / 10;
    auto snap = dg_->GetSnapshot(probe);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    Snapshot expected = ReplayAt(all, probe);
    EXPECT_TRUE(snap.value().Equals(expected))
        << "t=" << probe << "\n" << snap.value().DiffString(expected);
  }
  // A second finalize attaches the new subtrees and persists; still correct.
  ASSERT_TRUE(dg_->Finalize().ok());
  auto snap = dg_->GetSnapshot(t_max);
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap.value().Equals(ReplayAt(all, t_max)));
}

// Regression: events appended after Finalize with a timestamp *equal* to the
// last indexed event's used to fall on the closed end of the final leaf's
// (lo, hi] interval and vanish from retrieval (exact replay saw them).
// Finalize now holds the trailing equal-time run back in the recent
// eventlist, so no boundary is ever cut inside a run.
TEST_F(DeltaGraphTest, PostFinalizeAppendsAtBoundaryTimeAreVisible) {
  std::vector<Event> events;
  for (NodeId n = 1; n <= 40; ++n) {
    events.push_back(Event::AddNode(n, n));  // Distinct times 1..40.
  }
  DeltaGraphOptions opts;
  opts.leaf_size = 10;
  Build(events, opts);
  const Timestamp t_end = 40;

  // The final boundary must sit strictly before the last event's time.
  const auto& skel = dg_->skeleton();
  const Timestamp boundary = skel.node(skel.leaves().back()).boundary_time;
  EXPECT_LT(boundary, t_end);

  // Resume appending at exactly the last indexed timestamp.
  ASSERT_TRUE(dg_->Append(Event::AddNode(t_end, 100)).ok());
  ASSERT_TRUE(dg_->Append(Event::AddNode(t_end, 101)).ok());
  ASSERT_TRUE(dg_->Append(Event::AddNode(t_end + 3, 102)).ok());

  std::vector<Event> all = events;
  all.push_back(Event::AddNode(t_end, 100));
  all.push_back(Event::AddNode(t_end, 101));
  all.push_back(Event::AddNode(t_end + 3, 102));

  // GetSnapshot at the boundary-equal time sees the resumed events.
  auto snap = dg_->GetSnapshot(t_end);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(snap.value().HasNode(100));
  EXPECT_TRUE(snap.value().HasNode(101));
  EXPECT_TRUE(snap.value().Equals(ReplayAt(all, t_end)));

  // GetSnapshots (multipoint) and probes around the run agree with replay.
  auto snaps = dg_->GetSnapshots({t_end - 1, t_end, t_end + 1, t_end + 3});
  ASSERT_TRUE(snaps.ok());
  const std::vector<Timestamp> probes = {t_end - 1, t_end, t_end + 1, t_end + 3};
  for (size_t i = 0; i < probes.size(); ++i) {
    Snapshot expected = ReplayAt(all, probes[i]);
    EXPECT_TRUE(snaps.value()[i].Equals(expected))
        << "t=" << probes[i] << "\n" << snaps.value()[i].DiffString(expected);
  }

  // CollectEvents over a window spanning the run returns the resumed events.
  EventList window;
  ASSERT_TRUE(
      dg_->CollectEvents(t_end, t_end + 1, kCompAllWithTransient, &window).ok());
  size_t at_boundary = 0;
  for (const auto& e : window.events()) {
    if (e.time == t_end) ++at_boundary;
  }
  EXPECT_EQ(at_boundary, 3u);  // The original t=40 event + the two resumed.
}

// Persistence round-trip of the resumed-index path: Append -> Finalize ->
// Append (including boundary-equal timestamps) -> Finalize -> Open; retrieval
// over the reopened index equals exact replay everywhere, including at the
// held-back run's timestamp.
TEST_F(DeltaGraphTest, ResumedIndexPersistenceRoundTrip) {
  RandomTraceOptions opts;
  opts.num_events = 1500;
  opts.seed = 91;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  DeltaGraphOptions dgo;
  dgo.leaf_size = 200;
  Build(trace.events, dgo);

  // Resume: a run at exactly the last indexed time, then strictly later ones.
  std::vector<Event> more;
  const Timestamp t_end = trace.events.back().time;
  trace.world->AddRandomEdge(t_end, false, &more);
  trace.world->AddRandomEdge(t_end, false, &more);
  Timestamp t = t_end;
  for (int i = 0; i < 500; ++i) {
    t += (i % 5 == 0) ? 0 : 1;  // Mix equal-time runs into the resumed trace.
    trace.world->AddRandomEdge(t, false, &more);
  }
  ASSERT_TRUE(dg_->AppendAll(more).ok());
  ASSERT_TRUE(dg_->Finalize().ok());  // Persists skeleton + held-back recent.

  std::vector<Event> all = trace.events;
  all.insert(all.end(), more.begin(), more.end());

  dg_.reset();
  auto reopened = DeltaGraph::Open(store_.get());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto dg2 = std::move(reopened).value();
  EXPECT_EQ(dg2->event_count(), all.size());

  const Timestamp t_max = all.back().time;
  std::vector<Timestamp> probes = {t_end, t_max, t_max - 1};
  for (int i = 1; i <= 8; ++i) probes.push_back(t_max * i / 8);
  for (Timestamp probe : probes) {
    auto snap = dg2->GetSnapshot(probe);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    Snapshot expected = ReplayAt(all, probe);
    EXPECT_TRUE(snap.value().Equals(expected))
        << "t=" << probe << "\n" << snap.value().DiffString(expected);
  }
  EXPECT_TRUE(dg2->current().Equals(ReplayAt(all, t_max)));

  // The reopened index keeps appending — still at the same head timestamp.
  std::vector<Event> tail;
  trace.world->AddRandomEdge(t_max, false, &tail);
  trace.world->AddRandomEdge(t_max + 2, false, &tail);
  ASSERT_TRUE(dg2->AppendAll(tail).ok());
  all.insert(all.end(), tail.begin(), tail.end());
  auto head = dg2->GetSnapshot(t_max + 2);
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE(head.value().Equals(ReplayAt(all, t_max + 2)));
}

// Odd-arity finalization: with arity 3 and a leaf count that leaves a lone
// pending node at several levels, Finalize must still converge to one root
// per hierarchy (lone leftovers are promoted, never given a single-child
// parent) and retrieval must stay exact.
TEST_F(DeltaGraphTest, OddArityFinalizationCascades) {
  for (size_t num_events : {700u, 1000u, 1300u}) {
    RandomTraceOptions opts;
    opts.num_events = num_events;
    opts.seed = 7 + num_events;
    GeneratedTrace trace = GenerateRandomTrace(opts);
    DeltaGraphOptions dgo;
    dgo.leaf_size = 100;  // ~7, 10, 13 leaves; arity 3 leaves odd levels.
    dgo.arity = 3;
    Build(trace.events, dgo);

    // Exactly one root (super-root child) per hierarchy.
    const auto& skel = dg_->skeleton();
    size_t roots = 0;
    for (int32_t eid : skel.incident_edges(skel.super_root())) {
      if (!skel.edge(eid).deleted) ++roots;
    }
    EXPECT_EQ(roots, 1u) << "leaves=" << skel.leaves().size();

    // No interior node may have exactly one child (a delta onto itself).
    for (size_t i = 0; i < skel.node_count(); ++i) {
      const auto& n = skel.node(static_cast<int32_t>(i));
      if (n.is_leaf || n.is_super_root) continue;
      size_t children = 0;
      for (int32_t eid : skel.incident_edges(n.id)) {
        const auto& e = skel.edge(eid);
        if (!e.deleted && !e.is_eventlist && e.from == n.id) ++children;
      }
      EXPECT_GE(children, 2u) << "node " << n.id;
    }

    const Timestamp t_max = trace.events.back().time;
    for (int i = 1; i <= 5; ++i) {
      const Timestamp probe = t_max * i / 5;
      auto snap = dg_->GetSnapshot(probe);
      ASSERT_TRUE(snap.ok());
      EXPECT_TRUE(snap.value().Equals(ReplayAt(trace.events, probe)));
    }
  }
}

// Decoded-cache keys must be unique across the (id, components, is_delta)
// space — the id is packed into the upper 59 bits (debug-asserted against
// overflow in DeltaStore::CacheKey).
TEST(DeltaStoreCacheKeyTest, UniqueAcrossIdComponentsAndKind) {
  std::unordered_set<uint64_t> seen;
  const std::vector<DeltaId> ids = {0, 1, 2, 63, 64, 1u << 20, (1ull << 59) - 1};
  for (DeltaId id : ids) {
    for (unsigned components = 0; components <= 0xF; ++components) {
      for (bool is_delta : {false, true}) {
        const uint64_t key = DeltaStore::CacheKey(id, components, is_delta);
        EXPECT_TRUE(seen.insert(key).second)
            << "collision: id=" << id << " components=" << components
            << " is_delta=" << is_delta;
        EXPECT_EQ(key >> 5, id);  // CacheInvalidate recovers the id this way.
      }
    }
  }
}

TEST_F(DeltaGraphTest, CurrentGraphTracksHead) {
  RandomTraceOptions opts;
  opts.num_events = 1000;
  opts.seed = 19;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  Build(trace.events);
  Snapshot expected = ReplayAt(trace.events, trace.events.back().time);
  EXPECT_TRUE(dg_->current().Equals(expected));
}

TEST_F(DeltaGraphTest, OpenRestoresIndex) {
  RandomTraceOptions opts;
  opts.num_events = 3000;
  opts.seed = 23;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  DeltaGraphOptions dgo;
  dgo.leaf_size = 400;
  dgo.arity = 3;
  dgo.functions = {"balanced"};
  Build(trace.events, dgo);
  const Timestamp t_max = trace.events.back().time;

  dg_.reset();
  auto reopened = DeltaGraph::Open(store_.get());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto dg2 = std::move(reopened).value();
  EXPECT_EQ(dg2->options().arity, 3);
  EXPECT_EQ(dg2->options().functions[0], "balanced");
  EXPECT_EQ(dg2->event_count(), trace.events.size());

  for (int i = 1; i <= 6; ++i) {
    const Timestamp t = t_max * i / 6;
    auto snap = dg2->GetSnapshot(t);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    Snapshot expected = ReplayAt(trace.events, t);
    EXPECT_TRUE(snap.value().Equals(expected)) << "t=" << t;
  }
  // Current graph was rebuilt.
  EXPECT_TRUE(dg2->current().Equals(ReplayAt(trace.events, t_max)));
}

TEST_F(DeltaGraphTest, CollectEventsWindowIncludesTransients) {
  std::vector<Event> events;
  events.push_back(Event::AddNode(1, 1));
  events.push_back(Event::AddNode(2, 2));
  events.push_back(Event::TransientEdge(3, 1, 2, "ping"));
  events.push_back(Event::AddEdge(4, 10, 1, 2, false));
  events.push_back(Event::TransientEdge(5, 2, 1, "pong"));
  events.push_back(Event::AddNode(6, 3));
  DeltaGraphOptions opts;
  opts.leaf_size = 2;
  Build(events, opts);

  EventList window;
  ASSERT_TRUE(dg_->CollectEvents(2, 6, kCompAllWithTransient, &window).ok());
  ASSERT_EQ(window.size(), 4u);
  EXPECT_EQ(window[0].type, EventType::kAddNode);
  EXPECT_EQ(window[1].type, EventType::kTransientEdge);
  EXPECT_EQ(window[2].type, EventType::kAddEdge);
  EXPECT_EQ(window[3].type, EventType::kTransientEdge);
  EXPECT_EQ(window[3].key, "pong");

  // Without the transient component only durable events appear.
  EventList no_transient;
  ASSERT_TRUE(dg_->CollectEvents(2, 6, kCompAll, &no_transient).ok());
  EXPECT_EQ(no_transient.size(), 2u);

  EXPECT_FALSE(dg_->CollectEvents(6, 2, kCompAll, &window).ok());
}

TEST_F(DeltaGraphTest, StatsReflectIndexShape) {
  RandomTraceOptions opts;
  opts.num_events = 3000;
  opts.seed = 29;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  DeltaGraphOptions dgo;
  dgo.leaf_size = 250;
  dgo.arity = 2;
  Build(trace.events, dgo);

  DeltaGraphStats stats = dg_->Stats();
  EXPECT_GE(stats.leaf_count, 8u);
  EXPECT_GT(stats.height, 2);
  EXPECT_GT(stats.delta_bytes, 0u);
  EXPECT_GT(stats.eventlist_bytes, 0u);
  EXPECT_GT(stats.store_bytes, 0u);
  EXPECT_EQ(stats.materialized_nodes, 0u);

  ASSERT_TRUE(dg_->MaterializeDepth(0).ok());
  stats = dg_->Stats();
  EXPECT_GE(stats.materialized_nodes, 1u);
}

TEST_F(DeltaGraphTest, PlanUsesMaterializedShortcut) {
  RandomTraceOptions opts;
  opts.num_events = 4000;
  opts.seed = 31;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  DeltaGraphOptions dgo;
  dgo.leaf_size = 200;
  dgo.maintain_current = false;
  Build(trace.events, dgo);

  const Timestamp mid = trace.events.back().time / 2;
  auto before = dg_->PlanFor({mid});
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(dg_->MaterializeAllLeaves().ok());
  auto after = dg_->PlanFor({mid});
  ASSERT_TRUE(after.ok());
  // With every leaf in memory the plan cost must collapse.
  EXPECT_LT(after.value().estimated_cost, before.value().estimated_cost / 2);
  auto snap = dg_->GetSnapshot(mid);
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap.value().Equals(ReplayAt(trace.events, mid)));
}

TEST_F(DeltaGraphTest, MultipointPlanCheaperThanIndependentSinglepoints) {
  RandomTraceOptions opts;
  opts.num_events = 8000;
  opts.seed = 37;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  DeltaGraphOptions dgo;
  dgo.leaf_size = 500;
  dgo.maintain_current = false;
  Build(trace.events, dgo);

  const Timestamp t_max = trace.events.back().time;
  std::vector<Timestamp> times;
  for (int i = 0; i < 6; ++i) times.push_back(t_max / 2 + i * t_max / 50);

  auto multi = dg_->PlanFor(times);
  ASSERT_TRUE(multi.ok());
  double single_total = 0;
  for (Timestamp t : times) {
    auto p = dg_->PlanFor({t});
    ASSERT_TRUE(p.ok());
    single_total += p.value().estimated_cost;
  }
  EXPECT_LT(multi.value().estimated_cost, single_total * 0.9);
}

TEST_F(DeltaGraphTest, EmptyFunctionMatchesCopyLogShape) {
  // With the Empty differential function every interior delta stores a full
  // child snapshot — the Copy+Log equivalence of Section 5.2.
  RandomTraceOptions opts;
  opts.num_events = 2000;
  opts.seed = 41;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  DeltaGraphOptions dgo;
  dgo.leaf_size = 400;
  dgo.functions = {"empty"};
  Build(trace.events, dgo);
  const Timestamp mid = trace.events.back().time / 2;
  auto snap = dg_->GetSnapshot(mid);
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap.value().Equals(ReplayAt(trace.events, mid)));
}

TEST_F(DeltaGraphTest, MultiHierarchyIndexIsCorrectAndPlansAcrossBoth) {
  RandomTraceOptions opts;
  opts.num_events = 4000;
  opts.seed = 43;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  DeltaGraphOptions dgo;
  dgo.leaf_size = 300;
  dgo.functions = {"intersection", "union"};  // Two hierarchies (Fig. 3(b)).
  Build(trace.events, dgo);

  const Timestamp t_max = trace.events.back().time;
  for (int i = 1; i <= 8; ++i) {
    const Timestamp t = t_max * i / 9;
    auto snap = dg_->GetSnapshot(t);
    ASSERT_TRUE(snap.ok());
    EXPECT_TRUE(snap.value().Equals(ReplayAt(trace.events, t))) << "t=" << t;
  }
  // Two hierarchies => more interior nodes than one.
  EXPECT_GT(dg_->Stats().node_count, dg_->Stats().leaf_count * 2 - 2);
}

TEST_F(DeltaGraphTest, IntersectionParentsEqualReferenceOfChildren) {
  // Every interior node, materialized from the index, must hold exactly the
  // element-wise intersection of its children (also materialized from the
  // index), folded oldest to newest.
  RandomTraceOptions opts;
  opts.num_events = 3000;
  opts.seed = 2718;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  for (int arity : {2, 3}) {
    SCOPED_TRACE("arity=" + std::to_string(arity));
    DeltaGraphOptions dgo;
    dgo.leaf_size = 100;
    dgo.arity = arity;
    dgo.functions = {"intersection"};
    Build(trace.events, dgo);
    const Skeleton& skel = dg_->skeleton();
    auto graph_of = [&](int32_t node) {
      EXPECT_TRUE(dg_->MaterializeNode(node).ok());
      return *dg_->materialized_snapshot(node);
    };
    size_t parents = 0;
    for (int32_t id = 0; id < static_cast<int32_t>(skel.node_count()); ++id) {
      const SkeletonNode& node = skel.node(id);
      if (node.is_leaf || node.is_super_root) continue;
      std::vector<int32_t> children;
      for (int32_t eid : skel.incident_edges(id)) {
        const SkeletonEdge& e = skel.edge(eid);
        if (!e.is_eventlist && e.from == id) children.push_back(e.to);
      }
      ASSERT_GE(children.size(), 2u);
      std::sort(children.begin(), children.end(), [&](int32_t x, int32_t y) {
        return skel.node(x).boundary_time < skel.node(y).boundary_time;
      });
      Snapshot want = graph_of(children[0]);
      for (size_t i = 1; i < children.size(); ++i) {
        want = test::ReferenceIntersect(want, graph_of(children[i]));
      }
      const Snapshot got = graph_of(id);
      EXPECT_TRUE(got.Equals(want)) << "node " << id << "\n" << got.DiffString(want);
      ++parents;
    }
    EXPECT_GT(parents, 10u);
  }
}

TEST_F(DeltaGraphTest, GrowingOnlyIntersectionRootIsInitialGraph) {
  // For a growing-only graph the Intersection root equals G0 (Section 5.2) —
  // here G0 is empty, so the super-root delta must be tiny.
  DblpLikeOptions dblp;
  dblp.target_edges = 3000;
  dblp.years = 10;
  dblp.attrs_per_node = 2;
  GeneratedTrace trace = GenerateDblpLikeTrace(dblp);
  DeltaGraphOptions dgo;
  dgo.leaf_size = 500;
  dgo.functions = {"intersection"};
  Build(trace.events, dgo);

  const auto& skel = dg_->skeleton();
  uint64_t super_root_bytes = 0;
  for (int32_t eid : skel.incident_edges(skel.super_root())) {
    super_root_bytes += skel.edge(eid).sizes.TotalBytes(kCompAll);
  }
  // The root is the intersection of all leaves; leaf 0 is empty, so the root
  // delta from the (empty) super-root is empty.
  EXPECT_EQ(super_root_bytes, 0u);
}

TEST_F(DeltaGraphTest, InitialSnapshotSeedsLeafZero) {
  // Dataset-2 style: a non-empty starting graph followed by churn.
  RandomTraceOptions opts;
  opts.num_events = 1500;
  opts.seed = 53;
  GeneratedTrace bootstrap = GenerateRandomTrace(opts);
  const Snapshot g0 = bootstrap.world->graph();
  const Timestamp t0 = bootstrap.events.back().time;

  std::vector<Event> churn;
  ChurnOptions copts;
  copts.num_events = 2000;
  copts.seed = 5;
  AppendChurnPhase(bootstrap.world.get(), t0 + 1, copts, &churn);

  store_ = NewMemKVStore();
  DeltaGraphOptions dgo;
  dgo.leaf_size = 300;
  dgo.functions = {"intersection"};
  auto dg = DeltaGraph::Create(store_.get(), dgo);
  ASSERT_TRUE(dg.ok());
  dg_ = std::move(dg).value();
  ASSERT_TRUE(dg_->SetInitialSnapshot(g0, t0).ok());
  EXPECT_FALSE(dg_->SetInitialSnapshot(g0, t0).ok());  // Only once.
  ASSERT_TRUE(dg_->AppendAll(churn).ok());
  ASSERT_TRUE(dg_->Finalize().ok());

  // Ground truth: g0 plus churn prefix.
  auto expected_at = [&](Timestamp t) {
    Snapshot g = g0;
    for (const auto& e : churn) {
      if (e.time > t) break;
      EXPECT_TRUE(g.Apply(e, true).ok());
    }
    return g;
  };
  const Timestamp t_max = churn.back().time;
  for (Timestamp t : {t0 - 5, t0, (t0 + t_max) / 2, t_max}) {
    auto snap = dg_->GetSnapshot(t);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    Snapshot expected = expected_at(std::max(t, t0));
    EXPECT_TRUE(snap.value().Equals(expected))
        << "t=" << t << "\n" << snap.value().DiffString(expected);
  }
  // With a non-empty G0 and edge-only churn, the Intersection root retains
  // G0's nodes: the super-root delta is non-trivial.
  uint64_t super_root_elements = 0;
  const auto& skel = dg_->skeleton();
  for (int32_t eid : skel.incident_edges(skel.super_root())) {
    super_root_elements += skel.edge(eid).sizes.TotalElements(kCompAll);
  }
  EXPECT_GT(super_root_elements, g0.NodeCount() / 2);
}

// ---------------------------------------------------------------------------
// Partitioned index
// ---------------------------------------------------------------------------

class PartitionedTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionedTest, MergedRetrievalMatchesUnpartitioned) {
  RandomTraceOptions opts;
  opts.num_events = 5000;
  opts.seed = 47;
  GeneratedTrace trace = GenerateRandomTrace(opts);

  const int P = GetParam();
  std::vector<std::unique_ptr<KVStore>> stores;
  std::vector<KVStore*> store_ptrs;
  for (int i = 0; i < P; ++i) {
    stores.push_back(NewMemKVStore());
    store_ptrs.push_back(stores.back().get());
  }
  DeltaGraphOptions dgo;
  dgo.leaf_size = 200;
  auto pdg = PartitionedDeltaGraph::Create(store_ptrs, dgo);
  ASSERT_TRUE(pdg.ok());
  ASSERT_TRUE(pdg.value()->AppendAll(trace.events).ok());
  ASSERT_TRUE(pdg.value()->Finalize().ok());

  const Timestamp t_max = trace.events.back().time;
  for (int i = 1; i <= 6; ++i) {
    const Timestamp t = t_max * i / 6;
    auto snap = pdg.value()->GetSnapshot(t, kCompAll);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    Snapshot expected = ReplayAt(trace.events, t);
    EXPECT_TRUE(snap.value().Equals(expected))
        << "t=" << t << "\n" << snap.value().DiffString(expected);
  }
  // Parts are disjoint and cover everything.
  auto parts = pdg.value()->GetSnapshotParts(t_max);
  ASSERT_TRUE(parts.ok());
  size_t total_nodes = 0;
  for (const auto& p : parts.value()) total_nodes += p.NodeCount();
  EXPECT_EQ(total_nodes, ReplayAt(trace.events, t_max).NodeCount());
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, PartitionedTest,
                         ::testing::Values(1, 2, 4, 7));

TEST(PartitionedMultipointTest, MatchesReplayAtEveryTime) {
  RandomTraceOptions opts;
  opts.num_events = 4000;
  opts.seed = 61;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  std::vector<std::unique_ptr<KVStore>> stores;
  std::vector<KVStore*> ptrs;
  for (int i = 0; i < 3; ++i) {
    stores.push_back(NewMemKVStore());
    ptrs.push_back(stores.back().get());
  }
  DeltaGraphOptions dgo;
  dgo.leaf_size = 250;
  auto pdg = PartitionedDeltaGraph::Create(ptrs, dgo);
  ASSERT_TRUE(pdg.ok());
  ASSERT_TRUE(pdg.value()->AppendAll(trace.events).ok());
  ASSERT_TRUE(pdg.value()->Finalize().ok());

  const Timestamp t_max = trace.events.back().time;
  std::vector<Timestamp> times;
  for (int i = 1; i <= 5; ++i) times.push_back(t_max * i / 6);
  auto snaps = pdg.value()->GetSnapshots(times, kCompAll);
  ASSERT_TRUE(snaps.ok()) << snaps.status().ToString();
  ASSERT_EQ(snaps.value().size(), times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    Snapshot expected = ReplayAt(trace.events, times[i]);
    EXPECT_TRUE(snaps.value()[i].Equals(expected))
        << "t=" << times[i] << "\n" << snaps.value()[i].DiffString(expected);
  }
}

TEST(PartitionedInitialSnapshotTest, SplitsAndMergesExactly) {
  RandomTraceOptions opts;
  opts.num_events = 1500;
  opts.seed = 67;
  GeneratedTrace bootstrap = GenerateRandomTrace(opts);
  const Snapshot g0 = bootstrap.world->graph();
  const Timestamp t0 = bootstrap.events.back().time;
  std::vector<Event> churn;
  ChurnOptions copts;
  copts.num_events = 1200;
  copts.seed = 71;
  AppendChurnPhase(bootstrap.world.get(), t0 + 1, copts, &churn);

  std::vector<std::unique_ptr<KVStore>> stores;
  std::vector<KVStore*> ptrs;
  for (int i = 0; i < 4; ++i) {
    stores.push_back(NewMemKVStore());
    ptrs.push_back(stores.back().get());
  }
  DeltaGraphOptions dgo;
  dgo.leaf_size = 200;
  auto pdg = PartitionedDeltaGraph::Create(ptrs, dgo);
  ASSERT_TRUE(pdg.ok());
  ASSERT_TRUE(pdg.value()->SetInitialSnapshot(g0, t0).ok());
  ASSERT_TRUE(pdg.value()->AppendAll(churn).ok());
  ASSERT_TRUE(pdg.value()->Finalize().ok());

  auto expected_at = [&](Timestamp t) {
    Snapshot g = g0;
    for (const auto& e : churn) {
      if (e.time > t) break;
      EXPECT_TRUE(g.Apply(e, true).ok());
    }
    return g;
  };
  for (Timestamp t : {t0, (t0 + churn.back().time) / 2, churn.back().time}) {
    auto snap = pdg.value()->GetSnapshot(t);
    ASSERT_TRUE(snap.ok());
    Snapshot expected = expected_at(t);
    EXPECT_TRUE(snap.value().Equals(expected))
        << "t=" << t << "\n" << snap.value().DiffString(expected);
  }
}

// Stress: interleave queries with continuing updates — the paper's setting
// of "maintaining the current state of the database for ongoing updates and
// queries" at once.
TEST(UpdateQueryInterleavingTest, QueriesStayCorrectWhileUpdating) {
  RandomTraceOptions opts;
  opts.num_events = 800;
  opts.seed = 73;
  GeneratedTrace trace = GenerateRandomTrace(opts);

  auto store = NewMemKVStore();
  DeltaGraphOptions dgo;
  dgo.leaf_size = 150;
  auto dg_result = DeltaGraph::Create(store.get(), dgo);
  ASSERT_TRUE(dg_result.ok());
  auto dg = std::move(dg_result).value();
  ASSERT_TRUE(dg->AppendAll(trace.events).ok());
  ASSERT_TRUE(dg->Finalize().ok());

  std::vector<Event> all = trace.events;
  test::SeededRng rng(79);
  Timestamp t = all.back().time;
  for (int round = 0; round < 30; ++round) {
    // A burst of updates...
    std::vector<Event> burst;
    for (int i = 0; i < 40; ++i) {
      t += 1;
      trace.world->AddRandomEdge(t, false, &burst);
      if (i % 4 == 0) trace.world->DeleteRandomEdge(t, &burst);
    }
    ASSERT_TRUE(dg->AppendAll(burst).ok());
    all.insert(all.end(), burst.begin(), burst.end());
    // ...then a query at a random historical or recent time.
    const Timestamp probe =
        all.front().time + static_cast<Timestamp>(
                               rng.Uniform(static_cast<uint64_t>(t - all.front().time)));
    auto snap = dg->GetSnapshot(probe);
    ASSERT_TRUE(snap.ok()) << "round " << round;
    Snapshot expected = ReplayAt(all, probe);
    ASSERT_TRUE(snap.value().Equals(expected))
        << "round " << round << " t=" << probe << "\n"
        << snap.value().DiffString(expected);
  }
}

// ---------------------------------------------------------------------------
// Materialization paths: all three must leave identical skeleton state
// ---------------------------------------------------------------------------

// The planner weights a materialized start by the node's element_count and
// the adaptive advisor sizes candidates with it, so a path that sets
// `materialized` without refreshing `element_count` mis-costs every later
// plan. Struct-only copies expose it: their element counts differ from the
// full counts CutLeaf recorded at build time.
TEST(MaterializationPathsTest, AllPathsLeaveIdenticalSkeletonState) {
  RandomTraceOptions opts;
  opts.num_events = 3000;
  opts.seed = 99;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  DeltaGraphOptions dgo;
  dgo.leaf_size = 250;

  auto build = [&](KVStore* store) {
    auto dg = DeltaGraph::Create(store, dgo);
    EXPECT_TRUE(dg.ok()) << dg.status().ToString();
    auto g = std::move(dg).value();
    EXPECT_TRUE(g->AppendAll(trace.events).ok());
    EXPECT_TRUE(g->Finalize().ok());
    return g;
  };
  auto s1 = NewMemKVStore(), s2 = NewMemKVStore(), s3 = NewMemKVStore();
  auto per_node = build(s1.get());
  auto all_leaves = build(s2.get());
  auto by_depth = build(s3.get());
  ASSERT_GE(per_node->skeleton().leaves().size(), 4u);

  for (int32_t leaf : per_node->skeleton().leaves()) {
    ASSERT_TRUE(per_node->MaterializeNode(leaf, kCompStruct).ok());
  }
  ASSERT_TRUE(all_leaves->MaterializeAllLeaves(kCompStruct).ok());
  // Deep enough that the NodesAtDepth frontier has converged to the leaf set
  // (leaves persist in the frontier on ragged trees).
  auto md = by_depth->MaterializeDepth(64, kCompStruct);
  ASSERT_TRUE(md.ok()) << md.status().ToString();
  EXPECT_EQ(md.value(), by_depth->skeleton().leaves().size());

  const Skeleton& a = per_node->skeleton();
  const Skeleton& b = all_leaves->skeleton();
  const Skeleton& c = by_depth->skeleton();
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.node_count(), c.node_count());
  for (size_t i = 0; i < a.node_count(); ++i) {
    const int32_t id = static_cast<int32_t>(i);
    const SkeletonNode& na = a.node(id);
    const SkeletonNode& nb = b.node(id);
    const SkeletonNode& nc = c.node(id);
    EXPECT_EQ(na.materialized, nb.materialized) << "node " << id;
    EXPECT_EQ(na.materialized, nc.materialized) << "node " << id;
    EXPECT_EQ(na.materialized_components, nb.materialized_components)
        << "node " << id;
    EXPECT_EQ(na.materialized_components, nc.materialized_components)
        << "node " << id;
    EXPECT_EQ(na.element_count, nb.element_count) << "node " << id;
    EXPECT_EQ(na.element_count, nc.element_count) << "node " << id;
    if (na.is_leaf) {
      ASSERT_NE(per_node->materialized_snapshot(id), nullptr);
      EXPECT_EQ(na.element_count,
                per_node->materialized_snapshot(id)->ElementCount())
          << "node " << id;
    }
  }
}

// Finalize leaves a later root off the super-root while the eventlists since
// the last attached root are short, but that root still heads its subtree:
// depth 0 lists every root, deep enough the frontier is the whole leaf set,
// and materializing by depth reaches the unattached subtrees too.
TEST(MaterializationPathsTest, DepthCoversUnattachedRoots) {
  RandomTraceOptions opts;
  opts.num_events = 1500;
  opts.seed = 23;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  auto store = NewMemKVStore();
  DeltaGraphOptions dgo;
  dgo.leaf_size = 50;
  auto dg = DeltaGraph::Create(store.get(), dgo);
  ASSERT_TRUE(dg.ok()) << dg.status().ToString();
  // A bulk load, then short rounds: their eventlist chains stay below the
  // graph's size, so most of their roots go unattached.
  const auto windows = test::AppendInFinalizedRounds(
      dg.value().get(), trace.events, {800, 900, 1000, 1100, 1200, 1300, 1400, 1500});
  const size_t unattached = static_cast<size_t>(std::count_if(
      windows.begin(), windows.end(), [](const auto& w) { return !w.attached; }));
  ASSERT_GT(unattached, 0u);
  const Skeleton& skel = dg.value()->skeleton();
  EXPECT_EQ(test::SuperRootEdges(skel), windows.size() - unattached);

  // One root per Finalize (a single hierarchy).
  EXPECT_EQ(dg.value()->NodesAtDepth(0).size(), windows.size());
  std::vector<int32_t> leaves = skel.leaves();
  std::sort(leaves.begin(), leaves.end());
  EXPECT_EQ(dg.value()->NodesAtDepth(64), leaves);

  auto md = dg.value()->MaterializeDepth(0);
  ASSERT_TRUE(md.ok()) << md.status().ToString();
  EXPECT_EQ(md.value(), windows.size());
  for (const test::FinalizeWindow& w : windows) {
    if (w.begin == 0) continue;
    for (Timestamp t : test::TimesInWindow(skel, w)) {
      auto snap = dg.value()->GetSnapshot(t);
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      Snapshot expected = ReplayAt(trace.events, t);
      EXPECT_TRUE(snap.value().Equals(expected))
          << "t=" << t << "\n" << snap.value().DiffString(expected);
    }
  }
}

// ---------------------------------------------------------------------------
// FetchFrequency: concurrency and determinism
// ---------------------------------------------------------------------------

// Reset must serialize with EnsureSize's count carry-over: an unlocked reset
// can zero the old arena after the grow already copied the counts out,
// resurrecting them in the new arena. Recorders hammer both arenas the whole
// time; run under TSan this also proves the arena handoff itself is clean.
TEST(FetchFrequencyTest, ConcurrentGrowResetRecordIsSafe) {
  FetchFrequency freq;
  freq.SetAlwaysOn(true);
  freq.EnsureSize(64);

  std::atomic<bool> stop{false};
  std::vector<std::thread> recorders;
  for (int r = 0; r < 2; ++r) {
    recorders.emplace_back([&freq, &stop, r] {
      uint64_t x = 88172645463325252ull + r;
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        freq.Record(static_cast<DeltaId>(x % 4096));
      }
    });
  }
  std::thread grower([&freq] {
    for (size_t n = 64; n <= 4096; n += 64) {
      freq.EnsureSize(n);
      std::this_thread::yield();
    }
  });
  std::thread resetter([&freq] {
    for (int i = 0; i < 200; ++i) {
      if (i % 3 == 0) {
        freq.Decay();
      } else {
        freq.Reset();
      }
      std::this_thread::yield();
    }
  });
  grower.join();
  resetter.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : recorders) t.join();

  EXPECT_GE(freq.size(), 4096u);
  freq.Reset();
  for (size_t id = 0; id < freq.size(); ++id) {
    ASSERT_EQ(freq.Count(id), 0u) << "stale count resurrected at id " << id;
  }
}

TEST(FetchFrequencyTest, TopKJSONBreaksTiesById) {
  FetchFrequency freq;
  freq.SetAlwaysOn(true);
  freq.EnsureSize(16);
  for (DeltaId id : {9, 3, 5}) {
    freq.Record(id);
    freq.Record(id);
  }
  for (int i = 0; i < 5; ++i) freq.Record(7);
  // Count descending, equal counts by ascending id — including which of the
  // tied entries make a truncated top-k.
  EXPECT_EQ(freq.TopKJSON(8),
            "[{\"id\":7,\"fetches\":5},{\"id\":3,\"fetches\":2},"
            "{\"id\":5,\"fetches\":2},{\"id\":9,\"fetches\":2}]");
  EXPECT_EQ(freq.TopKJSON(2),
            "[{\"id\":7,\"fetches\":5},{\"id\":3,\"fetches\":2}]");
}

}  // namespace
}  // namespace hgdb

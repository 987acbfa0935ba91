#include <gtest/gtest.h>

#include <algorithm>

#include "deltagraph/delta_graph.h"
#include "deltagraph/planner.h"
#include "kvstore/kv_store.h"
#include "tests/finalize_rounds.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hgdb {
namespace {

// Hand-built skeleton:
//
//        SR (super-root, empty)
//        |
//        R (root)
//       /   .
//      A     B        (interior, arity 2)
//     /|     |.
//    L0 L1 L2 L3      (leaves, boundaries 10/20/30/40)
//    L0-L1-L2-L3      (eventlist edges)
//
// Delta byte sizes are chosen so path choices are easy to reason about.
class PlannerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    SkeletonNode sr;
    sr.is_super_root = true;
    sr_ = skel_.AddNode(sr);
    skel_.SetSuperRoot(sr_);

    auto leaf = [&](Timestamp boundary) {
      SkeletonNode n;
      n.is_leaf = true;
      n.level = 1;
      n.boundary_time = boundary;
      n.element_count = 100;
      return skel_.AddNode(n);
    };
    l0_ = leaf(10);
    l1_ = leaf(20);
    l2_ = leaf(30);
    l3_ = leaf(40);

    SkeletonNode interior;
    interior.level = 2;
    a_ = skel_.AddNode(interior);
    b_ = skel_.AddNode(interior);
    SkeletonNode root;
    root.level = 3;
    r_ = skel_.AddNode(root);

    auto delta_edge = [&](int32_t from, int32_t to, uint64_t bytes) {
      SkeletonEdge e;
      e.from = from;
      e.to = to;
      e.delta_id = next_id_++;
      e.sizes.bytes[0] = bytes;
      return skel_.AddEdge(e);
    };
    auto el_edge = [&](int32_t from, int32_t to, uint64_t bytes) {
      SkeletonEdge e;
      e.from = from;
      e.to = to;
      e.is_eventlist = true;
      e.delta_id = next_id_++;
      e.sizes.bytes[0] = bytes;
      return skel_.AddEdge(e);
    };
    e_sr_r_ = delta_edge(sr_, r_, 50);
    e_r_a_ = delta_edge(r_, a_, 100);
    e_r_b_ = delta_edge(r_, b_, 100);
    e_a_l0_ = delta_edge(a_, l0_, 200);
    e_a_l1_ = delta_edge(a_, l1_, 200);
    e_b_l2_ = delta_edge(b_, l2_, 200);
    e_b_l3_ = delta_edge(b_, l3_, 200);
    e_l01_ = el_edge(l0_, l1_, 1000);
    e_l12_ = el_edge(l1_, l2_, 1000);
    e_l23_ = el_edge(l2_, l3_, 1000);
  }

  PlannerContext Ctx() {
    PlannerContext ctx;
    ctx.skeleton = &skel_;
    return ctx;
  }

  // Collects (kind, edge) pairs in execution order for a linear plan.
  static std::vector<PlanStep> LinearSteps(const Plan& plan) {
    std::vector<PlanStep> steps;
    const PlanNode* n = plan.root.get();
    while (n != nullptr && !n->children.empty()) {
      EXPECT_EQ(n->children.size(), 1u);
      steps.push_back(n->children[0].first);
      n = n->children[0].second.get();
    }
    return steps;
  }

  Skeleton skel_;
  DeltaId next_id_ = 1;
  int32_t sr_, l0_, l1_, l2_, l3_, a_, b_, r_;
  int32_t e_sr_r_, e_r_a_, e_r_b_, e_a_l0_, e_a_l1_, e_b_l2_, e_b_l3_;
  int32_t e_l01_, e_l12_, e_l23_;
};

TEST_F(PlannerFixture, ExactLeafUsesDescent) {
  Planner planner(Ctx());
  auto plan = planner.PlanSnapshots({20}, kCompStruct);  // L1's boundary.
  ASSERT_TRUE(plan.ok());
  auto steps = LinearSteps(plan.value());
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].edge, e_sr_r_);
  EXPECT_EQ(steps[1].edge, e_r_a_);
  EXPECT_EQ(steps[2].edge, e_a_l1_);
  // Descent cost: 50 + 100 + 200 + 3 overheads.
  EXPECT_NEAR(plan.value().estimated_cost, 350 + 3 * 64.0, 1.0);
}

TEST_F(PlannerFixture, MidEventlistSplitsAtVirtualNode) {
  Planner planner(Ctx());
  // t=22 sits in (20, 30]: 20% into eventlist L1->L2.
  auto plan = planner.PlanSnapshots({22}, kCompStruct);
  ASSERT_TRUE(plan.ok());
  auto steps = LinearSteps(plan.value());
  ASSERT_EQ(steps.size(), 4u);
  // Cheapest: descend to L1 (500 bytes) then 20% of the eventlist (200),
  // rather than to L2 (500) plus 80% backward (800).
  EXPECT_EQ(steps[2].edge, e_a_l1_);
  EXPECT_EQ(steps[3].kind, PlanStep::Kind::kApplyEvents);
  EXPECT_EQ(steps[3].edge, e_l12_);
  EXPECT_TRUE(steps[3].forward);
  EXPECT_EQ(steps[3].lo, 20);
  EXPECT_EQ(steps[3].hi, 22);
}

TEST_F(PlannerFixture, NearRightLeafGoesBackward) {
  Planner planner(Ctx());
  // t=29 is 90% into (20, 30]: cheaper to reach L2 and undo the last 10%.
  auto plan = planner.PlanSnapshots({29}, kCompStruct);
  ASSERT_TRUE(plan.ok());
  auto steps = LinearSteps(plan.value());
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps[2].edge, e_b_l2_);
  EXPECT_EQ(steps[3].edge, e_l12_);
  EXPECT_FALSE(steps[3].forward);  // Backward from the right leaf.
}

TEST_F(PlannerFixture, MaterializedNodeShortCircuits) {
  skel_.mutable_node(a_)->materialized = true;
  skel_.mutable_node(a_)->materialized_components = kCompStruct;
  skel_.mutable_node(a_)->element_count = 10;  // Cheap copy.
  Planner planner(Ctx());
  auto plan = planner.PlanSnapshots({20}, kCompStruct);
  ASSERT_TRUE(plan.ok());
  auto steps = LinearSteps(plan.value());
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].kind, PlanStep::Kind::kLoadMaterialized);
  EXPECT_EQ(steps[0].node, a_);
  EXPECT_EQ(steps[1].edge, e_a_l1_);
}

TEST_F(PlannerFixture, MaterializedWithMissingComponentsIsIgnored) {
  skel_.mutable_node(a_)->materialized = true;
  skel_.mutable_node(a_)->materialized_components = kCompStruct;  // No attrs.
  Planner planner(Ctx());
  auto plan = planner.PlanSnapshots({20}, kCompStruct | kCompNodeAttr);
  ASSERT_TRUE(plan.ok());
  auto steps = LinearSteps(plan.value());
  // Must take the full descent: the materialized copy lacks attributes.
  ASSERT_GE(steps.size(), 3u);
  EXPECT_EQ(steps[0].kind, PlanStep::Kind::kApplyDelta);
}

TEST_F(PlannerFixture, DisallowMaterializedGate) {
  skel_.mutable_node(a_)->materialized = true;
  skel_.mutable_node(a_)->materialized_components = kCompAll;
  PlannerContext ctx = Ctx();
  ctx.allow_materialized = false;  // Aux retrieval mode.
  Planner planner(ctx);
  auto plan = planner.PlanSnapshots({20}, kCompStruct);
  ASSERT_TRUE(plan.ok());
  auto steps = LinearSteps(plan.value());
  EXPECT_EQ(steps[0].kind, PlanStep::Kind::kApplyDelta);
}

TEST_F(PlannerFixture, MultipointSharesThePrefix) {
  Planner planner(Ctx());
  auto plan = planner.PlanSnapshots({10, 20}, kCompStruct);  // L0 and L1.
  ASSERT_TRUE(plan.ok());
  // Shared prefix SR->R->A, then branch to both leaves:
  // total = 50 + 100 + 200 + 200 (+4 overheads), far below two full paths.
  EXPECT_NEAR(plan.value().estimated_cost, 550 + 4 * 64.0, 1.0);
  EXPECT_EQ(plan.value().StepCount(), 4u);
}

TEST_F(PlannerFixture, MultipointAcrossSubtreesBranchesAtRoot) {
  Planner planner(Ctx());
  auto plan = planner.PlanSnapshots({10, 40}, kCompStruct);  // L0 and L3.
  ASSERT_TRUE(plan.ok());
  // SR->R shared; R->A->L0 and R->B->L3.
  EXPECT_EQ(plan.value().StepCount(), 5u);
  EXPECT_NEAR(plan.value().estimated_cost, 50 + 2 * (100 + 200) + 5 * 64.0, 1.0);
}

TEST_F(PlannerFixture, ComponentSelectionChangesWeights) {
  // Make the nodeattr component of one edge huge; a struct-only query must
  // ignore it.
  skel_.mutable_edge(e_a_l1_)->sizes.bytes[1] = 1000000;
  Planner planner(Ctx());
  auto plan_struct = planner.PlanSnapshots({20}, kCompStruct);
  auto plan_full = planner.PlanSnapshots({20}, kCompStruct | kCompNodeAttr);
  ASSERT_TRUE(plan_struct.ok());
  ASSERT_TRUE(plan_full.ok());
  EXPECT_LT(plan_struct.value().estimated_cost, 1000.0);
  // The attr-laden query routes around the huge delta via the eventlists.
  auto steps = LinearSteps(plan_full.value());
  bool uses_heavy_edge = false;
  for (const auto& s : steps) {
    if (s.kind == PlanStep::Kind::kApplyDelta && s.edge == e_a_l1_) {
      uses_heavy_edge = true;
    }
  }
  EXPECT_FALSE(uses_heavy_edge);
}

TEST_F(PlannerFixture, TimesBeforeFirstBoundaryResolveToFirstLeaf) {
  Planner planner(Ctx());
  auto plan = planner.PlanSnapshots({5}, kCompStruct);
  ASSERT_TRUE(plan.ok());
  auto steps = LinearSteps(plan.value());
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(steps.back().edge, e_a_l0_);  // Ends at leaf 0, no partial events.
}

TEST_F(PlannerFixture, EmptySkeletonIsRejected) {
  Skeleton empty;
  PlannerContext ctx;
  ctx.skeleton = &empty;
  Planner planner(ctx);
  EXPECT_FALSE(planner.PlanSnapshots({1}, kCompStruct).ok());
}

TEST_F(PlannerFixture, PlanNodesReachesInteriorTargets) {
  Planner planner(Ctx());
  auto plan = planner.PlanNodes({a_, b_}, kCompStruct);
  ASSERT_TRUE(plan.ok());
  // SR->R shared, then R->A and R->B.
  EXPECT_EQ(plan.value().StepCount(), 3u);
}

TEST_F(PlannerFixture, RecentEventsChainBeyondLastLeaf) {
  PlannerContext ctx = Ctx();
  ctx.recent_count = 100;
  ctx.recent_end = 50;
  ctx.has_current = true;
  ctx.current_elements = 100;
  Planner planner(ctx);
  auto plan = planner.PlanSnapshots({45}, kCompStruct);
  ASSERT_TRUE(plan.ok());
  auto steps = LinearSteps(plan.value());
  ASSERT_FALSE(steps.empty());
  // The tail step replays recent events (either from L3 forward or from the
  // current graph backward).
  EXPECT_EQ(steps.back().kind, PlanStep::Kind::kApplyRecentEvents);
}

// A current graph over an empty recent tail: the context's recent_end is
// kMinTimestamp while the last boundary is 40. Costing the (empty) chain from
// the last leaf to the current graph must not subtract across that gap (a
// signed overflow, fatal under -fsanitize=undefined -fno-sanitize-recover).
TEST_F(PlannerFixture, EmptyRecentTailBesideCurrentGraph) {
  PlannerContext ctx = Ctx();
  ctx.recent_count = 0;
  ctx.recent_end = kMinTimestamp;
  ctx.has_current = true;
  ctx.current_elements = 100;
  Planner planner(ctx);
  auto plan = planner.PlanSnapshots({45}, kCompStruct);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto steps = LinearSteps(plan.value());
  ASSERT_FALSE(steps.empty());
  // The empty tail costs nothing to cross, so loading the current graph
  // (0.05 * 24 * 100 = 120) beats the descent to L3 (350 + 3 * 64).
  EXPECT_EQ(steps.front().kind, PlanStep::Kind::kLoadCurrent);
  EXPECT_NEAR(plan.value().estimated_cost, 120.0, 1.0);
}

TEST_F(PlannerFixture, CachedSinglepointMatchesUncachedCost) {
  Planner planner(Ctx());
  SsspCache cache;
  for (Timestamp t : {5, 15, 20, 22, 29, 35, 40}) {
    auto cached = planner.PlanSinglepointCached(t, kCompStruct, &cache);
    auto full = planner.PlanSnapshots({t}, kCompStruct);
    ASSERT_TRUE(cached.ok()) << "t=" << t;
    ASSERT_TRUE(full.ok());
    EXPECT_NEAR(cached.value().estimated_cost, full.value().estimated_cost,
                full.value().estimated_cost * 0.25 + 64.0)
        << "t=" << t;
  }
  // The SSSP ran once: the cache stayed valid across the whole sweep.
  EXPECT_TRUE(cache.ValidFor(skel_, kCompStruct));
}

TEST_F(PlannerFixture, CacheInvalidatedBySkeletonChange) {
  Planner planner(Ctx());
  SsspCache cache;
  ASSERT_TRUE(planner.PlanSinglepointCached(20, kCompStruct, &cache).ok());
  EXPECT_TRUE(cache.ValidFor(skel_, kCompStruct));
  skel_.SetMaterialized(a_, true);  // Any mutation bumps the version.
  EXPECT_FALSE(cache.ValidFor(skel_, kCompStruct));
  skel_.mutable_node(a_)->materialized_components = kCompStruct;
  skel_.mutable_node(a_)->element_count = 1;
  auto plan = planner.PlanSinglepointCached(20, kCompStruct, &cache);
  ASSERT_TRUE(plan.ok());
  // The rebuilt cache routes through the cheap materialized node.
  EXPECT_EQ(plan.value().root->children[0].first.kind,
            PlanStep::Kind::kLoadMaterialized);
}

TEST_F(PlannerFixture, CacheIsComponentSpecific) {
  skel_.mutable_edge(e_a_l1_)->sizes.bytes[1] = 1000000;  // Huge attr column.
  Planner planner(Ctx());
  SsspCache cache;
  auto s1 = planner.PlanSinglepointCached(20, kCompStruct, &cache);
  ASSERT_TRUE(s1.ok());
  const double struct_cost = s1.value().estimated_cost;
  auto s2 = planner.PlanSinglepointCached(20, kCompStruct | kCompNodeAttr, &cache);
  ASSERT_TRUE(s2.ok());
  EXPECT_GT(s2.value().estimated_cost, struct_cost);  // Rebuilt for new mask.
}

// A window whose root Finalize left off the super-root hangs from the last
// leaf of the latest attached window by the leaf eventlists. So every plan
// for a time in it costs at most that leaf's cost plus the planner weight
// (per-fetch overhead + bytes) of each eventlist from there to the window's
// end — which Finalize keeps below one root's worth of events.
TEST(PlannerBoundTest, UnattachedWindowCostsAtMostChainStartPlusChain) {
  const PlannerCosts costs;
  size_t unattached = 0;
  for (uint64_t seed : test::PropertySeeds(6, 7700)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());
    RandomTraceOptions topts;
    topts.num_events = 1400;
    topts.seed = seed;
    GeneratedTrace trace = GenerateRandomTrace(topts);
    auto store = NewMemKVStore();
    DeltaGraphOptions opts;
    opts.leaf_size = 30 + rng.Uniform(40);
    opts.arity = 2 + static_cast<int>(rng.Uniform(2));
    auto dg = DeltaGraph::Create(store.get(), opts);
    ASSERT_TRUE(dg.ok()) << dg.status().ToString();
    // A bulk load, then rounds far smaller than the graph.
    std::vector<size_t> cuts = {700};
    while (cuts.back() < trace.events.size()) {
      cuts.push_back(std::min(trace.events.size(), cuts.back() + 50 + rng.Uniform(100)));
    }
    const auto windows =
        test::AppendInFinalizedRounds(dg.value().get(), trace.events, cuts);

    const Skeleton& skel = dg.value()->skeleton();
    const std::vector<int32_t>& leaves = skel.leaves();
    Planner planner(PlannerContext{.skeleton = &skel});
    SsspCache cache;
    for (const test::FinalizeWindow& w : windows) {
      if (w.attached) continue;
      ++unattached;
      auto start = planner.PlanNodes({leaves[w.chain_start]}, kCompAll);
      ASSERT_TRUE(start.ok()) << start.status().ToString();
      double bound = start.value().estimated_cost;
      for (size_t i = w.chain_start; i + 1 < w.end; ++i) {
        const int32_t eid = skel.FindEventlistEdge(leaves[i], leaves[i + 1]);
        ASSERT_GE(eid, 0);
        bound += costs.per_edge_overhead +
                 static_cast<double>(skel.edge(eid).sizes.TotalBytes(kCompAll));
      }
      for (Timestamp t : test::TimesInWindow(skel, w)) {
        auto plan = planner.PlanSnapshots({t}, kCompAll);
        auto cached = planner.PlanSinglepointCached(t, kCompAll, &cache);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        ASSERT_TRUE(cached.ok()) << cached.status().ToString();
        // The slack covers only summation-order rounding.
        EXPECT_LE(plan.value().estimated_cost, bound + 1e-6) << "t=" << t;
        EXPECT_LE(cached.value().estimated_cost, bound + 1e-6) << "t=" << t;
      }
    }
  }
  EXPECT_GT(unattached, 0u);
}

}  // namespace
}  // namespace hgdb

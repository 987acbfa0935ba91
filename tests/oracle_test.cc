// Randomized replay-oracle harness: ~50 seeded random workloads (interleaved
// appends and finalizes, equal-time runs, attribute churn, deletes, random
// leaf sizes / arities / differential functions, optional materialized
// starts) are indexed into a DeltaGraph, and every retrieval path — the plan
// executor inline and at 2 and 8 threads, each with prefetching on and off,
// across component subsets — is checked element-for-element against a
// NaiveReplayOracle that rebuilds each requested snapshot by replaying the
// full event log into plain std containers (tests/test_oracle.h). This is
// the safety net for the chunked-overlay COW stores: aliasing bugs between
// snapshots that share chunks show up here as concrete element diffs.
//
// Any failure prints the workload seed; HISTGRAPH_TEST_SEED=<seed> reruns
// exactly that workload (see tests/README.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "deltagraph/delta_graph.h"
#include "deltagraph/partitioned_delta_graph.h"
#include "exec/io_pool.h"
#include "exec/task_pool.h"
#include "kvstore/kv_store.h"
#include "tests/finalize_rounds.h"
#include "tests/test_oracle.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hgdb {
namespace {

struct OracleWorkload {
  std::unique_ptr<KVStore> store;
  std::unique_ptr<DeltaGraph> dg;
  std::vector<Event> log;  // Full append-order event log (the ground truth).
};

// Builds a randomized index: trace shape, index geometry, the differential
// function, the number of append/finalize rounds, materialization, and cache
// capacity all derive from the seed.
OracleWorkload BuildWorkload(test::SeededRng& rng) {
  RandomTraceOptions topts;
  topts.num_events = 400 + rng.Uniform(800);
  topts.seed = rng.seed() * 977 + 13;
  topts.p_same_time = 0.10 + rng.NextDouble() * 0.35;  // Equal-time runs.
  topts.p_del_edge = 0.06 + rng.NextDouble() * 0.14;   // Deletes.
  topts.p_del_node = rng.NextDouble() * 0.05;
  topts.p_node_attr = 0.10 + rng.NextDouble() * 0.20;  // Attribute churn.
  topts.p_edge_attr = 0.05 + rng.NextDouble() * 0.15;
  GeneratedTrace trace = GenerateRandomTrace(topts);

  OracleWorkload w;
  w.store = NewMemKVStore();
  DeltaGraphOptions opts;
  opts.leaf_size = 40 + rng.Uniform(120);
  opts.arity = 2 + static_cast<int>(rng.Uniform(3));
  const char* kFunctions[] = {"intersection", "union", "balanced"};
  opts.functions = {kFunctions[rng.Uniform(3)]};
  auto dg = DeltaGraph::Create(w.store.get(), opts);
  EXPECT_TRUE(dg.ok());
  w.dg = std::move(dg).value();

  // Interleave appends with 1..4 finalizes; a final partial segment is
  // sometimes left unfinalized so the recent-eventlist path is exercised.
  const size_t rounds = 1 + rng.Uniform(4);
  std::vector<size_t> cuts;
  for (size_t i = 0; i + 1 < rounds; ++i) {
    cuts.push_back(1 + rng.Uniform(trace.events.size() - 1));
  }
  cuts.push_back(trace.events.size());
  std::sort(cuts.begin(), cuts.end());
  size_t next = 0;
  for (size_t i = 0; i < cuts.size(); ++i) {
    for (; next < cuts[i]; ++next) {
      EXPECT_TRUE(w.dg->Append(trace.events[next]).ok())
          << trace.events[next].ToString();
    }
    const bool last_segment = i + 1 == cuts.size();
    if (!last_segment || rng.Chance(0.75)) {
      EXPECT_TRUE(w.dg->Finalize().ok());
    }
  }
  if (rng.Chance(0.4)) {
    EXPECT_TRUE(w.dg->MaterializeDepth(rng.Uniform(2) == 0 ? 0 : 1).ok());
  }
  if (rng.Chance(0.3)) w.dg->SetDecodedCacheCapacity(0);  // Real fetches only.
  w.log = std::move(trace.events);
  return w;
}

TEST(ReplayOracleTest, AllRetrievalPathsMatchNaiveReplay) {
  TaskPool pool2(2), pool8(8);
  IoPool io(2);
  TaskPool* const pools[] = {nullptr, &pool2, &pool8};
  IoPool* const ios[] = {nullptr, &io};
  const unsigned component_sets[] = {kCompAll, kCompStruct,
                                     kCompNodeAttr | kCompEdgeAttr};

  for (uint64_t seed : test::PropertySeeds(50, 5000)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());
    OracleWorkload w = BuildWorkload(rng);

    // Query times: random over (and slightly beyond) the span, plus exact
    // event timestamps (boundary-equal retrievals), plus a duplicate.
    std::vector<Timestamp> times = test::RandomTimes(rng, w.log, 5);
    times.push_back(w.log[rng.Uniform(w.log.size())].time);
    times.push_back(w.log.back().time);

    for (unsigned components : component_sets) {
      // One oracle per distinct requested time.
      std::map<Timestamp, test::NaiveReplayOracle> oracles;
      for (Timestamp t : times) {
        if (oracles.count(t) == 0) {
          oracles.emplace(t, test::NaiveReplayOracle::At(w.log, t, components));
        }
      }

      for (TaskPool* pool : pools) {
        for (IoPool* iop : ios) {
          w.dg->SetTaskPool(pool);
          w.dg->SetIoPool(iop);
          SCOPED_TRACE("threads=" + std::to_string(pool ? pool->parallelism() : 1) +
                       " prefetch=" + std::to_string(iop != nullptr) +
                       " components=" + std::to_string(components));
          auto got = w.dg->GetSnapshots(times, components);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got.value().size(), times.size());
          for (size_t i = 0; i < times.size(); ++i) {
            EXPECT_TRUE(oracles.at(times[i]).Matches(got.value()[i]))
                << "t=" << times[i];
          }
        }
      }

      // Singlepoint retrieval (linear plan + SSSP plan cache) on the serial
      // configuration.
      w.dg->SetTaskPool(nullptr);
      w.dg->SetIoPool(nullptr);
      for (size_t i = 0; i < 2 && i < times.size(); ++i) {
        auto got = w.dg->GetSnapshot(times[i], components);
        ASSERT_TRUE(got.ok()) << got.status().ToString() << " singlepoint t="
                              << times[i] << " components=" << components;
        EXPECT_TRUE(oracles.at(times[i]).Matches(got.value()))
            << "singlepoint t=" << times[i] << " components=" << components;
      }
    }
  }
}

// The sharded index under the same harness: the identical randomized
// workloads are split across shard counts {1, 2, 4} by chunk-aligned hash
// routing, ingested in parallel, and every retrieval mode — serial and
// parallel shard execution, prefetch on and off — must be element-identical
// to the single-log naive replay. Partitioning must be invisible in the
// result.
TEST(ReplayOracleTest, PartitionedRetrievalMatchesNaiveReplay) {
  TaskPool pool(4);
  IoPool io(2);
  TaskPool* const pools[] = {nullptr, &pool};
  IoPool* const ios[] = {nullptr, &io};

  for (uint64_t seed : test::PropertySeeds(12, 6200)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());

    RandomTraceOptions topts;
    topts.num_events = 400 + rng.Uniform(800);
    topts.seed = rng.seed() * 977 + 13;
    topts.p_same_time = 0.10 + rng.NextDouble() * 0.35;
    topts.p_del_edge = 0.06 + rng.NextDouble() * 0.14;
    topts.p_del_node = rng.NextDouble() * 0.05;
    topts.p_node_attr = 0.10 + rng.NextDouble() * 0.20;
    topts.p_edge_attr = 0.05 + rng.NextDouble() * 0.15;
    GeneratedTrace trace = GenerateRandomTrace(topts);

    std::vector<Timestamp> times = test::RandomTimes(rng, trace.events, 5);
    times.push_back(trace.events[rng.Uniform(trace.events.size())].time);
    std::map<Timestamp, test::NaiveReplayOracle> oracles;
    for (Timestamp t : times) {
      if (oracles.count(t) == 0) {
        oracles.emplace(t,
                        test::NaiveReplayOracle::At(trace.events, t, kCompAll));
      }
    }

    for (size_t shards : {1, 2, 4}) {
      std::vector<std::unique_ptr<KVStore>> stores;
      std::vector<KVStore*> ptrs;
      for (size_t i = 0; i < shards; ++i) {
        stores.push_back(NewMemKVStore());
        ptrs.push_back(stores.back().get());
      }
      DeltaGraphOptions opts;
      opts.leaf_size = 40 + rng.Uniform(120);
      opts.arity = 2 + static_cast<int>(rng.Uniform(3));
      const char* kFunctions[] = {"intersection", "union", "balanced"};
      opts.functions = {kFunctions[rng.Uniform(3)]};
      auto pdg = PartitionedDeltaGraph::Create(ptrs, opts);
      ASSERT_TRUE(pdg.ok());
      pdg.value()->SetTaskPool(&pool);  // Parallel per-shard ingest.
      ASSERT_TRUE(pdg.value()->AppendAll(trace.events).ok());
      if (rng.Chance(0.8)) {  // Sometimes answer from recent eventlists only.
        ASSERT_TRUE(pdg.value()->Finalize().ok());
      }
      if (rng.Chance(0.3)) pdg.value()->SetDecodedCacheCapacity(0);

      for (TaskPool* p : pools) {
        for (IoPool* iop : ios) {
          pdg.value()->SetTaskPool(p);
          pdg.value()->SetIoPool(iop);
          SCOPED_TRACE("shards=" + std::to_string(shards) +
                       " parallel=" + std::to_string(p != nullptr) +
                       " prefetch=" + std::to_string(iop != nullptr));
          auto got = pdg.value()->GetSnapshots(times);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got.value().size(), times.size());
          for (size_t i = 0; i < times.size(); ++i) {
            EXPECT_TRUE(oracles.at(times[i]).Matches(got.value()[i]))
                << "t=" << times[i];
          }
        }
      }
    }
  }
}

// A focused variant: append more events *after* the last finalize, at
// timestamps that collide with the final boundary (the PR 3 holdback fix),
// then check retrieval at exactly those times against the oracle.
TEST(ReplayOracleTest, PostFinalizeAppendsVisibleAtBoundaryTimes) {
  for (uint64_t seed : test::PropertySeeds(8, 9100)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());

    RandomTraceOptions topts;
    topts.num_events = 300;
    topts.seed = seed * 31 + 5;
    topts.p_same_time = 0.45;
    GeneratedTrace trace = GenerateRandomTrace(topts);
    const size_t split = 200 + rng.Uniform(60);

    auto store = NewMemKVStore();
    DeltaGraphOptions opts;
    opts.leaf_size = 30 + rng.Uniform(40);
    auto dg = DeltaGraph::Create(store.get(), opts);
    ASSERT_TRUE(dg.ok());
    for (size_t i = 0; i < split; ++i) {
      ASSERT_TRUE(dg.value()->Append(trace.events[i]).ok());
    }
    ASSERT_TRUE(dg.value()->Finalize().ok());
    for (size_t i = split; i < trace.events.size(); ++i) {
      ASSERT_TRUE(dg.value()->Append(trace.events[i]).ok());
    }

    const Timestamp boundary = trace.events[split - 1].time;
    for (Timestamp t : {boundary, trace.events[split].time,
                        trace.events.back().time}) {
      auto oracle = test::NaiveReplayOracle::At(trace.events, t, kCompAll);
      auto got = dg.value()->GetSnapshot(t, kCompAll);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(oracle.Matches(got.value())) << "t=" << t;
    }
  }
}

// The pinned frontier `f` without its current graph: plans against it must
// rebuild every answer from the skeleton.
FrontierPtr WithoutCurrent(const FrontierPtr& f) {
  auto copy = std::make_shared<FrontierState>(*f);
  copy->current = nullptr;
  return copy;
}

// Expects every answer `dg` gives at `times` — multipoint and singlepoint,
// with and without the current graph — to equal the replay of the prefix of
// `log` its frontier claims.
void ExpectShardAnswersMatchReplay(const DeltaGraph& dg, const std::vector<Event>& log,
                                   const std::vector<Timestamp>& times) {
  const FrontierPtr pinned = dg.PinFrontier();
  ASSERT_LE(pinned->event_count, log.size());
  const std::vector<Event> prefix(log.begin(), log.begin() + pinned->event_count);
  for (const FrontierPtr& f : {pinned, WithoutCurrent(pinned)}) {
    SCOPED_TRACE(f->current ? "with current graph" : "without current graph");
    auto multi = dg.GetSnapshotsAt(f, times);
    ASSERT_TRUE(multi.ok()) << multi.status().ToString();
    for (size_t i = 0; i < times.size(); ++i) {
      const auto oracle = test::NaiveReplayOracle::At(prefix, times[i], kCompAll);
      EXPECT_TRUE(oracle.Matches(multi.value()[i])) << "multipoint t=" << times[i];
      auto single = dg.GetSnapshotsAt(f, {times[i]});
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      EXPECT_TRUE(oracle.Matches(single.value()[0])) << "singlepoint t=" << times[i];
    }
  }
}

// Finalize's attach rule, replayed from what a shard exposes: per hierarchy
// the events indexed since its last attached root (unknown until a root
// attaches, and again after a reopen), and which roots are new.
struct AttachModel {
  std::vector<std::optional<size_t>> chain;  // Per hierarchy.
  size_t indexed = 0;
  std::set<int32_t> roots;
  std::set<int32_t> attached;
  size_t skipped = 0;
  size_t reattached = 0;  // Attached because the chain outgrew the root.

  // Folds in one Finalize of `dg` and returns the live super-root edges the
  // rule predicts.
  size_t AfterFinalize(const DeltaGraph& dg) {
    const FrontierPtr f = dg.PinFrontier();
    const size_t now = f->event_count - f->recent.size();
    for (auto& c : chain) {
      if (c) *c += now - indexed;
    }
    indexed = now;
    const Skeleton& skel = dg.skeleton();
    for (int32_t root : dg.NodesAtDepth(0)) {
      if (!roots.insert(root).second) continue;
      const SkeletonNode& n = skel.node(root);
      for (size_t h = 0; h < chain.size(); ++h) {
        // A lone leaf root is every hierarchy's root.
        if (!n.is_leaf && static_cast<size_t>(n.hierarchy) != h) continue;
        if (chain[h] && *chain[h] <= n.element_count) {
          ++skipped;
          continue;
        }
        if (chain[h]) ++reattached;
        chain[h] = 0;
        attached.insert(root);
      }
    }
    return attached.size();
  }
};

// Repeated append + Finalize rounds with one reopen between them, on 1 and 2
// shards, with one and with two hierarchies. Finalize gives a later root a
// super-root delta only when the leaf eventlists since its hierarchy's last
// attached root hold more events than the root has elements, so most of
// these rounds leave their root unattached and their window reachable
// through eventlists alone. Every window must still read back exactly, and
// each shard's live super-root edges must be one per attached root: one per
// hierarchy, plus the re-attachments.
TEST(ReplayOracleTest, RepeatedFinalizeWindowsMatchNaiveReplay) {
  const char* kFunctions[] = {"intersection", "union", "balanced"};
  size_t skipped = 0, reattached = 0;
  for (uint64_t seed : test::PropertySeeds(6, 9400)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());
    RandomTraceOptions topts;
    topts.num_events = 900 + rng.Uniform(400);
    topts.seed = seed * 131 + 7;
    topts.p_same_time = 0.10 + rng.NextDouble() * 0.30;
    GeneratedTrace trace = GenerateRandomTrace(topts);
    const std::vector<Event>& log = trace.events;
    // A bulk load, then rounds far smaller than the graph.
    std::vector<size_t> cuts = {log.size() / 2};
    while (cuts.back() < log.size()) {
      cuts.push_back(std::min(log.size(), cuts.back() + 30 + rng.Uniform(90)));
    }
    const size_t reopen_before = 1 + rng.Uniform(cuts.size() - 1);
    const size_t first_fn = rng.Uniform(3);

    for (size_t shards : {1, 2}) {
      for (size_t hierarchies : {1, 2}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " hierarchies=" + std::to_string(hierarchies));
        DeltaGraphOptions opts;
        opts.leaf_size = 20 + rng.Uniform(40);
        opts.arity = 2 + static_cast<int>(rng.Uniform(2));
        opts.functions = {kFunctions[first_fn]};
        if (hierarchies == 2) opts.functions.push_back(kFunctions[(first_fn + 1) % 3]);
        auto base = NewMemKVStore();
        auto created = PartitionedDeltaGraph::Create(base.get(), shards, opts);
        ASSERT_TRUE(created.ok()) << created.status().ToString();
        std::unique_ptr<PartitionedDeltaGraph> pdg = std::move(created).value();

        std::vector<std::vector<Event>> shard_logs(shards);
        for (const Event& e : log) shard_logs[pdg->PartitionOf(e)].push_back(e);
        std::vector<AttachModel> models(shards);
        for (AttachModel& m : models) m.chain.resize(hierarchies);

        std::vector<Timestamp> window_times;  // Inside every window so far.
        size_t next = 0;
        for (size_t r = 0; r < cuts.size(); ++r) {
          if (r == reopen_before) {
            pdg.reset();
            auto reopened = PartitionedDeltaGraph::Open(base.get());
            ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
            pdg = std::move(reopened).value();
            for (AttachModel& m : models) m.chain.assign(hierarchies, std::nullopt);
          }
          const std::vector<Event> round(log.begin() + next, log.begin() + cuts[r]);
          ASSERT_TRUE(pdg->AppendAll(round).ok());
          ASSERT_TRUE(pdg->Finalize().ok());
          next = cuts[r];
          for (size_t s = 0; s < shards; ++s) {
            EXPECT_EQ(test::SuperRootEdges(pdg->partition(s)->skeleton()),
                      models[s].AfterFinalize(*pdg->partition(s)))
                << "round " << r << " shard " << s;
          }

          const std::vector<Timestamp> times = {
              round.front().time, round[round.size() / 2].time,
              round.back().time - 1, round.back().time};
          window_times.insert(window_times.end(), times.begin(), times.end());
          for (size_t s = 0; s < shards; ++s) {
            ExpectShardAnswersMatchReplay(*pdg->partition(s), shard_logs[s], times);
          }
        }
        for (const AttachModel& m : models) {
          skipped += m.skipped;
          reattached += m.reattached;
        }

        // Every window at once, per shard and merged across shards.
        for (size_t s = 0; s < shards; ++s) {
          ExpectShardAnswersMatchReplay(*pdg->partition(s), shard_logs[s], window_times);
        }
        auto merged = pdg->GetSnapshots(window_times);
        ASSERT_TRUE(merged.ok()) << merged.status().ToString();
        for (size_t i = 0; i < window_times.size(); ++i) {
          EXPECT_TRUE(test::NaiveReplayOracle::At(log, window_times[i], kCompAll)
                          .Matches(merged.value()[i]))
              << "merged t=" << window_times[i];
        }
      }
    }
  }
  // Both sides of the rule ran: roots left unattached, and roots attached
  // again once their chain outgrew them.
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(reattached, 0u);
}

}  // namespace
}  // namespace hgdb

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

#include <map>
#include <memory>
#include <vector>

#include "deltagraph/delta_graph.h"
#include "deltagraph/partitioned_delta_graph.h"
#include "exec/io_pool.h"
#include "exec/task_pool.h"
#include "kvstore/kv_store.h"
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

}  // namespace
}  // namespace hgdb

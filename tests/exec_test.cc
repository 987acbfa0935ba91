// Tests for the plan-execution subsystem (src/exec/): TaskPool semantics,
// executor results against the naive replay oracle across seeds and pool
// sizes, batched RetrievalSessions at one shard and at three, and
// concurrent-retrieval stress (the latter two double as the ThreadSanitizer
// workload in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "deltagraph/delta_graph.h"
#include "deltagraph/partitioned_delta_graph.h"
#include "exec/fetch_cache.h"
#include "exec/io_pool.h"
#include "exec/prefetcher.h"
#include "exec/retrieval_session.h"
#include "exec/task_pool.h"
#include "obs/trace.h"
#include "tests/test_oracle.h"
#include "tests/test_util.h"
#include "workload/generators.h"
#include "workload/trace_world.h"

namespace hgdb {
namespace {

// ---------------------------------------------------------------------------
// TaskPool
// ---------------------------------------------------------------------------

TEST(TaskPoolTest, RunsAllSpawnedTasks) {
  TaskPool pool(4);
  EXPECT_EQ(pool.parallelism(), 4);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 200; ++i) {
    group.Spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 200);
}

TEST(TaskPoolTest, NestedSpawnsAreAwaited) {
  TaskPool pool(3);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Spawn([&] {
      ran.fetch_add(1, std::memory_order_relaxed);
      for (int j = 0; j < 4; ++j) {
        group.Spawn([&] {
          ran.fetch_add(1, std::memory_order_relaxed);
          group.Spawn([&] { ran.fetch_add(1, std::memory_order_relaxed); });
        });
      }
    });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 8 + 8 * 4 + 8 * 4);
}

TEST(TaskPoolTest, SerialPoolRunsInline) {
  TaskPool pool(1);  // No workers: Submit executes before returning.
  bool ran = false;
  pool.Submit([&ran] { ran = true; });
  EXPECT_TRUE(ran);
  TaskGroup group(&pool);
  int order_probe = 0;
  group.Spawn([&order_probe] { order_probe = 42; });
  EXPECT_EQ(order_probe, 42);  // Already done, not merely queued.
  group.Wait();
}

TEST(TaskPoolTest, WaitIsReusable) {
  TaskPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  group.Spawn([&] { ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(ran.load(), 1);
  group.Spawn([&] { ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(ran.load(), 2);
}

// ---------------------------------------------------------------------------
// Executor results == naive replay, element for element, at every pool size
// ---------------------------------------------------------------------------

struct BuiltIndex {
  std::unique_ptr<KVStore> store;
  std::unique_ptr<DeltaGraph> dg;
  std::vector<Event> events;
};

BuiltIndex BuildRandomIndex(uint64_t seed, size_t num_events,
                            size_t post_finalize_events = 0,
                            const KVStoreOptions& kv_opts = {}) {
  RandomTraceOptions topts;
  topts.num_events = num_events + post_finalize_events;
  topts.seed = seed;
  GeneratedTrace trace = GenerateRandomTrace(topts);

  BuiltIndex built;
  built.store = NewMemKVStore(kv_opts);
  DeltaGraphOptions opts;
  opts.leaf_size = std::max<size_t>(50, num_events / 24);  // Many leaves.
  opts.arity = 2;
  opts.functions = {"intersection"};
  auto dg = DeltaGraph::Create(built.store.get(), opts);
  EXPECT_TRUE(dg.ok());
  built.dg = std::move(dg).value();
  std::vector<Event> indexed(trace.events.begin(),
                             trace.events.begin() + num_events);
  EXPECT_TRUE(built.dg->AppendAll(indexed).ok());
  EXPECT_TRUE(built.dg->Finalize().ok());
  // Trailing un-finalized events exercise the kApplyRecentEvents step —
  // including events whose timestamp equals the last indexed event's, which
  // Finalize's boundary holdback keeps strictly inside the recent interval.
  for (size_t i = num_events; i < trace.events.size(); ++i) {
    EXPECT_TRUE(built.dg->Append(trace.events[i]).ok());
  }
  built.events = std::move(trace.events);
  return built;
}

// BuildRandomIndex at a chosen shard count: one shard is a plain DeltaGraph,
// more give a PartitionedDeltaGraph over the same log and options. Sessions
// take either, so session tests run both through the same assertions.
struct ShardedIndex {
  std::vector<std::unique_ptr<KVStore>> stores;
  std::unique_ptr<DeltaGraph> dg;              // shards == 1
  std::unique_ptr<PartitionedDeltaGraph> pdg;  // shards > 1
  std::vector<Event> events;

  std::unique_ptr<RetrievalSession> NewSession(TaskPool* pool) const {
    if (dg != nullptr) return std::make_unique<RetrievalSession>(dg.get(), pool);
    return std::make_unique<RetrievalSession>(pdg.get(), pool);
  }
  Result<std::vector<Snapshot>> GetSnapshots(const std::vector<Timestamp>& times,
                                             unsigned components) {
    return dg != nullptr ? dg->GetSnapshots(times, components)
                         : pdg->GetSnapshots(times, components);
  }
  void SetTaskPool(TaskPool* pool) {
    dg != nullptr ? dg->SetTaskPool(pool) : pdg->SetTaskPool(pool);
  }
  void SetIoPool(IoPool* io) {
    dg != nullptr ? dg->SetIoPool(io) : pdg->SetIoPool(io);
  }
  void SetDecodedCacheCapacity(size_t entries) {
    dg != nullptr ? dg->SetDecodedCacheCapacity(entries)
                  : pdg->SetDecodedCacheCapacity(entries);
  }
};

/// `finalize` false leaves every event (up to 10000) in the recent
/// eventlists, with no skeleton, so sessions take the replay fallback on
/// every shard.
ShardedIndex BuildShardedIndex(size_t shards, uint64_t seed, size_t num_events,
                               size_t post_finalize_events = 0,
                               const KVStoreOptions& kv_opts = {},
                               bool finalize = true) {
  RandomTraceOptions topts;
  topts.num_events = num_events + post_finalize_events;
  topts.seed = seed;
  GeneratedTrace trace = GenerateRandomTrace(topts);

  ShardedIndex index;
  std::vector<KVStore*> ptrs;
  for (size_t i = 0; i < shards; ++i) {
    index.stores.push_back(NewMemKVStore(kv_opts));
    ptrs.push_back(index.stores.back().get());
  }
  DeltaGraphOptions opts;
  opts.leaf_size = finalize ? std::max<size_t>(50, num_events / 24) : 10000;
  opts.arity = 2;
  opts.functions = {"intersection"};
  const std::vector<Event> indexed(trace.events.begin(),
                                   trace.events.begin() + num_events);
  const std::vector<Event> tail(trace.events.begin() + num_events,
                                trace.events.end());
  auto ingest = [&](auto* engine) {
    EXPECT_TRUE(engine->AppendAll(indexed).ok());
    if (finalize) {
      EXPECT_TRUE(engine->Finalize().ok());
    }
    EXPECT_TRUE(engine->AppendAll(tail).ok());
  };
  if (shards == 1) {
    auto dg = DeltaGraph::Create(ptrs[0], opts);
    EXPECT_TRUE(dg.ok());
    index.dg = std::move(dg).value();
    ingest(index.dg.get());
  } else {
    auto pdg = PartitionedDeltaGraph::Create(ptrs, opts);
    EXPECT_TRUE(pdg.ok());
    index.pdg = std::move(pdg).value();
    ingest(index.pdg.get());
  }
  index.events = std::move(trace.events);
  return index;
}

TEST(PlanExecutorTest, MatchesReplayAcrossSeedsAndPools) {
  TaskPool pool2(2), pool8(8);
  for (uint64_t seed : {11u, 1234u, 990017u}) {
    BuiltIndex built = BuildRandomIndex(seed, 3000, /*post_finalize_events=*/150);
    test::SeededRng rng(seed * 31 + 7);
    for (unsigned components : {unsigned{kCompAll}, unsigned{kCompStruct}}) {
      for (int k : {2, 5, 9}) {
        const std::vector<Timestamp> times = test::RandomTimes(rng, built.events, k);
        for (TaskPool* pool : {&TaskPool::Serial(), &pool2, &pool8}) {
          built.dg->SetTaskPool(pool);
          auto got = built.dg->GetSnapshots(times, components);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got.value().size(), times.size());
          for (size_t i = 0; i < times.size(); ++i) {
            EXPECT_TRUE(test::NaiveReplayOracle::At(built.events, times[i], components)
                            .Matches(got.value()[i]))
                << "seed=" << seed << " threads=" << pool->parallelism()
                << " components=" << components << " t=" << times[i];
          }
        }
      }
    }
  }
}

TEST(PlanExecutorTest, MaterializedStartsMatchReplay) {
  BuiltIndex built = BuildRandomIndex(77, 2500);
  ASSERT_TRUE(built.dg->MaterializeDepth(1).ok());
  test::SeededRng rng(99);
  const std::vector<Timestamp> times = test::RandomTimes(rng, built.events, 7);

  TaskPool pool2(2), pool8(8);
  for (TaskPool* pool : {&TaskPool::Serial(), &pool2, &pool8}) {
    built.dg->SetTaskPool(pool);
    auto got = built.dg->GetSnapshots(times, kCompAll);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (size_t i = 0; i < times.size(); ++i) {
      EXPECT_TRUE(test::NaiveReplayOracle::At(built.events, times[i], kCompAll)
                      .Matches(got.value()[i]))
          << "threads=" << pool->parallelism() << " t=" << times[i];
    }
  }
}

// The one "execute" span of a traced query.
obs::QueryTrace::Span ExecuteSpan(const obs::QueryTrace& trace) {
  obs::QueryTrace::Span found;
  size_t count = 0;
  for (const auto& span : trace.Spans()) {
    if (span.name != "execute") continue;
    found = span;
    ++count;
  }
  EXPECT_EQ(count, 1u);
  return found;
}

int64_t IntAttr(const obs::QueryTrace::Span& span, const std::string& key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return std::get<int64_t>(v);
  }
  ADD_FAILURE() << "span " << span.name << " has no attribute " << key;
  return -1;
}

// A linear plan (every singlepoint query) runs as one task on the calling
// thread, whatever the pool offers: the walk starts inline and has no
// siblings to spawn.
TEST(PlanExecutorTest, LinearPlanRunsAsOneTask) {
  BuiltIndex built = BuildRandomIndex(5, 1500, /*post_finalize_events=*/40);
  TaskPool pool8(8);
  built.dg->SetTaskPool(&pool8);
  const Timestamp t = built.events[built.events.size() / 2].time;

  obs::QueryTrace trace;
  auto got = built.dg->GetSnapshots({t}, kCompAll, obs::TraceCtx{&trace, obs::kNoSpan});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  trace.Finish();
  EXPECT_TRUE(test::NaiveReplayOracle::At(built.events, t, kCompAll).Matches(got.value()[0]));
  EXPECT_EQ(IntAttr(ExecuteSpan(trace), "tasks"), 1);
}

// On the inline pool every sibling task runs nested inside its parent's
// task, on the same thread. Busy time counts that thread-interval once, so
// it stays within the execute span's wall time.
TEST(PlanExecutorTest, InlineSiblingsAreTimedOnce) {
  BuiltIndex built = BuildRandomIndex(5, 3000);
  built.dg->SetTaskPool(&TaskPool::Serial());
  // Far apart, so the plan descends to each from the root: three subtrees
  // of comparable work.
  std::vector<Timestamp> times;
  for (size_t twentieth : {1, 10, 19}) {
    times.push_back(built.events[built.events.size() * twentieth / 20].time);
  }

  obs::QueryTrace trace;
  ASSERT_TRUE(
      built.dg->GetSnapshots(times, kCompAll, obs::TraceCtx{&trace, obs::kNoSpan}).ok());
  trace.Finish();
  const obs::QueryTrace::Span exec = ExecuteSpan(trace);
  EXPECT_GT(IntAttr(exec, "tasks"), 1) << "plan never branched; test is vacuous";
  EXPECT_LE(IntAttr(exec, "busy_us"), (exec.end_ns - exec.start_ns) / 1000 + 1);
}

// ---------------------------------------------------------------------------
// Prefetch pipeline
// ---------------------------------------------------------------------------

TEST(PrefetchTest, PlanPreScanDedupesAndSkipsInMemorySteps) {
  BuiltIndex built = BuildRandomIndex(31, 2000, /*post_finalize_events=*/60);
  test::SeededRng rng(3);
  auto plan = built.dg->PlanFor(test::RandomTimes(rng, built.events, 6));
  ASSERT_TRUE(plan.ok());
  const std::vector<PlanFetch> fetches = CollectPlanFetches(plan.value());
  ASSERT_FALSE(fetches.empty());
  std::unordered_set<int32_t> seen;
  for (const PlanFetch& f : fetches) {
    EXPECT_TRUE(seen.insert(f.edge).second) << "duplicate edge " << f.edge;
    EXPECT_EQ(built.dg->skeleton().edge(f.edge).is_eventlist, f.is_eventlist);
  }
}

// The acceptance property of the async fetch layer: prefetch on/off,
// serial/parallel, and fetch latency 0/100us must all produce
// element-identical snapshots (prefetch only warms the cache; it never
// changes apply order).
TEST(PrefetchTest, PrefetchOnOffSerialParallelLatencyAllAgree) {
  for (uint32_t latency_us : {0u, 100u}) {
    KVStoreOptions kv;
    kv.read_latency_us = latency_us;
    BuiltIndex built =
        BuildRandomIndex(4242 + latency_us, 2200, /*post_finalize_events=*/120, kv);
    built.dg->SetDecodedCacheCapacity(0);  // Every run pays real fetches.
    test::SeededRng rng(17);
    const std::vector<Timestamp> times = test::RandomTimes(rng, built.events, 6);

    built.dg->SetTaskPool(nullptr);
    built.dg->SetIoPool(nullptr);  // Blocking-fetch serial baseline.
    auto baseline = built.dg->GetSnapshots(times, kCompAll);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    for (size_t i = 0; i < times.size(); ++i) {
      EXPECT_TRUE(baseline.value()[i].Equals(ReplayAt(built.events, times[i])))
          << "baseline diverges from replay at t=" << times[i];
    }

    TaskPool pool4(4);
    IoPool io3(3);
    for (TaskPool* pool : std::vector<TaskPool*>{nullptr, &pool4}) {
      for (IoPool* io : std::vector<IoPool*>{nullptr, &io3}) {
        built.dg->SetTaskPool(pool);
        built.dg->SetIoPool(io);
        auto got = built.dg->GetSnapshots(times, kCompAll);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        for (size_t i = 0; i < times.size(); ++i) {
          EXPECT_TRUE(got.value()[i].Equals(baseline.value()[i]))
              << "latency=" << latency_us << "us pool=" << (pool ? 4 : 1)
              << " prefetch=" << (io != nullptr) << " t=" << times[i] << "\n"
              << got.value()[i].DiffString(baseline.value()[i]);
        }
      }
    }
  }
}

// Sessions share one prefetched fetch pin per shard across requests; results
// must match the replay oracle and per-request blocking retrieval (no
// prefetch, serial pool), at one shard and at three.
TEST(PrefetchTest, SessionWithPrefetchMatchesBlockingRetrieval) {
  KVStoreOptions kv;
  kv.read_latency_us = 50;
  for (size_t shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedIndex index =
        BuildShardedIndex(shards, 777, 2000, /*post_finalize_events=*/80, kv);
    index.SetDecodedCacheCapacity(0);
    test::SeededRng rng(23);
    std::vector<std::vector<Timestamp>> batches;
    for (int i = 0; i < 4; ++i) batches.push_back(test::RandomTimes(rng, index.events, 4));

    TaskPool pool(4);
    IoPool io(2);
    index.SetIoPool(&io);
    auto session = index.NewSession(&pool);
    std::vector<RetrievalSession::Request*> tickets;
    for (const auto& b : batches) tickets.push_back(session->Submit(b));
    ASSERT_TRUE(session->Wait().ok());

    index.SetTaskPool(nullptr);
    index.SetIoPool(nullptr);
    for (size_t i = 0; i < batches.size(); ++i) {
      auto expect = index.GetSnapshots(batches[i], kCompAll);
      ASSERT_TRUE(expect.ok());
      for (size_t j = 0; j < batches[i].size(); ++j) {
        auto oracle = test::NaiveReplayOracle::At(index.events, batches[i][j], kCompAll);
        EXPECT_TRUE(oracle.Matches(tickets[i]->result.value()[j]))
            << "request " << i << " time index " << j;
        EXPECT_TRUE(tickets[i]->result.value()[j].Equals(expect.value()[j]))
            << "request " << i << " time index " << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fetch failure and retry through one ExecFetchCache
// ---------------------------------------------------------------------------

/// Passes everything through to a MemKVStore, except that once armed it fails
/// every key of the next MultiGet with IOError. With `gated`, that MultiGet
/// first reports it has started and then blocks until Open().
class FailOnceKVStore : public KVStore {
 public:
  FailOnceKVStore() : base_(NewMemKVStore()) {}

  void FailNextMultiGet(bool gated) {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
    gated_ = gated;
    entered_ = false;
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    gated_ = false;
    cv_.notify_all();
  }

  Status Put(const Slice& key, const Slice& value) override {
    return base_->Put(key, value);
  }
  Status Get(const Slice& key, std::string* value) const override {
    return base_->Get(key, value);
  }
  Status Delete(const Slice& key) override { return base_->Delete(key); }
  Status Write(const WriteBatch& batch) override { return base_->Write(batch); }
  void MultiGet(const std::vector<Slice>& keys, std::vector<std::string>* values,
                std::vector<Status>* statuses) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (armed_) {
        armed_ = false;
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return !gated_; });
        values->assign(keys.size(), std::string());
        statuses->assign(keys.size(), Status::IOError("injected MultiGet failure"));
        return;
      }
    }
    base_->MultiGet(keys, values, statuses);
  }
  bool Contains(const Slice& key) const override { return base_->Contains(key); }
  void ForEachKey(const Slice& prefix,
                  const std::function<void(const Slice&)>& fn) const override {
    base_->ForEachKey(prefix, fn);
  }
  size_t KeyCount() const override { return base_->KeyCount(); }
  size_t ValueBytes() const override { return base_->ValueBytes(); }
  Status Sync() override { return base_->Sync(); }

 private:
  std::unique_ptr<KVStore> base_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool armed_ = false;
  mutable bool gated_ = false;
  mutable bool entered_ = false;
};

Status FetchEdge(ExecFetchCache* cache, const SkeletonEdge& e) {
  if (e.is_eventlist) return cache->Get<EventList>(e, kCompAll).status();
  return cache->Get<Delta>(e, kCompAll).status();
}

// A failed fetch reaches the Get that waited on it, and releases its slot so
// the next Get through the same cache fetches again and succeeds — whether
// the failed read was the Get's own one-entry demand batch or an I/O drain.
TEST(FetchCacheTest, FailedFetchReturnsErrorAndRetrySucceeds) {
  RandomTraceOptions topts;
  topts.num_events = 1500;
  topts.seed = 61;
  const std::vector<Event> events = GenerateRandomTrace(topts).events;
  FailOnceKVStore store;
  DeltaGraphOptions opts;
  opts.leaf_size = 60;
  opts.arity = 2;
  auto dg = DeltaGraph::Create(&store, opts);
  ASSERT_TRUE(dg.ok());
  ASSERT_TRUE((*dg)->AppendAll(events).ok());
  ASSERT_TRUE((*dg)->Finalize().ok());
  (*dg)->SetDecodedCacheCapacity(0);  // Every Get reaches the store.

  auto plan = (*dg)->PlanFor({events[events.size() / 3].time, events.back().time});
  ASSERT_TRUE(plan.ok());
  // Only fetches that read at least one key: then the first one queued is
  // in the first drain's MultiGet, where the injected failure lands.
  const Skeleton& skel = (*dg)->skeleton();
  std::vector<PlanFetch> fetches;
  for (const PlanFetch& f : CollectPlanFetches(plan.value())) {
    if (skel.edge(f.edge).sizes.TotalBytes(kCompAll) > 0) fetches.push_back(f);
  }
  ASSERT_GE(fetches.size(), 2u);
  const SkeletonEdge& first = skel.edge(fetches[0].edge);

  {
    SCOPED_TRACE("demand");
    ExecFetchCache cache(**dg);
    store.FailNextMultiGet(/*gated=*/false);
    EXPECT_TRUE(FetchEdge(&cache, first).IsIOError());
    EXPECT_TRUE(FetchEdge(&cache, first).ok());
  }
  {
    SCOPED_TRACE("drained");
    IoPool io(1);
    ExecFetchCache cache(**dg);
    obs::QueryTrace trace;
    cache.SetTrace(obs::TraceCtx{&trace, obs::kNoSpan});
    store.FailNextMultiGet(/*gated=*/true);
    StartCollectedPrefetch(skel, fetches, kCompAll, &cache, &io);
    store.WaitEntered();  // The drain has claimed `first` and is fetching it.
    Status seen;
    std::thread waiter([&] { seen = FetchEdge(&cache, first); });
    // Open the store only once the waiter holds the drain's future.
    while (trace.fetches_prefetched.load() == 0) std::this_thread::yield();
    store.Open();
    waiter.join();
    EXPECT_TRUE(seen.IsIOError()) << seen.ToString();
    cache.WaitPrefetchesIdle();
    EXPECT_TRUE(FetchEdge(&cache, first).ok());
    EXPECT_EQ(trace.fetches_demand.load(), 1u);  // The retry.
  }
}

// Every per-shard "execute" span of a session request names its shard, so a
// trace can point at the slow one.
TEST(RetrievalSessionTest, ExecuteSpansNameTheirShard) {
  const bool was_tracing = obs::TraceEnabled();
  obs::SetTraceEnabled(true);
  constexpr size_t kShards = 3;
  ShardedIndex index = BuildShardedIndex(kShards, 2024, 8000);
  for (size_t s = 0; s < kShards; ++s) {
    ASSERT_FALSE(index.pdg->partition(s)->skeleton().leaves().empty())
        << "shard " << s << " would replay without an executor";
  }
  test::SeededRng rng(41);
  TaskPool pool(2);
  auto session = index.NewSession(&pool);
  std::vector<RetrievalSession::Request*> requests;
  for (int i = 0; i < 2; ++i) {
    requests.push_back(session->Submit(test::RandomTimes(rng, index.events, 3)));
  }
  ASSERT_TRUE(session->Wait().ok());
  obs::SetTraceEnabled(was_tracing);
  const obs::QueryTrace* trace = session->LastTrace();
  ASSERT_NE(trace, nullptr);

  const std::vector<obs::QueryTrace::Span> spans = trace->Spans();
  size_t request_spans = 0;
  for (const auto& request : spans) {
    if (request.name != "request") continue;
    ++request_spans;
    std::vector<int64_t> shards;
    for (const auto& span : spans) {
      if (span.name == "execute" && span.parent == request.id) {
        shards.push_back(IntAttr(span, "shard"));
      }
    }
    std::sort(shards.begin(), shards.end());
    EXPECT_EQ(shards, (std::vector<int64_t>{0, 1, 2}));
  }
  EXPECT_EQ(request_spans, requests.size());
}

// ---------------------------------------------------------------------------
// RetrievalSession
// ---------------------------------------------------------------------------

// Alternate components across a session's requests.
unsigned i_th_components(size_t i) {
  return i % 2 == 0 ? unsigned{kCompAll} : unsigned{kCompStruct};
}

TEST(RetrievalSessionTest, BatchedRequestsMatchDirectRetrieval) {
  for (size_t shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedIndex index = BuildShardedIndex(shards, 321, 2500, 100);
    test::SeededRng rng(5);
    TaskPool pool(4);

    std::vector<std::vector<Timestamp>> batches;
    for (int i = 0; i < 5; ++i) batches.push_back(test::RandomTimes(rng, index.events, 4));

    auto session = index.NewSession(&pool);
    std::vector<RetrievalSession::Request*> tickets;
    for (const auto& b : batches) {
      tickets.push_back(session->Submit(b, i_th_components(tickets.size())));
    }
    ASSERT_TRUE(session->Wait().ok());

    index.SetTaskPool(nullptr);
    for (size_t i = 0; i < batches.size(); ++i) {
      ASSERT_TRUE(tickets[i]->result.ok()) << tickets[i]->result.status().ToString();
      auto expect = index.GetSnapshots(batches[i], i_th_components(i));
      ASSERT_TRUE(expect.ok());
      ASSERT_EQ(tickets[i]->result.value().size(), batches[i].size());
      ASSERT_EQ(tickets[i]->parts.size(), shards);
      for (size_t j = 0; j < batches[i].size(); ++j) {
        auto oracle = test::NaiveReplayOracle::At(index.events, batches[i][j],
                                                  i_th_components(i));
        EXPECT_TRUE(oracle.Matches(tickets[i]->result.value()[j]))
            << "request " << i << " time index " << j;
        EXPECT_TRUE(tickets[i]->result.value()[j].Equals(expect.value()[j]))
            << "request " << i << " time index " << j;
      }
    }
  }
}

TEST(RetrievalSessionTest, EmptyAndUnfinalizedIndexFallBack) {
  for (size_t shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    // Nothing gets cut: every shard's skeleton stays empty.
    ShardedIndex index = BuildShardedIndex(shards, 17, 200, 0, {}, /*finalize=*/false);
    const Timestamp last = index.events.back().time;

    TaskPool pool(2);
    auto session = index.NewSession(&pool);
    auto* empty = session->Submit({});
    auto* replayed = session->Submit({last});
    ASSERT_TRUE(session->Wait().ok());
    EXPECT_TRUE(empty->result.ok());
    EXPECT_EQ(empty->result.value().size(), 0u);
    ASSERT_TRUE(replayed->result.ok());
    EXPECT_TRUE(test::NaiveReplayOracle::At(index.events, last, kCompAll)
                    .Matches(replayed->result.value()[0]));
  }
}

// ---------------------------------------------------------------------------
// Concurrency stress (the TSan workload)
// ---------------------------------------------------------------------------

TEST(ExecStressTest, ConcurrentSessionsOverOneIndex) {
  for (size_t shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedIndex index = BuildShardedIndex(shards, 2024, 2500, 120);
    index.SetDecodedCacheCapacity(4);  // Force LRU churn + eviction races.
    TaskPool pool(4);
    index.SetTaskPool(&pool);

    constexpr int kDrivers = 4;
    constexpr int kRoundsPerDriver = 3;
    std::atomic<int> failures{0};
    std::vector<std::thread> drivers;
    for (int d = 0; d < kDrivers; ++d) {
      drivers.emplace_back([&, d] {
        test::SeededRng rng(9000 + d);
        for (int round = 0; round < kRoundsPerDriver; ++round) {
          auto session = index.NewSession(&pool);
          std::vector<std::vector<Timestamp>> batches;
          std::vector<RetrievalSession::Request*> tickets;
          for (int r = 0; r < 3; ++r) {
            batches.push_back(test::RandomTimes(rng, index.events, 3 + r));
            tickets.push_back(session->Submit(batches.back()));
          }
          if (!session->Wait().ok()) {
            failures.fetch_add(1);
            continue;
          }
          for (size_t r = 0; r < tickets.size(); ++r) {
            for (size_t j = 0; j < batches[r].size(); ++j) {
              auto oracle =
                  test::NaiveReplayOracle::At(index.events, batches[r][j], kCompAll);
              if (!oracle.Matches(tickets[r]->result.value()[j])) {
                failures.fetch_add(1);
                ADD_FAILURE() << "driver " << d << " round " << round << " req " << r
                              << " t=" << batches[r][j];
              }
            }
          }
        }
      });
    }
    for (auto& t : drivers) t.join();
    EXPECT_EQ(failures.load(), 0);
  }
}

TEST(ExecStressTest, ConcurrentDirectGetSnapshots) {
  BuiltIndex built = BuildRandomIndex(555, 2000, 80);
  TaskPool pool(3);
  built.dg->SetTaskPool(&pool);

  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < 4; ++d) {
    drivers.emplace_back([&, d] {
      test::SeededRng rng(70 + d);
      for (int round = 0; round < 4; ++round) {
        // Mix multipoint with singlepoint (the latter contends on the
        // SSSP plan cache).
        const int k = (round % 2 == 0) ? 4 : 1;
        const std::vector<Timestamp> times = test::RandomTimes(rng, built.events, k);
        auto snaps = built.dg->GetSnapshots(times, kCompAll);
        if (!snaps.ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < times.size(); ++i) {
          if (!snaps.value()[i].Equals(ReplayAt(built.events, times[i]))) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace hgdb

// HistGraphServer tests: the epoch-visibility contract under real
// concurrency, plus the service-shape failure paths (admission rejection,
// cooperative deadlines, bounded ingest queue).
//
// The central property is the oracle check: a query result carries the
// pinned frontier's event_count, and the snapshots must equal a naive replay
// of EXACTLY the first event_count appended events — no torn batches, no
// events from the future, no lost suffix — while the ingest strand keeps
// publishing epochs underneath the readers. Run under TSan, this doubles as
// the data-race proof of the whole frontier machinery.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "exec/retrieval_session.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "server/hist_graph_server.h"
#include "tests/test_oracle.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace hgdb {
namespace {

struct ReaderStats {
  int queries = 0;
  uint64_t last_epoch = 0;
  std::vector<std::string> failures;  // gtest asserts are not thread-safe.
};

// One reader thread: random multipoint queries against the live server, each
// result checked against the replay oracle over the event_count-prefix the
// pinned frontier claims to reflect.
void ReaderLoop(HistGraphServer* server, const std::vector<Event>& log,
                uint64_t seed, const std::atomic<bool>& writer_done,
                ReaderStats* out) {
  test::SeededRng rng(seed);
  auto note = [&](const std::string& s) {
    if (out->failures.size() < 4) out->failures.push_back(s);
  };
  bool done_seen = false;
  int after_done = 0;
  while (!done_seen || after_done < 2) {
    if (writer_done.load(std::memory_order_acquire)) {
      done_seen = true;
      ++after_done;  // A couple of queries against the final frontier too.
    }
    const int k = 1 + static_cast<int>(rng.Uniform(3));
    const std::vector<Timestamp> times = test::RandomTimes(rng, log, k);
    const unsigned comps = rng.Chance(0.3) ? kCompStruct : kCompAll;
    auto res = server->Retrieve(times, comps);
    if (!res.ok()) {
      note("Retrieve failed: " + res.status().ToString());
      continue;
    }
    ++out->queries;
    if (res->epoch < out->last_epoch) {
      note("epoch went backwards: " + std::to_string(res->epoch) + " after " +
           std::to_string(out->last_epoch));
    }
    out->last_epoch = res->epoch;
    if (res->event_count > log.size()) {
      note("event_count beyond the log: " + std::to_string(res->event_count));
      continue;
    }
    const std::vector<Event> prefix(log.begin(), log.begin() + res->event_count);
    for (size_t i = 0; i < times.size(); ++i) {
      const auto oracle = test::NaiveReplayOracle::At(prefix, times[i], comps);
      const auto match = oracle.Matches(res->snapshots[i]);
      if (!match) {
        note("epoch " + std::to_string(res->epoch) + " t=" +
             std::to_string(times[i]) + ": " + match.message());
      }
    }
  }
}

TEST(ServerOracleTest, ConcurrentIngestAndRetrievalMatchReplayPrefix) {
  for (uint64_t seed : test::PropertySeeds(20, 8800)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());

    RandomTraceOptions topts;
    topts.num_events = 1200;
    topts.seed = seed * 7 + 1;
    const GeneratedTrace trace = GenerateRandomTrace(topts);

    auto store = NewMemKVStore();
    HistGraphServerOptions opts;
    opts.manager.index.leaf_size = 64 + 64 * rng.Uniform(4);
    auto server = HistGraphServer::Create(store.get(), opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();

    std::atomic<bool> writer_done{false};
    std::thread writer([&] {
      test::SeededRng wrng(seed ^ 0x571);
      size_t pos = 0;
      while (pos < trace.events.size()) {
        const size_t n =
            std::min(trace.events.size() - pos, 1 + wrng.Uniform(48));
        std::vector<Event> batch(trace.events.begin() + pos,
                                 trace.events.begin() + pos + n);
        pos += n;
        ASSERT_TRUE((*server)->Append(std::move(batch)).ok());
        if (wrng.Chance(0.15)) {
          ASSERT_TRUE((*server)->Finalize().ok());
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      ASSERT_TRUE((*server)->Finalize().ok());
      ASSERT_TRUE((*server)->Flush().ok());
      writer_done.store(true, std::memory_order_release);
    });

    ReaderStats r1, r2;
    std::thread reader1([&] {
      ReaderLoop(server->get(), trace.events, seed * 31 + 1, writer_done, &r1);
    });
    std::thread reader2([&] {
      ReaderLoop(server->get(), trace.events, seed * 31 + 2, writer_done, &r2);
    });
    writer.join();
    reader1.join();
    reader2.join();

    for (const auto& f : r1.failures) ADD_FAILURE() << "reader1: " << f;
    for (const auto& f : r2.failures) ADD_FAILURE() << "reader2: " << f;
    EXPECT_GT(r1.queries + r2.queries, 0);

    // After the final Flush, a fresh query reflects the entire log.
    auto final_res = (*server)->Retrieve(
        {trace.events.back().time + 1}, kCompAll);
    ASSERT_TRUE(final_res.ok()) << final_res.status().ToString();
    EXPECT_EQ(final_res->event_count, trace.events.size());
    const auto oracle = test::NaiveReplayOracle::At(
        trace.events, trace.events.back().time + 1, kCompAll);
    EXPECT_TRUE(oracle.Matches(final_res->snapshots[0]));

    const auto stats = (*server)->stats();
    EXPECT_EQ(stats.events_appended, trace.events.size());
    EXPECT_EQ(stats.queries_rejected, 0u);
  }
}

// The adaptive-materialization variant of the oracle property: readers run
// against live ingest while the advisor concurrently materializes and evicts
// nodes under a deliberately tiny budget (periodic ticks on the ingest
// strand PLUS a thread spamming RunAdvisorOnce). Every result must still
// equal the naive replay at its claimed (epoch, event_count), and epochs
// must stay monotone per reader — materialization churn is invisible to the
// visibility contract. Run under TSan this is the data-race proof for the
// advisor's frontier-published mutations against pinned queries.
TEST(ServerOracleTest, AdaptiveChurnKeepsReplayOracle) {
  for (uint64_t seed : test::PropertySeeds(6, 9900)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());

    RandomTraceOptions topts;
    topts.num_events = 1200;
    topts.seed = seed * 7 + 1;
    const GeneratedTrace trace = GenerateRandomTrace(topts);

    auto store = NewMemKVStore();
    HistGraphServerOptions opts;
    opts.manager.index.leaf_size = 64 + 64 * rng.Uniform(4);
    // A budget of a few leaves forces constant materialize/evict pressure.
    opts.manager.materialization_budget_bytes = 256 * 1024;
    opts.advisor_tick_us = 500;
    opts.advisor.min_touches = 1;
    opts.advisor.max_materialize_per_tick = 2;
    opts.advisor.decay_every_ticks = 2;
    opts.advisor.hysteresis = 1.0;  // No incumbent edge: maximize churn.
    auto server = HistGraphServer::Create(store.get(), opts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    ASSERT_NE((*server)->advisor(), nullptr);

    std::atomic<bool> writer_done{false};
    std::thread writer([&] {
      test::SeededRng wrng(seed ^ 0x571);
      size_t pos = 0;
      while (pos < trace.events.size()) {
        const size_t n =
            std::min(trace.events.size() - pos, 1 + wrng.Uniform(48));
        std::vector<Event> batch(trace.events.begin() + pos,
                                 trace.events.begin() + pos + n);
        pos += n;
        ASSERT_TRUE((*server)->Append(std::move(batch)).ok());
        if (wrng.Chance(0.15)) {
          ASSERT_TRUE((*server)->Finalize().ok());
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      ASSERT_TRUE((*server)->Finalize().ok());
      ASSERT_TRUE((*server)->Flush().ok());
      writer_done.store(true, std::memory_order_release);
    });
    std::thread churner([&] {
      while (!writer_done.load(std::memory_order_acquire)) {
        auto tick = (*server)->RunAdvisorOnce();
        ASSERT_TRUE(tick.ok()) << tick.status().ToString();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });

    ReaderStats r1, r2;
    std::thread reader1([&] {
      ReaderLoop(server->get(), trace.events, seed * 31 + 1, writer_done, &r1);
    });
    std::thread reader2([&] {
      ReaderLoop(server->get(), trace.events, seed * 31 + 2, writer_done, &r2);
    });
    writer.join();
    churner.join();
    reader1.join();
    reader2.join();

    for (const auto& f : r1.failures) ADD_FAILURE() << "reader1: " << f;
    for (const auto& f : r2.failures) ADD_FAILURE() << "reader2: " << f;
    EXPECT_GT(r1.queries + r2.queries, 0);

    // The advisor really ran, and its residency respected the budget.
    const auto* advisor = (*server)->advisor();
    EXPECT_GT(advisor->ticks(), 0u);
    EXPECT_LE(advisor->resident_bytes(),
              opts.manager.materialization_budget_bytes);

    // One last deterministic tick on the fully-ingested index, then the
    // final frontier must still reflect the entire log exactly.
    ASSERT_TRUE((*server)->RunAdvisorOnce().ok());
    auto final_res =
        (*server)->Retrieve({trace.events.back().time + 1}, kCompAll);
    ASSERT_TRUE(final_res.ok()) << final_res.status().ToString();
    EXPECT_EQ(final_res->event_count, trace.events.size());
    const auto oracle = test::NaiveReplayOracle::At(
        trace.events, trace.events.back().time + 1, kCompAll);
    EXPECT_TRUE(oracle.Matches(final_res->snapshots[0]));
  }
}

TEST(ServerTest, AdmissionLimitZeroRejectsEveryQuery) {
  auto store = NewMemKVStore();
  HistGraphServerOptions opts;
  opts.max_concurrent_queries = 0;  // Drain mode: reject all.
  auto server = HistGraphServer::Create(store.get(), opts);
  ASSERT_TRUE(server.ok());
  auto res = (*server)->GetSnapshot(10);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsUnavailable()) << res.status().ToString();
  EXPECT_EQ((*server)->stats().queries_rejected, 1u);
  EXPECT_EQ((*server)->stats().queries_admitted, 0u);
}

TEST(ServerTest, DeadlineExceededOnSlowStore) {
  RandomTraceOptions topts;
  topts.num_events = 2000;
  topts.seed = 17;
  const GeneratedTrace trace = GenerateRandomTrace(topts);

  KVStoreOptions kv;
  kv.read_latency_us = 3000;  // Every blob fetch costs 3ms.
  auto store = NewMemKVStore(kv);
  HistGraphServerOptions opts;
  opts.manager.index.leaf_size = 100;
  auto server = HistGraphServer::Create(store.get(), opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Append(trace.events).ok());
  ASSERT_TRUE((*server)->Finalize().ok());
  ASSERT_TRUE((*server)->Flush().ok());

  // An early time forces delta fetches through the slow store; the 50us
  // budget cannot cover one 3ms read, so the deadline trips at the
  // post-execution boundary.
  const Timestamp t = trace.events.back().time / 4;
  auto res = (*server)->GetSnapshot(t, kCompAll, /*deadline_us=*/50);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsDeadlineExceeded()) << res.status().ToString();
  EXPECT_GE((*server)->stats().deadlines_exceeded, 1u);

  // The same query without a deadline succeeds.
  auto ok = (*server)->GetSnapshot(t, kCompAll);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(ServerTest, FullIngestQueueRejectsAppends) {
  auto store = NewMemKVStore();
  HistGraphServerOptions opts;
  opts.max_ingest_queue = 2;
  auto server = HistGraphServer::Create(store.get(), opts);
  ASSERT_TRUE(server.ok());
  (*server)->SetIngestDelayForTesting(10000);  // Strand sleeps 10ms per op.

  int accepted = 0, rejected = 0;
  for (int i = 0; i < 8; ++i) {
    const Status s = (*server)->Append({Event::AddNode(i + 1, i + 1)});
    if (s.ok()) {
      ++accepted;
    } else {
      EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
      ++rejected;
    }
  }
  // One op in flight + two queued fit; the rest must have been rejected.
  EXPECT_GE(rejected, 1);
  EXPECT_GE(accepted, 2);

  (*server)->SetIngestDelayForTesting(0);
  ASSERT_TRUE((*server)->Flush().ok());
  const auto stats = (*server)->stats();
  EXPECT_EQ(stats.appends_rejected, static_cast<uint64_t>(rejected));
  EXPECT_EQ(stats.events_appended, static_cast<uint64_t>(accepted));
}

TEST(ServerTest, FlushDrainsAndEpochAdvancesPerBatch) {
  auto store = NewMemKVStore();
  auto server = HistGraphServer::Create(store.get(), {});
  ASSERT_TRUE(server.ok());
  const uint64_t epoch0 = (*server)->frontier_epoch();
  ASSERT_TRUE((*server)->Append({Event::AddNode(5, 1)}).ok());
  ASSERT_TRUE(
      (*server)->Append({Event::AddNode(6, 2), Event::AddNode(6, 3)}).ok());
  ASSERT_TRUE(
      (*server)->Append({Event::AddEdge(7, 1, 1, 2, false)}).ok());
  ASSERT_TRUE((*server)->Flush().ok());

  const auto stats = (*server)->stats();
  EXPECT_EQ(stats.batches_appended, 3u);
  EXPECT_EQ(stats.events_appended, 4u);
  // One epoch per batch, atomically visible: a reader sees 0, 1, 2, or 4
  // events, never a torn batch.
  EXPECT_GE(stats.frontier_epoch, epoch0 + 3);

  auto res = (*server)->GetSnapshot(100);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->event_count, 4u);
  EXPECT_EQ(res->snapshots[0].NodeCount(), 3u);
  EXPECT_EQ(res->snapshots[0].EdgeCount(), 1u);

  // Empty batches are a no-op, not an epoch.
  ASSERT_TRUE((*server)->Append({}).ok());
  ASSERT_TRUE((*server)->Flush().ok());
  EXPECT_EQ((*server)->stats().batches_appended, 3u);
}

// ---------------------------------------------------------------------------
// Observability surface: slow-query capture, ingest watchdog, statz
// ---------------------------------------------------------------------------

TEST(ServerObsTest, SlowQueryLogCarriesMatchingEpochAndSpanTree) {
  // The tail-latency attribution contract end to end: a query that crosses
  // the slow threshold must land in the flight recorder's slow-query log
  // with the epoch/event_count it actually pinned and its full span tree.
  obs::FlightRecorder::Global().Clear();
  obs::TraceSampler::Global().ResetCounters();

  RandomTraceOptions topts;
  topts.num_events = 2000;
  topts.seed = 4242;
  const GeneratedTrace trace = GenerateRandomTrace(topts);

  auto store = NewMemKVStore();
  HistGraphServerOptions opts;
  opts.manager.index.leaf_size = 100;
  opts.trace_sample_every_n = 1;  // Trace every query.
  opts.slow_query_us = 1;         // Every real query crosses the threshold.
  // At a 1us threshold the churn queries below are "slow" too; a roomy slow
  // log keeps them from evicting the entry under test, while the small
  // recent ring is guaranteed to cycle past it.
  opts.flight_recent_capacity = 64;
  opts.flight_slow_capacity = 1024;
  auto server = HistGraphServer::Create(store.get(), opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Append(trace.events).ok());
  ASSERT_TRUE((*server)->Finalize().ok());
  ASSERT_TRUE((*server)->Flush().ok());

  const Timestamp hi = trace.events.back().time;
  auto res = (*server)->Retrieve({hi / 3, hi / 2});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_GE((*server)->stats().slow_queries, 1u);

  const auto slow = obs::FlightRecorder::Global().Slow();
  ASSERT_FALSE(slow.empty());
  const obs::FlightEntry* entry = nullptr;
  for (const auto& e : slow) {
    if (e.label == "server.multipoint") entry = &e;
  }
  ASSERT_NE(entry, nullptr) << "query missing from the slow-query log";
  EXPECT_EQ(entry->epoch, res->epoch);
  EXPECT_EQ(entry->event_count, res->event_count);
  EXPECT_TRUE(entry->slow);
  EXPECT_TRUE(entry->has_trace);
  EXPECT_FALSE(entry->spans.empty()) << "slow entry lost its span tree";
  EXPECT_GT(entry->total_us, 0.0);

  // It survives recent-ring churn: push enough fast queries to cycle the
  // recent ring, then find the slow entry again by sequence number.
  const uint64_t seq = entry->seq;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*server)->GetSnapshot(hi).ok());
  }
  bool still_there = false;
  for (const auto& e : obs::FlightRecorder::Global().Slow()) {
    if (e.seq == seq) still_there = true;
  }
  EXPECT_TRUE(still_there);
}

TEST(ServerObsTest, EachQueryFeedsTheSamplerOnce) {
  // Whoever sampled a query feeds its latency back, once: the server for a
  // served query, the session for a session query, GetSnapshots for a direct
  // one. With a 1us arm threshold every query counts as slow.
  const bool metrics_were_on = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  RandomTraceOptions topts;
  topts.num_events = 1000;
  topts.seed = 5150;
  const GeneratedTrace trace = GenerateRandomTrace(topts);
  auto store = NewMemKVStore();
  HistGraphServerOptions opts;
  opts.manager.index.leaf_size = 100;
  opts.trace_sample_every_n = 0;
  opts.slow_query_us = 1;
  auto server = HistGraphServer::Create(store.get(), opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Append(trace.events).ok());
  ASSERT_TRUE((*server)->Finalize().ok());
  ASSERT_TRUE((*server)->Flush().ok());
  const Timestamp hi = trace.events.back().time;
  obs::TraceSampler& sampler = obs::TraceSampler::Global();

  sampler.ResetCounters();
  ASSERT_TRUE((*server)->Retrieve({hi / 2}).ok());
  EXPECT_EQ(sampler.slow_observed(), 1u) << "served query";

  sampler.ResetCounters();
  {
    auto session = (*server)->manager().NewRetrievalSession();
    session->Submit({hi / 3, hi / 2});
    ASSERT_TRUE(session->Wait().ok());
    ASSERT_TRUE(session->Wait().ok());  // Idempotent: no second observation.
  }
  EXPECT_EQ(sampler.slow_observed(), 1u) << "session query";

  sampler.ResetCounters();
  ASSERT_TRUE((*server)->manager().index().GetSnapshots({hi / 2}).ok());
  EXPECT_EQ(sampler.slow_observed(), 1u) << "direct query";

  sampler.Configure(/*every_n=*/0, /*arm_threshold_us=*/0);
  sampler.ResetCounters();
  obs::SetMetricsEnabled(metrics_were_on);
}

TEST(ServerObsTest, WatchdogFlagsStalledIngestOp) {
  auto store = NewMemKVStore();
  HistGraphServerOptions opts;
  opts.watchdog_budget_us = 20000;  // 20ms budget, polled every ~10ms.
  auto server = HistGraphServer::Create(store.get(), opts);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->stats().watchdog_stalls, 0u);

  // Each op dwells 100ms on the strand — 5x over budget; the watchdog must
  // flag it (once per op, so two ops bound the count at two).
  (*server)->SetIngestDelayForTesting(100000);
  ASSERT_TRUE((*server)->Append({Event::AddNode(5, 1)}).ok());
  ASSERT_TRUE((*server)->Append({Event::AddNode(6, 2)}).ok());
  ASSERT_TRUE((*server)->Flush().ok());
  (*server)->SetIngestDelayForTesting(0);

  const auto stats = (*server)->stats();
  EXPECT_GE(stats.watchdog_stalls, 1u);
  EXPECT_LE(stats.watchdog_stalls, 2u);
  EXPECT_EQ(stats.events_appended, 2u);  // Flagged, never killed.
}

TEST(ServerObsTest, StatusJSONCarriesEveryStatzSection) {
  const bool metrics_before = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);

  RandomTraceOptions topts;
  topts.num_events = 1500;
  topts.seed = 99;
  const GeneratedTrace trace = GenerateRandomTrace(topts);

  auto store = NewMemKVStore();
  HistGraphServerOptions opts;
  opts.manager.index.leaf_size = 100;
  opts.trace_sample_every_n = 2;
  opts.slow_query_us = 1;
  auto server = HistGraphServer::Create(store.get(), opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Append(trace.events).ok());
  ASSERT_TRUE((*server)->Finalize().ok());
  ASSERT_TRUE((*server)->Flush().ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*server)->GetSnapshot(trace.events.back().time / (i + 1)).ok());
  }

  std::string err;
  const obs::JsonValue status =
      obs::JsonValue::Parse((*server)->StatusJSON(), &err);
  ASSERT_TRUE(status.is_object()) << err;
  for (const char* section : {"server", "ingest", "watchdog", "frontier",
                              "sampler", "flight_recorder", "metrics"}) {
    EXPECT_TRUE(status.Has(section)) << "StatusJSON missing " << section;
  }
  EXPECT_GE(status["server"]["queries_admitted"].AsInt(), 4);
  EXPECT_EQ(status["server"]["trace_sample_every_n"].AsInt(), 2);
  EXPECT_EQ(status["frontier"]["epoch"].AsInt(),
            static_cast<int64_t>((*server)->frontier_epoch()));
  EXPECT_EQ(status["frontier"]["event_count"].AsInt(),
            static_cast<int64_t>(trace.events.size()));
  EXPECT_GE(status["ingest"]["applied_seq"].AsInt(), 2);
  EXPECT_TRUE(status["watchdog"]["enabled"].AsBool());
  EXPECT_EQ(status["sampler"]["every_n"].AsInt(), 2);
  EXPECT_GE(status["flight_recorder"]["recorded"].AsInt(), 1);
  // The per-stage attribution histograms ran with metrics on.
  const obs::JsonValue& hists = status["metrics"]["histograms"];
  for (const char* h : {"server.query_us", "server.stage_plan_us",
                        "server.stage_execute_us", "server.stage_merge_us"}) {
    ASSERT_TRUE(hists.Has(h)) << "missing histogram " << h;
    EXPECT_GE(hists[h]["count"].AsInt(), 1) << h;
  }

  obs::SetMetricsEnabled(metrics_before);
}

}  // namespace
}  // namespace hgdb

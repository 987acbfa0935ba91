// Figure 8(c): multipoint retrieval vs repeated singlepoint retrieval.
//
// The paper retrieves 2..6 snapshots spaced one month apart from Dataset 1;
// the Steiner-planned multipoint query fetches shared deltas once and wins
// decisively because adjacent snapshots overlap heavily. On top of the
// paper's comparison we time the multipoint plan at two pool sizes of the
// one plan executor: pool=1 (every subtree inline on the calling thread) and
// pool=N (HISTGRAPH_THREADS threads, default 4, sibling subtrees spread over
// the pool), which the acceptance gate of the exec subsystem tracks at
// k >= 8.

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "exec/io_pool.h"
#include "exec/task_pool.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"

int main() {
  using namespace hgdb;
  using namespace hgdb::bench;
  PrintHeader("Figure 8(c): multipoint query vs repeated singlepoint queries");
  OpenReport("fig8c_multipoint");
  Dataset data = MakeDataset1();
  std::printf("dataset: %s, %zu events\n\n", data.name.c_str(), data.events.size());

  auto store = NewSimDiskStore();
  DeltaGraphOptions opts;
  opts.leaf_size = std::max<size_t>(500, data.events.size() / 40);
  opts.arity = 4;
  opts.functions = {"intersection"};
  opts.maintain_current = false;
  auto dg = BuildIndex(store.get(), data, opts);

  // HISTGRAPH_THREADS is honored exactly; at 1 the pool=N column runs inline
  // like pool=1, so a thread-scaling sweep over the env knob stays truthful.
  const int threads = static_cast<int>(GetEnvInt("HISTGRAPH_THREADS", 4));
  TaskPool pool(threads);
  std::printf("pool=N: %d thread(s)%s\n\n", pool.parallelism(),
              pool.parallelism() < 2 ? " (inline)" : "");

  // Time points one "month" (30 days) apart in the middle of the history.
  const Timestamp base = data.min_time + (data.max_time - data.min_time) / 2;
  PrintRow({"# queries", "singlepoints", "multi pool=1", "multi pool=N", "N speedup"},
           16);
  for (int k : {2, 4, 6, 8, 12}) {
    std::vector<Timestamp> times;
    for (int i = 0; i < k; ++i) times.push_back(base + i * 30);

    dg->SetTaskPool(nullptr);  // pool=1: everything inline.
    Stopwatch sw;
    for (Timestamp t : times) {
      auto snap = dg->GetSnapshot(t, kCompAll);
      if (!snap.ok()) std::abort();
    }
    const double single_ms = sw.ElapsedMillis();

    // One untimed run to settle the decoded-object LRU so the two timed
    // pool sizes see the same cache state.
    if (!dg->GetSnapshots(times, kCompAll).ok()) std::abort();

    sw.Restart();
    auto one_snaps = dg->GetSnapshots(times, kCompAll);
    if (!one_snaps.ok()) std::abort();
    const double multi_one_ms = sw.ElapsedMillis();

    dg->SetTaskPool(&pool);
    sw.Restart();
    auto n_snaps = dg->GetSnapshots(times, kCompAll);
    if (!n_snaps.ok()) std::abort();
    const double multi_n_ms = sw.ElapsedMillis();
    for (size_t i = 0; i < times.size(); ++i) {  // Pool sizes must agree.
      if (!n_snaps.value()[i].Equals(one_snaps.value()[i])) std::abort();
    }

    char speedup[16];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", multi_one_ms / multi_n_ms);
    PrintRow({std::to_string(k), FormatMs(single_ms), FormatMs(multi_one_ms),
              FormatMs(multi_n_ms), speedup},
             16);
    ReportResult("singlepoints_k" + std::to_string(k), single_ms * 1e6);
    ReportResult("multipoint_k" + std::to_string(k), multi_one_ms * 1e6);
    ReportResult("multipoint_parallel_k" + std::to_string(k), multi_n_ms * 1e6);
  }
  // --- Observability overhead (sampled gate < 2%, full-on gate < 3.5%) ------
  // The k=8 pool=1 multipoint query with metrics + trace spans fully off vs
  // fully on (trace dumping stays off; HISTGRAPH_TRACE gates that
  // separately). Warm LRU, per-triple paired comparison, so the
  // percent-level comparison is not drowned by simulated-disk jitter.
  {
    dg->SetTaskPool(nullptr);
    std::vector<Timestamp> times;
    for (int i = 0; i < 8; ++i) times.push_back(base + i * 30);
    if (!dg->GetSnapshots(times, kCompAll).ok()) std::abort();  // Warm the LRU.
    // Off; metrics + full tracing on; and the production configuration —
    // metrics on, full tracing off, sampled tracing (1-in-64 + tail arming)
    // feeding the flight recorder, which is what HistGraphServer runs
    // always-on.
    enum { kOff = 0, kOn = 1, kSampled = 2 };
    constexpr int kTriples = 151;
    double triple_ms[3];
    double best[3] = {1e30, 1e30, 1e30};
    std::vector<double> ratio_on, ratio_sampled;
    auto run_config = [&](int cfg) {
      obs::SetMetricsEnabled(cfg != kOff);
      obs::SetTraceEnabled(cfg == kOn);
      if (cfg == kSampled) {
        obs::TraceSampler::Global().Configure(64, 1000000, 4);
      }
      Stopwatch sw;
      if (!dg->GetSnapshots(times, kCompAll).ok()) std::abort();
      triple_ms[cfg] = sw.ElapsedMillis();
      if (cfg == kSampled) obs::TraceSampler::Global().Configure(0, 0, 0);
      best[cfg] = std::min(best[cfg], triple_ms[cfg]);
    };
    // Paired comparison at the finest granularity: each triple runs the
    // three configs back-to-back (a ~2 ms window, so host / simulated-disk
    // drift is effectively constant across the triple and cancels in the
    // ratio), order rotating so any residual within-triple bias cancels
    // too. Every 5th triple re-warms untimed: whoever runs first after an
    // LRU eviction pays disk fetches, and that belongs to no config. The
    // median over all per-triple ratios then rejects the odd jittery triple
    // that a min-of-mins would fold into the gate.
    for (int triple = 0; triple < kTriples; ++triple) {
      if (triple % 5 == 0) {
        obs::SetMetricsEnabled(false);
        obs::SetTraceEnabled(false);
        if (!dg->GetSnapshots(times, kCompAll).ok()) std::abort();
      }
      for (int j = 0; j < 3; ++j) {
        run_config((triple + j) % 3);
      }
      ratio_on.push_back(triple_ms[kOn] / triple_ms[kOff]);
      ratio_sampled.push_back(triple_ms[kSampled] / triple_ms[kOff]);
    }
    obs::SetTraceEnabled(false);
    obs::SetMetricsEnabled(GetEnvInt("HISTGRAPH_METRICS", 1) != 0);
    auto median_overhead_pct = [](std::vector<double> r) {
      std::sort(r.begin(), r.end());
      return (r[r.size() / 2] - 1.0) * 100.0;
    };
    const double off_ms = best[kOff];
    const double on_ms = best[kOn];
    const double sampled_ms = best[kSampled];
    const double overhead_pct = median_overhead_pct(ratio_on);
    const double sampled_pct = median_overhead_pct(ratio_sampled);
    std::printf("\nobservability overhead (k=8 multipoint, pool=1): off %s, on %s "
                "(%+.2f%%; debug gate < 3.5%%), sampled %s (%+.2f%%; "
                "production gate < 2%%)\n",
                FormatMs(off_ms).c_str(), FormatMs(on_ms).c_str(), overhead_pct,
                FormatMs(sampled_ms).c_str(), sampled_pct);
    ReportResult("multipoint_k8_obs_off", off_ms * 1e6);
    ReportResult("multipoint_k8_obs_on", on_ms * 1e6);
    ReportResult("multipoint_k8_obs_sampled", sampled_ms * 1e6);
    // Percent in thousandths (the report writes integers): 1500 = 1.5%.
    ReportResult("obs_overhead_k8_pct_milli", overhead_pct * 1e3);
    ReportResult("obs_overhead_k8_sampled_pct_milli", sampled_pct * 1e3);
  }

  // --- Structural sharing across emitted snapshots --------------------------
  // k closely spaced snapshots differ by a handful of events each; the emit
  // cost of the (k-1) extra snapshots should scale with those deltas, not
  // with the size of the graph. Reported: the marginal per-snapshot emit time
  // (T(k) - T(1)) / (k - 1), the *resident* bytes of the k results (heap
  // parts deduped by pointer — shared structure counts once), and
  // shared_chunk_ratio = the fraction of store-part references that are
  // shared with another of the k snapshots (0 = every snapshot is a full
  // private copy, -> 1 = near-total structural sharing).
  {
    std::printf("\nemit cost for k=8 closely spaced snapshots (pool=1):\n");
    dg->SetTaskPool(nullptr);
    constexpr int kShare = 8;
    const Timestamp spacing = 4;  // ~a few dozen events apart on Dataset 1.
    // Late in the history, where the graph is at its largest: this is where
    // emit cost proportional to |graph| (clone-per-epoch) and emit cost
    // proportional to |delta| (chunked overlay) differ the most.
    const Timestamp share_base = data.max_time - (kShare + 2) * spacing;
    std::vector<Timestamp> close_times;
    for (int i = 0; i < kShare; ++i) close_times.push_back(share_base + i * spacing);

    if (!dg->GetSnapshots(close_times, kCompAll).ok()) std::abort();  // Warm.
    double t1_ms = 1e30, tk_ms = 1e30;
    std::vector<Snapshot> kept;
    for (int rep = 0; rep < 5; ++rep) {  // Min of 5: emits are microseconds.
      Stopwatch sw;
      auto one = dg->GetSnapshots({close_times[0]}, kCompAll);
      if (!one.ok()) std::abort();
      t1_ms = std::min(t1_ms, sw.ElapsedMillis());
      sw.Restart();
      auto many = dg->GetSnapshots(close_times, kCompAll);
      if (!many.ok()) std::abort();
      tk_ms = std::min(tk_ms, sw.ElapsedMillis());
      kept = std::move(many).value();
    }
    const double emit_ms = (tk_ms - t1_ms) / (kShare - 1);

    std::unordered_map<const void*, size_t> unique_parts;
    size_t total_refs = 0;
    for (const Snapshot& s : kept) {
      s.ForEachStorePart([&](const void* part, size_t bytes) {
        unique_parts.emplace(part, bytes);
        ++total_refs;
      });
    }
    uint64_t resident = 0;
    for (const auto& [part, bytes] : unique_parts) resident += bytes;
    const double shared_ratio =
        total_refs == 0
            ? 0.0
            : 1.0 - static_cast<double>(unique_parts.size()) /
                        static_cast<double>(total_refs);

    std::printf("per-snapshot emit time: %.1f us (T1 %s, T%d %s)\n",
                emit_ms * 1e3, FormatMs(t1_ms).c_str(), kShare,
                FormatMs(tk_ms).c_str());
    std::printf("resident bytes of %d snapshots: %s (%zu unique parts / %zu refs, "
                "shared ratio %.3f)\n",
                kShare, FormatBytes(resident).c_str(), unique_parts.size(),
                total_refs, shared_ratio);
    ReportResult("emit_per_snapshot_k8", emit_ms * 1e6);
    ReportResult("resident_bytes_k8", tk_ms * 1e6, resident);
    // Dimensionless ratio scaled to parts-per-million (the report writes
    // integer values): 842000 = 84.2% of part references shared.
    ReportResult("shared_chunk_ratio", shared_ratio * 1e6);
  }

  // --- Async prefetch under fetch latency ----------------------------------
  // The acceptance workload of the prefetch pipeline (PR 3): every fetch pays
  // a per-read latency (default 100us; HISTGRAPH_PREFETCH_LAT_US), the
  // decoded LRU is off so each timed query performs real fetches, and the
  // blocking path (SetIoPool(nullptr) — PR 2 behavior) runs against the
  // prefetched path on the same plans. Struct-only retrieval keeps the apply
  // work small relative to the fetch latency the prefetcher hides. With
  // HISTGRAPH_BENCH_STORE=disk (the CI smoke job) the fetches hit a real
  // DiskKVStore.
  std::printf("\nasync prefetch vs blocking fetch (latency-dominated store):\n");
  KVStoreOptions lat_kv;
  lat_kv.read_latency_us =
      static_cast<uint32_t>(GetEnvInt("HISTGRAPH_PREFETCH_LAT_US", 100));
  lat_kv.read_throughput_mbps = 0;
  auto lat_store = NewBenchStore(lat_kv);
  DeltaGraphOptions lat_opts = opts;
  // Fine leaves: a latency-bound store rewards many small fetches (the paper
  // sizes L for exactly this trade-off), and they keep per-fetch decode work
  // small enough that a single-core box can still overlap the seek sleeps.
  lat_opts.leaf_size = std::max<size_t>(100, data.events.size() / 400);
  auto lat_dg = BuildIndex(lat_store.get(), data, lat_opts);
  lat_dg->SetDecodedCacheCapacity(0);  // Every run pays the fetch latency.
  lat_dg->SetTaskPool(&pool);
  // Default matches IoPool::Shared() so the reported speedup is what a
  // default configuration actually gets.
  const int io_threads = static_cast<int>(GetEnvInt("HISTGRAPH_IO_THREADS", 8));
  if (io_threads < 1) {  // Honor the documented process-wide disable.
    std::printf("prefetch disabled (HISTGRAPH_IO_THREADS=%d); skipping table\n",
                io_threads);
    return 0;
  }
  IoPool io(io_threads);
  std::printf("read latency %uus, io pool %d thread(s)\n\n", lat_kv.read_latency_us,
              io.parallelism());
  PrintRow({"# queries", "blocking", "prefetch", "speedup", "batch width"}, 16);
  for (int k : {4, 8, 12}) {
    // Spread across the whole history (distinct plan subtrees, one fetch set
    // each) rather than one month apart: the month-apart points of the first
    // table share almost all of their edges, leaving no latency to hide.
    const std::vector<Timestamp> times = UniformTimepoints(data, k);

    lat_dg->SetIoPool(nullptr);  // PR 2 blocking-fetch path.
    Stopwatch sw;
    auto blocking = lat_dg->GetSnapshots(times, kCompStruct);
    if (!blocking.ok()) std::abort();
    const double blocking_ms = sw.ElapsedMillis();

    lat_dg->SetIoPool(&io);
    // Cross-delta batching: each I/O shard drains its queued fetches into one
    // KVStore::MultiGet per wakeup. The counter deltas around the timed run
    // yield the average number of deltas coalesced per round-trip.
    const size_t mg_before = lat_dg->delta_store().batched_multigets();
    const size_t rd_before = lat_dg->delta_store().batched_reads();
    sw.Restart();
    auto prefetched = lat_dg->GetSnapshots(times, kCompStruct);
    if (!prefetched.ok()) std::abort();
    const double prefetch_ms = sw.ElapsedMillis();
    const size_t mg = lat_dg->delta_store().batched_multigets() - mg_before;
    const size_t rd = lat_dg->delta_store().batched_reads() - rd_before;
    const double batch_width = mg == 0 ? 0.0 : static_cast<double>(rd) / mg;
    for (size_t i = 0; i < times.size(); ++i) {  // Paths must agree.
      if (!prefetched.value()[i].Equals(blocking.value()[i])) std::abort();
    }

    char speedup[16], width[24];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", blocking_ms / prefetch_ms);
    std::snprintf(width, sizeof(width), "%.1f (%zu rt)", batch_width, mg);
    PrintRow({std::to_string(k), FormatMs(blocking_ms), FormatMs(prefetch_ms),
              speedup, width},
             16);
    ReportResult("latency_blocking_k" + std::to_string(k), blocking_ms * 1e6);
    ReportResult("latency_prefetch_k" + std::to_string(k), prefetch_ms * 1e6);
    // Dimensionless: average deltas per storage round-trip, in thousandths.
    ReportResult("prefetch_batch_width_k" + std::to_string(k), batch_width * 1e3);
  }

  std::printf(
      "\npaper shape: multipoint far below k independent retrievals; pool=N\n"
      "should pull further ahead as k (independent plan subtrees) grows,\n"
      "given >= 2 real cores; prefetch hides fetch latency even on one core\n"
      "(the I/O pool sleeps, the executor applies).\n");
  return 0;
}

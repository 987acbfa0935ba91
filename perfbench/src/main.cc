// The repo benchmark: drives the historical graph store through its public
// entry points (HistGraphServer, GraphManager, DeltaGraph, KVStore and the
// compute/ algorithms) under one named workload, checks a seeded sample of
// answers against a naive replay of the generated log, and prints every
// metric by name and unit. The last line of stdout is one JSON object.
//
//   perfbench --workload hot_live|cold_history|analyze --seed N --seconds S
//             --trace 0|1 --data-dir DIR [--inject-fault]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with the benchmark's own timers and counters switched on and
// reports the per-layer metrics instead. --inject-fault alters one checked
// answer before it is checked; the run must then fail (exit 1).
// perfbench/README.md describes the workloads, phases and metrics.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_log.h"
#include "codec/delta_codec.h"
#include "codec/event_codec.h"
#include "compute/algorithms.h"
#include "compute/graph_accessor.h"
#include "core/attr_options.h"
#include "core/graph_manager.h"
#include "counting_store.h"
#include "obs/metrics.h"
#include "server/hist_graph_server.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using hgdb::GraphManager;
using hgdb::HistGraphServer;
using hgdb::KVStore;
using hgdb::Status;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Millis(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }
double Micros(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }
Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Nearest-rank quantile: with n samples, q = 0.99 leaves n/100 samples above.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}
double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Every workload runs the same phases (setup, serving, analysis) so every
/// end-to-end metric is measured on every workload; the workload fixes the
/// history, the store, the read mix and rate, and which phase gets the time.
struct Workload {
  const char* name;
  bool citation;       ///< Dataset-3-shaped log (initial graph + churn).
  size_t base_events;  ///< Events bulk loaded at setup.
  size_t initial_nodes = 0, initial_edges = 0;
  size_t leaf_size;
  bool disk_store;        ///< On-disk store (DiskKVStore) instead of in memory.
  bool zipf_recent;       ///< Read times skewed to recent history, else uniform.
  double p_multi;         ///< Share of multipoint reads.
  int k_multi;            ///< Times per multipoint read.
  double read_qps;        ///< Offered open-loop read rate, all readers.
  int readers;            ///< Open-loop reader threads.
  bool live_writer;       ///< A writer appends beside the open-loop readers.
  double batches_per_s;   ///< Writer batch rate (live writer and ingest probe).
  size_t batch_events;
  // Shares of --seconds given to each measured phase.
  double open_share, capacity_share, analyze_share;
};

constexpr int kAnalyzeK = 4;
constexpr int kPageRankIterations = 10;
constexpr int kPageRankWorkers = 1;
constexpr int kCapacityClients = 4;
constexpr uint64_t kMatBudgetBytes = 32ull << 20;
constexpr int kSetups = 5;
/// The writer calls Finalize after every kFinalizeEvery batches.
constexpr uint64_t kFinalizeEvery = 80;
/// Batches of the ingest probe that workloads without a live writer run.
constexpr size_t kProbeBatches = 240;
constexpr size_t kMaxHeld = 40;

const Workload kWorkloads[] = {
    {.name = "hot_live", .citation = false, .base_events = 40000, .leaf_size = 4000,
     .disk_store = false, .zipf_recent = true, .p_multi = 0.2, .k_multi = 4,
     .read_qps = 1200, .readers = 3, .live_writer = true, .batches_per_s = 40,
     .batch_events = 16,
     .open_share = 0.5, .capacity_share = 0.15, .analyze_share = 0.35},
    {.name = "cold_history", .citation = false, .base_events = 40000, .leaf_size = 100,
     .disk_store = true, .zipf_recent = false,
     .p_multi = 0.5, .k_multi = 8, .read_qps = 250, .readers = 4, .live_writer = false,
     .batches_per_s = 100, .batch_events = 2,
     .open_share = 0.55, .capacity_share = 0.15, .analyze_share = 0.3},
    {.name = "analyze", .citation = true, .base_events = 16000, .initial_nodes = 2000,
     .initial_edges = 8000, .leaf_size = 1000, .disk_store = false, .zipf_recent = false,
     .p_multi = 0.5, .k_multi = 4, .read_qps = 1500, .readers = 4, .live_writer = false,
     .batches_per_s = 100, .batch_events = 16,
     .open_share = 0.2, .capacity_share = 0.15, .analyze_share = 0.65},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject_fault = false;
  std::string data_dir = ".bench_build/perfbench-data";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (k == "--inject-fault") {
      a->inject_fault = true;
      continue;
    }
    if ((v = next()) == nullptr) return false;
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--trace") a->trace = std::atoi(v) != 0;
    else if (k == "--data-dir") a->data_dir = v;
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

// ---------------------------------------------------------------------------
// Recorded results
// ---------------------------------------------------------------------------

struct ReadRec {
  bool multi = false;
  bool traced = false;  ///< Issued inside a traced window.
  double latency_ms = 0;  ///< From the scheduled send time to the answer.
  double call_us = 0;     ///< Inside Retrieve.
  double wait_ms = 0;     ///< Scheduled send time to call start.
};

/// A checked answer: fingerprints of each returned graph and the prefix of
/// the log the answer claims to reflect. A served answer is held as
/// returned and fingerprinted after its phase, off the readers' threads.
struct Checked {
  std::vector<hgdb::Timestamp> times;
  size_t event_count = 0;
  bool with_attrs = true;
  std::vector<hgdb::Snapshot> held;
  std::vector<Fingerprint> fps;
  std::vector<std::unordered_map<NodeId, double>> ranks;  ///< Analyze only.
};

/// Everything a traced window adds up: decorator counts, decoded-cache and
/// registry deltas.
struct LayerWindow {
  CountingKVStore::Counts kv;
  uint64_t lru_hits = 0, lru_misses = 0;
  uint64_t covered = 0, demand = 0;
  uint64_t drains = 0, drain_width_sum = 0;
  uint64_t appended_events = 0, appended_batches = 0;
};

class Bench {
 public:
  Bench(const Args& args, const Workload& w) : args_(args), w_(w), rng_(args.seed) {}

  int Run();

 private:
  // -- Inputs and setup -------------------------------------------------------
  void Generate();
  hgdb::HistGraphServerOptions ServerOptions() const;
  std::unique_ptr<KVStore> NewStore(int index);
  Status SetupOnce(int index);
  void DropInstance();

  // -- Serving ----------------------------------------------------------------
  struct OpenLoopOut {
    std::vector<ReadRec> reads;
    std::vector<double> late_ms;
    double seconds = 0;
  };
  struct WriterOut {
    std::vector<double> visible_ms, append_us;
    std::atomic<uint64_t> batches{0};  ///< Read by the readers' stop check.
    uint64_t events = 0;
    int64_t queue_max = 0;
  };
  std::vector<hgdb::Timestamp> PickTimes(std::mt19937_64* rng, bool multi) const;
  hgdb::Timestamp PickTime(std::mt19937_64* rng) const;
  void ReadOnce(std::mt19937_64* rng, bool multi, ReadRec* rec, Clock::time_point due,
                bool check);
  OpenLoopOut OpenLoop(double seconds, bool with_writer, WriterOut* wout, bool trace_windows,
                       size_t min_single, size_t min_multi);
  void Writer(Clock::time_point start, size_t max_batches, WriterOut* out,
              const std::atomic<bool>* stop);
  void FingerprintHeld();
  double Capacity(double seconds);
  double Warmup(bool with_writer);
  Status ServingPhases();
  void ReplaySampled();

  // -- Analysis ---------------------------------------------------------------
  Status AnalyzePhase(double seconds);

  // -- Checks and output ------------------------------------------------------
  LayerWindow Current() const;
  void BeginWindow();
  void EndWindow();
  size_t Verify();
  void Emit(bool correct, uint64_t failed);

  const Args& args_;
  const Workload& w_;
  std::mt19937_64 rng_;

  GeneratedLog log_;
  std::unique_ptr<ReplayOracle> oracle_;
  hgdb::Timestamp lo_ = 0, hi_ = 0;  ///< Queried time span.
  size_t cursor_ = 0;                ///< Next log event the writer appends.
  std::vector<double> zipf_cdf_;

  std::unique_ptr<KVStore> raw_store_;
  std::unique_ptr<CountingKVStore> counting_;  ///< Trace runs only.
  std::string store_dir_;
  std::unique_ptr<HistGraphServer> server_;
  std::unique_ptr<GraphManager> gm_;
  KVStore* store() { return counting_ ? static_cast<KVStore*>(counting_.get()) : raw_store_.get(); }

  // Outcome tallies (all phases).
  std::atomic<uint64_t> attempted_{0}, read_errors_{0}, append_failures_{0};
  uint64_t analyze_errors_ = 0;
  std::mutex checked_mu_;
  std::vector<Checked> checked_;
  /// Answers held for checking in the current phase (at most kMaxHeld).
  std::atomic<size_t> held_{0};
  std::atomic<bool> fault_injected_{false};

  // Traced-window accumulation.
  std::atomic<bool> in_trace_window_{false};
  LayerWindow window_start_, traced_;
  uint64_t traced_reads_ = 0;  ///< Reads issued inside traced windows.
  std::atomic<uint64_t> appended_events_{0}, appended_batches_{0};
  /// Traced reads kept for replay, with their time inside Retrieve.
  struct ReplayItem {
    std::vector<hgdb::Timestamp> times;
    double call_us;
  };
  std::vector<ReplayItem> replay_single_, replay_multi_;

  std::map<std::string, std::pair<double, const char*>> e2e_, layer_, ungated_;
  void E2E(const std::string& n, double v, const char* unit) { e2e_[n] = {v, unit}; }
  void Layer(const std::string& n, double v, const char* unit) { layer_[n] = {v, unit}; }
  /// An end-to-end timing: on a shared VM its run-to-run spread exceeds any
  /// bound a gate may use (perfbench/README.md), so it is printed in every
  /// run and reported with the per-layer metrics instead of gated.
  void Ungated(const std::string& n, double v, const char* unit) {
    ungated_[n] = {v, unit};
    Layer(n, v, unit);
  }
};

// ---------------------------------------------------------------------------
// Inputs and setup
// ---------------------------------------------------------------------------

void Bench::Generate() {
  // The log holds the bulk-loaded history plus a tail the writer streams:
  // enough for the longest live phase and the ingest probe.
  const double live_s = w_.live_writer ? 2 * args_.seconds * w_.open_share + 6.0 : 0;
  const size_t tail = static_cast<size_t>(
      (w_.batches_per_s * live_s + static_cast<double>(kProbeBatches) + 64) *
      static_cast<double>(w_.batch_events));
  if (w_.citation) {
    log_ = GenerateCitationLog(w_.initial_nodes, w_.initial_edges, w_.base_events + tail,
                               args_.seed);
  } else {
    log_ = GenerateServingLog(w_.base_events + tail, args_.seed);
  }
  oracle_ = std::make_unique<ReplayOracle>(log_);
  lo_ = log_.events.front().time;
  hi_ = log_.events[w_.base_events - 1].time;
  // Zipf(1.1) over 64 buckets of the span, rank 0 = newest.
  zipf_cdf_.resize(64);
  double total = 0;
  for (size_t i = 0; i < zipf_cdf_.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    zipf_cdf_[i] = total;
  }
  for (double& c : zipf_cdf_) c /= total;
}

hgdb::HistGraphServerOptions Bench::ServerOptions() const {
  hgdb::HistGraphServerOptions o;  // Production defaults: sampled tracing on.
  o.manager.index.leaf_size = w_.leaf_size;
  o.manager.materialization_budget_bytes = kMatBudgetBytes;
  return o;
}

std::unique_ptr<KVStore> Bench::NewStore(int index) {
  const hgdb::KVStoreOptions opts;
  if (!w_.disk_store) return hgdb::NewMemKVStore(opts);
  store_dir_ = args_.data_dir + "/" + w_.name + "-" + std::to_string(args_.seed) + "-" +
               std::to_string(index);
  std::error_code ec;
  std::filesystem::remove_all(store_dir_, ec);
  std::filesystem::create_directories(store_dir_, ec);
  std::unique_ptr<KVStore> store;
  if (!hgdb::OpenDiskKVStore(store_dir_ + "/db.log", opts, &store).ok()) return nullptr;
  return store;
}

void Bench::DropInstance() {
  server_.reset();
  gm_.reset();
  counting_.reset();
  raw_store_.reset();
  if (!store_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
    store_dir_.clear();
  }
}

// One bulk load through the public API: the whole history plus Finalize and
// Flush (or FinalizeIndex without a server). Input generation is not timed.
Status Bench::SetupOnce(int index) {
  raw_store_ = NewStore(index);
  if (raw_store_ == nullptr) return Status::IOError("cannot open store");
  if (args_.trace) {
    counting_ = std::make_unique<CountingKVStore>(raw_store_.get());
    counting_->SetCounting(index == kSetups - 1);
  }
  const std::vector<Event> base(log_.events.begin(), log_.events.begin() + w_.base_events);
  if (w_.citation) {
    hgdb::GraphManagerOptions o = ServerOptions().manager;
    auto gm = GraphManager::Create(store(), o);
    if (!gm.ok()) return gm.status();
    gm_ = std::move(gm).value();
    HG_RETURN_NOT_OK(gm_->SetInitialSnapshot(log_.initial, log_.initial_time));
    HG_RETURN_NOT_OK(gm_->ApplyEvents(base));
    HG_RETURN_NOT_OK(gm_->FinalizeIndex());
  } else {
    auto server = HistGraphServer::Create(store(), ServerOptions());
    if (!server.ok()) return server.status();
    server_ = std::move(server).value();
    for (size_t i = 0; i < base.size(); i += 2048) {
      const size_t n = std::min<size_t>(2048, base.size() - i);
      HG_RETURN_NOT_OK(server_->Append(std::vector<Event>(base.begin() + i, base.begin() + i + n)));
      if (index == kSetups - 1) ++appended_batches_;
    }
    HG_RETURN_NOT_OK(server_->Finalize());
    HG_RETURN_NOT_OK(server_->Flush());
  }
  if (index == kSetups - 1) appended_events_ += base.size();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

hgdb::Timestamp Bench::PickTime(std::mt19937_64* rng) const {
  std::uniform_real_distribution<double> unit(0, 1);
  const double span = static_cast<double>(hi_ - lo_);
  if (!w_.zipf_recent) return lo_ + static_cast<hgdb::Timestamp>(unit(*rng) * span);
  const size_t b = static_cast<size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), unit(*rng)) - zipf_cdf_.begin());
  const double width = span / static_cast<double>(zipf_cdf_.size());
  const double hi_off = span - static_cast<double>(b) * width;
  return lo_ + static_cast<hgdb::Timestamp>(hi_off - unit(*rng) * width);
}

std::vector<hgdb::Timestamp> Bench::PickTimes(std::mt19937_64* rng, bool multi) const {
  std::vector<hgdb::Timestamp> times;
  const int k = multi ? w_.k_multi : 1;
  for (int i = 0; i < k; ++i) times.push_back(PickTime(rng));
  return times;
}

// One read through the server. A checked read's answer is held, to be
// fingerprinted after the phase.
void Bench::ReadOnce(std::mt19937_64* rng, bool multi, ReadRec* rec, Clock::time_point due,
                     bool check) {
  const std::vector<hgdb::Timestamp> times = PickTimes(rng, multi);
  ++attempted_;
  const auto call = Clock::now();
  auto r = server_->Retrieve(times, hgdb::kCompAll);
  const auto done = Clock::now();
  rec->multi = multi;
  rec->latency_ms = Millis(done - due);
  rec->call_us = Micros(done - call);
  rec->wait_ms = Millis(call - due);
  if (!r.ok()) {
    ++read_errors_;
    return;
  }
  if (rec->traced && (*rng)() % 4 == 0) {
    std::lock_guard<std::mutex> lock(checked_mu_);
    auto& pool = multi ? replay_multi_ : replay_single_;
    if (pool.size() < 64) pool.push_back({times, rec->call_us});
  }
  if (!check || held_.fetch_add(1) >= kMaxHeld) return;
  std::vector<hgdb::Snapshot>& snaps = r.value().snapshots;
  if (args_.inject_fault && !fault_injected_.exchange(true)) {
    snaps[0].AddNode(~NodeId{0} >> 1);  // A node no replay contains.
  }
  Checked c;
  c.times = times;
  c.event_count = r.value().event_count;
  c.held = std::move(snaps);
  std::lock_guard<std::mutex> lock(checked_mu_);
  checked_.push_back(std::move(c));
}

// Fingerprints and frees the answers held during the last phase.
void Bench::FingerprintHeld() {
  for (Checked& c : checked_) {
    for (const hgdb::Snapshot& s : c.held) c.fps.push_back(FingerprintOf(s));
    c.held.clear();
  }
  held_.store(0);
}

// Appends fixed-size batches of the log tail at a fixed rate until stopped
// (or `max_batches`). After each Append returns OK the writer waits in Flush,
// which returns once the ingest strand has applied the batch and published
// its frontier; the pinned frontier must then cover the batch.
void Bench::Writer(Clock::time_point start, size_t max_batches, WriterOut* out,
                   const std::atomic<bool>* stop) {
  hgdb::DeltaGraph& index = server_->manager().index();
  size_t expected = index.PinFrontier()->event_count;
  const auto interval = FromSeconds(1.0 / w_.batches_per_s);
  for (auto due = start; out->batches < max_batches && !stop->load(); due += interval) {
    std::this_thread::sleep_until(due);
    if (cursor_ + w_.batch_events > log_.events.size()) break;
    std::vector<Event> batch(log_.events.begin() + cursor_,
                             log_.events.begin() + cursor_ + w_.batch_events);
    ++attempted_;
    const auto call = Clock::now();
    Status s = server_->Append(std::move(batch));
    const auto ok_at = Clock::now();
    out->append_us.push_back(Micros(ok_at - call));
    if (!s.ok()) {
      ++append_failures_;
      continue;
    }
    out->queue_max = std::max<int64_t>(
        out->queue_max, static_cast<int64_t>(server_->stats().ingest_queue_depth));
    cursor_ += w_.batch_events;
    expected += w_.batch_events;
    s = server_->Flush();
    const auto visible_at = Clock::now();
    if (!s.ok() || index.PinFrontier()->event_count < expected) {
      ++append_failures_;
    } else {
      out->visible_ms.push_back(Millis(visible_at - ok_at));
    }
    ++out->batches;
    out->events += w_.batch_events;
    if (in_trace_window_.load()) {
      appended_events_ += w_.batch_events;
      ++appended_batches_;
    }
    if (out->batches % kFinalizeEvery == 0) {
      ++attempted_;
      if (!server_->Finalize().ok()) ++append_failures_;
    }
  }
}

// Open loop: each reader follows its own paced schedule and never waits for
// the system; a read is timed from its scheduled send time. With trace
// windows, the phase alternates untraced and traced quarters.
Bench::OpenLoopOut Bench::OpenLoop(double seconds, bool with_writer, WriterOut* wout,
                                   bool trace_windows, size_t min_single, size_t min_multi) {
  OpenLoopOut out;
  const int readers = w_.readers;
  const uint64_t phase_seed = rng_();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto planned_end = start + FromSeconds(seconds);
  const auto hard_end = start + FromSeconds(2 * seconds);
  std::atomic<size_t> singles{0}, multis{0};
  // The writer's visibility p95 needs >= 200 batches too.
  const size_t min_batches = with_writer && min_single > 0 ? 210 : 0;
  std::vector<std::vector<ReadRec>> recs(readers);
  std::vector<std::vector<double>> late(readers);
  auto reader = [&](int r) {
    std::mt19937_64 rng(phase_seed + 7919 * static_cast<uint64_t>(r + 1));
    std::uniform_real_distribution<double> unit(0, 1);
    // Paced arrivals: a fixed gap per reader, readers offset by a seeded phase.
    const double gap = readers / w_.read_qps;
    double due_s = unit(rng) * gap;
    while (true) {
      const auto due = start + FromSeconds(due_s);
      const bool enough = singles.load() >= min_single && multis.load() >= min_multi &&
                          wout->batches.load() >= min_batches;
      if (due >= hard_end || (due >= planned_end && enough)) break;
      if (Clock::now() < due) {
        std::this_thread::sleep_until(due);
        late[r].push_back(Millis(Clock::now() - due));
      }
      ReadRec rec;
      const int quarter = static_cast<int>(4 * due_s / seconds);
      rec.traced = trace_windows && (quarter == 1 || quarter == 3);
      const bool multi = unit(rng) < w_.p_multi;
      ReadOnce(&rng, multi, &rec, due, rng() % 128 == 0);
      ++(multi ? multis : singles);
      recs[r].push_back(rec);
      due_s += gap;
    }
  };
  std::atomic<bool> stop_writer{false};
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) threads.emplace_back(reader, r);
  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] { Writer(start, SIZE_MAX, wout, &stop_writer); });
  }
  if (trace_windows) {
    // Quarters 1 and 3 are traced: counters on, metrics registry on.
    for (int q = 0; q < 4; ++q) {
      std::this_thread::sleep_until(start + FromSeconds(seconds * q / 4));
      if (q % 2 == 1) BeginWindow();
      std::this_thread::sleep_until(start + FromSeconds(seconds * (q + 1) / 4));
      if (q % 2 == 1) EndWindow();
    }
  }
  for (auto& t : threads) t.join();
  stop_writer.store(true);
  out.seconds = Seconds(Clock::now() - start);
  if (writer.joinable()) writer.join();
  for (int r = 0; r < readers; ++r) {
    out.reads.insert(out.reads.end(), recs[r].begin(), recs[r].end());
    out.late_ms.insert(out.late_ms.end(), late[r].begin(), late[r].end());
  }
  FingerprintHeld();
  return out;
}

// Closed loop with kCapacityClients clients: the median over quarter-second
// windows of reads completed per second, so one host stall moves one window.
double Bench::Capacity(double seconds) {
  const uint64_t phase_seed = rng_();
  std::atomic<uint64_t> done{0};
  const auto start = Clock::now();
  const auto end = start + FromSeconds(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < kCapacityClients; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(phase_seed + 104729 * static_cast<uint64_t>(c + 1));
      std::uniform_real_distribution<double> unit(0, 1);
      while (Clock::now() < end) {
        ReadRec rec;
        ReadOnce(&rng, unit(rng) < w_.p_multi, &rec, Clock::now(), rng() % 128 == 0);
        ++done;
      }
    });
  }
  std::vector<double> rates;
  uint64_t last = 0;
  auto last_at = start;
  for (auto t = start + std::chrono::milliseconds(250); t <= end; t += std::chrono::milliseconds(250)) {
    std::this_thread::sleep_until(t);
    const uint64_t count = done.load();
    const auto at = Clock::now();
    rates.push_back(static_cast<double>(count - last) / Seconds(at - last_at));
    last = count;
    last_at = at;
  }
  for (auto& t : threads) t.join();
  FingerprintHeld();
  if (rates.empty()) return static_cast<double>(done.load()) / Seconds(Clock::now() - start);
  return Quantile(rates, 0.5);
}

// Warms the process and the machine until both are steady, in half-second
// rounds. First a saturating closed loop until its throughput stops moving:
// a box that sat idle runs well below its usual speed for the first seconds
// of load. Then the open loop itself, until per-round throughput, median
// latency and the advisor's materialization changes settle. Returns the
// time it took.
double Bench::Warmup(bool with_writer) {
  const auto start = Clock::now();
  std::vector<double> saturated;
  for (int round = 0; round < 12; ++round) {
    saturated.push_back(Capacity(0.5));
    const size_t n = saturated.size();
    if (n < 4) continue;
    const double mid = Quantile({saturated[n - 1], saturated[n - 2], saturated[n - 3]}, 0.5);
    if (std::abs(saturated[n - 1] / mid - 1) < 0.05 && std::abs(saturated[n - 2] / mid - 1) < 0.05 &&
        std::abs(saturated[n - 3] / mid - 1) < 0.05) {
      break;
    }
  }
  std::vector<double> qps, p50;
  std::vector<uint64_t> changes;
  hgdb::MaterializationAdvisor* advisor = server_->advisor();
  auto advisor_changes = [&] {
    return advisor ? advisor->total_materialized() + advisor->total_evicted() : 0;
  };
  for (int round = 0; round < 10; ++round) {
    const uint64_t before = advisor_changes();
    WriterOut wout;
    const OpenLoopOut o = OpenLoop(0.5, with_writer, &wout, false, 0, 0);
    std::vector<double> lat;
    for (const ReadRec& r : o.reads) lat.push_back(r.latency_ms);
    qps.push_back(static_cast<double>(o.reads.size()) / o.seconds);
    p50.push_back(Quantile(lat, 0.5));
    changes.push_back(advisor_changes() - before);
    const size_t n = qps.size();
    if (n < 4) continue;
    // Settled: the last three rounds keep the offered rate, agree on the
    // median latency, and change materializations at a steady rate.
    bool steady = true;
    const double p50_mid = Quantile({p50[n - 1], p50[n - 2], p50[n - 3]}, 0.5);
    const double changes_mid = Quantile({static_cast<double>(changes[n - 1]),
                                         static_cast<double>(changes[n - 2]),
                                         static_cast<double>(changes[n - 3])}, 0.5);
    for (size_t i = n - 3; i < n; ++i) {
      steady = steady && std::abs(qps[i] / w_.read_qps - 1) < 0.15 &&
               std::abs(p50[i] / p50_mid - 1) < 0.2 &&
               std::abs(static_cast<double>(changes[i]) - changes_mid) <=
                   std::max(2.0, 0.3 * changes_mid);
    }
    if (steady) break;
  }
  return Seconds(Clock::now() - start);
}

Status Bench::ServingPhases() {
  const double open_s = args_.seconds * w_.open_share;
  const double warmup_s = Warmup(w_.live_writer);
  Layer("driver.warmup_s", warmup_s, "s");

  hgdb::MaterializationAdvisor* advisor = server_->advisor();
  const uint64_t changes0 =
      advisor ? advisor->total_materialized() + advisor->total_evicted() : 0;
  const uint64_t epoch0 = server_->frontier_epoch();
  WriterOut wout;
  // Only untraced reads give latencies; a traced run needs twice as many.
  const size_t min_samples = args_.trace ? 2020 : 1010;
  const OpenLoopOut open =
      OpenLoop(open_s, w_.live_writer, &wout, args_.trace, min_samples, min_samples);
  const uint64_t changes1 =
      advisor ? advisor->total_materialized() + advisor->total_evicted() : 0;
  const uint64_t epochs = server_->frontier_epoch() - epoch0;
  if (args_.trace) ReplaySampled();

  std::vector<double> single, multi, late = open.late_ms, wait;
  std::vector<double> call_single, call_multi, traced_lat, untraced_lat;
  for (const ReadRec& r : open.reads) {
    if (!r.traced) (r.multi ? multi : single).push_back(r.latency_ms);
    wait.push_back(r.wait_ms);
    if (r.traced) {
      ++traced_reads_;
      (r.multi ? call_multi : call_single).push_back(r.call_us);
      traced_lat.push_back(r.latency_ms);
    } else {
      untraced_lat.push_back(r.latency_ms);
    }
  }
  Ungated("single_p50_ms", Quantile(single, 0.5), "ms");
  Ungated("single_p99_ms", Quantile(single, 0.99), "ms");
  Ungated("multi_p50_ms", Quantile(multi, 0.5), "ms");
  Ungated("multi_p99_ms", Quantile(multi, 0.99), "ms");
  Layer("driver.single_samples", static_cast<double>(single.size()), "count");
  Layer("driver.multi_samples", static_cast<double>(multi.size()), "count");
  Layer("driver.late_p99_ms", Quantile(late, 0.99), "ms");
  Layer("driver.wait_p99_ms", Quantile(wait, 0.99), "ms");
  Layer("server.retrieve_single_p50_us", Quantile(call_single, 0.5), "us");
  Layer("server.retrieve_multi_p50_us", Quantile(call_multi, 0.5), "us");
  Layer("server.epochs", static_cast<double>(epochs), "count");
  Layer("adaptive.changes", static_cast<double>(changes1 - changes0), "count");
  Layer("adaptive.resident_bytes", advisor ? static_cast<double>(advisor->resident_bytes()) : 0,
        "B");
  if (args_.trace && !w_.citation) {
    Layer("trace.overhead_frac",
          Quantile(traced_lat, 0.5) / Quantile(untraced_lat, 0.5) - 1, "ratio");
  }

  Ungated("capacity_qps", Capacity(args_.seconds * w_.capacity_share), "1/s");

  if (!w_.live_writer) {
    // Ingest probe: the same writer alone, for a fixed number of batches.
    std::atomic<bool> no_stop{false};
    Writer(Clock::now(), kProbeBatches, &wout, &no_stop);
  }
  Ungated("visible_p95_ms", Quantile(wout.visible_ms, 0.95), "ms");
  Layer("driver.visible_samples", static_cast<double>(wout.visible_ms.size()), "count");
  Layer("server.append_p99_us", Quantile(wout.append_us, 0.99), "us");
  Layer("server.queue_depth_max", static_cast<double>(wout.queue_max), "count");
  // The write share beside the readers; 0 without a live writer.
  const double writes = w_.live_writer ? static_cast<double>(wout.batches) : 0;
  Layer("driver.write_events_per_s",
        w_.live_writer ? static_cast<double>(wout.events) / open.seconds : 0, "1/s");
  Layer("driver.write_op_share", writes / (writes + static_cast<double>(open.reads.size())),
        "ratio");
  HG_RETURN_NOT_OK(server_->Finalize());
  return server_->Flush();
}

// Replays sampled traced reads one at a time, with no other traffic, each
// against one pinned frontier: PlanForAt, then GetSnapshotsAt with the
// decorator capturing the blobs it returns, then the codec's public decode
// functions on those blobs.
void Bench::ReplaySampled() {
  hgdb::DeltaGraph& index = server_->manager().index();
  std::vector<double> plan_single, plan_multi, exec_single, exec_multi, steps_multi;
  std::vector<double> elements;
  double decode_us = 0, decoded_bytes = 0, engine_us = 0, live_us = 0;
  size_t replays = 0;
  for (int multi = 0; multi < 2; ++multi) {
    for (const ReplayItem& item : multi ? replay_multi_ : replay_single_) {
      const std::vector<hgdb::Timestamp>& times = item.times;
      const hgdb::FrontierPtr f = index.PinFrontier();
      const auto t0 = Clock::now();
      auto plan = index.PlanForAt(f, times, hgdb::kCompAll);
      const auto t1 = Clock::now();
      counting_->SetCapture(true);
      auto snaps = index.GetSnapshotsAt(f, times, hgdb::kCompAll);
      const auto t2 = Clock::now();
      counting_->SetCapture(false);
      const auto blobs = counting_->TakeCaptured();
      ++attempted_;
      if (!plan.ok() || !snaps.ok()) {
        ++read_errors_;
        continue;
      }
      const double plan_us = Micros(t1 - t0);
      const double exec_us = std::max(0.0, Micros(t2 - t1) - plan_us);
      (multi ? plan_multi : plan_single).push_back(plan_us);
      (multi ? exec_multi : exec_single).push_back(exec_us);
      if (multi) steps_multi.push_back(static_cast<double>(plan.value().StepCount()));
      engine_us += plan_us + exec_us;
      live_us += item.call_us;
      double n = 0;
      Checked c;
      c.times = times;
      c.event_count = f->event_count;
      for (const hgdb::Snapshot& s : snaps.value()) {
        n += static_cast<double>(s.ElementCount());
        c.fps.push_back(FingerprintOf(s));
      }
      checked_.push_back(std::move(c));
      elements.push_back(n);
      // Blob keys are d/<delta id>/<component tag>; the skeleton says
      // whether the id names a delta or a leaf eventlist.
      std::unordered_map<hgdb::DeltaId, bool> is_eventlist;
      for (size_t e = 0; e < f->skeleton->edge_count(); ++e) {
        const hgdb::SkeletonEdge& edge = f->skeleton->edge(static_cast<int32_t>(e));
        is_eventlist[edge.delta_id] = edge.is_eventlist;
      }
      for (const auto& [key, blob] : blobs) {
        if (key.size() < 4 || key[0] != 'd' || key[1] != '/') continue;
        const size_t slash = key.rfind('/');
        const hgdb::DeltaId id = std::strtoull(key.c_str() + 2, nullptr, 10);
        const char tag = key[slash + 1];
        const hgdb::ComponentMask mask = tag == 's'   ? hgdb::kCompStruct
                                         : tag == 'n' ? hgdb::kCompNodeAttr
                                         : tag == 'e' ? hgdb::kCompEdgeAttr
                                                      : hgdb::kCompTransient;
        const auto d0 = Clock::now();
        if (is_eventlist[id]) {
          std::vector<hgdb::codec::SeqEvent> evs;
          (void)hgdb::codec::DecodeEventListComponent(blob, &evs);
        } else {
          hgdb::Delta delta;
          (void)hgdb::codec::DecodeDeltaComponent(mask, blob, &delta);
        }
        decode_us += Micros(Clock::now() - d0);
        decoded_bytes += static_cast<double>(blob.size());
      }
      ++replays;
    }
  }
  // The same reads as timed live inside Retrieve (traced windows).
  Layer("deltagraph.plan_single_us", Quantile(plan_single, 0.5), "us");
  Layer("deltagraph.plan_multi_us", Quantile(plan_multi, 0.5), "us");
  Layer("deltagraph.plan_steps_multi", Quantile(steps_multi, 0.5), "count");
  Layer("deltagraph.execute_single_us", Quantile(exec_single, 0.5), "us");
  Layer("deltagraph.execute_multi_us", Quantile(exec_multi, 0.5), "us");
  Layer("deltagraph.answer_elements", Mean(elements), "count");
  Layer("codec.decode_us_per_read", Ratio(decode_us, static_cast<double>(replays)), "us");
  Layer("codec.decoded_bytes_per_read", Ratio(decoded_bytes, static_cast<double>(replays)),
        "B");
  Layer("driver.replayed_reads", static_cast<double>(replays), "count");
  // Share of the live Retrieve time of the same reads that the replayed
  // plan + execute explain; the rest is admission, queueing and contention.
  if (!w_.citation) Layer("trace.coverage_frac", Ratio(engine_us, live_us), "ratio");
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

// Closed loop, one client. An op retrieves kAnalyzeK historical graphs into
// the pool, runs PageRank over each view, then releases them and runs the
// cleaner. Checking a sampled op (fingerprints, a copy of the ranks) is
// excluded from its time.
Status Bench::AnalyzePhase(double seconds) {
  const unsigned components = hgdb::AttrOptions::Parse("").value().Components();
  std::vector<double> op_ms, traced_ms, untraced_ms;
  std::vector<double> retrieve_ms, overlay_ms, release_ms, accessor_ms, pagerank_ms;
  double covered_ms = 0, traced_total_ms = 0, memory_max = 0;
  size_t checks = 0;
  auto op = [&](int i, bool measured) -> Status {
    // One time in each k-th of the history, so every op analyzes graphs of
    // the same mix of ages.
    std::vector<hgdb::Timestamp> times;
    std::uniform_real_distribution<double> unit(0, 1);
    const double span = static_cast<double>(hi_ - lo_);
    for (int k = 0; k < kAnalyzeK; ++k) {
      times.push_back(lo_ + static_cast<hgdb::Timestamp>((k + unit(rng_)) / kAnalyzeK * span));
    }
    const bool traced = args_.trace && measured && i % 2 == 1;
    const bool check = measured && i % 8 == 0 && checks < 16;
    ++attempted_;
    Clock::duration excluded{0};
    const auto t0 = Clock::now();
    auto graphs = gm_->GetHistGraphs(times);
    const auto t1 = Clock::now();
    if (!graphs.ok()) return graphs.status();
    double acc_ms = 0, pr_ms = 0;
    Checked c;
    if (check) {
      c.times = times;
      c.event_count = gm_->index().event_count();
      c.with_attrs = false;
    }
    for (hgdb::HistGraph& g : graphs.value()) {
      const auto a0 = Clock::now();
      hgdb::HistViewAccessor accessor(g.view());
      const auto a1 = Clock::now();
      auto ranks = hgdb::PageRank(accessor, kPageRankIterations, 0.85, kPageRankWorkers);
      const auto a2 = Clock::now();
      acc_ms += Millis(a1 - a0);
      pr_ms += Millis(a2 - a1);
      if (check) {
        if (args_.inject_fault && !fault_injected_.exchange(true) && !ranks.empty()) {
          ranks.begin()->second *= 1.01;  // One wrong rank.
        }
        c.fps.push_back(FingerprintOf(g.view()));
        c.ranks.push_back(std::move(ranks));
        excluded += Clock::now() - a2;
      }
    }
    const auto m0 = Clock::now();
    const double memory = traced ? static_cast<double>(gm_->pool().MemoryBytes()) : 0;
    excluded += Clock::now() - m0;
    const auto r0 = Clock::now();
    for (hgdb::HistGraph& g : graphs.value()) HG_RETURN_NOT_OK(gm_->Release(&g));
    gm_->RunCleaner();
    const auto t2 = Clock::now();
    const double total = Millis(t2 - t0 - excluded);
    if (check) {
      ++checks;
      std::lock_guard<std::mutex> lock(checked_mu_);
      checked_.push_back(std::move(c));
    }
    if (!measured) {
      op_ms.push_back(total);
      return Status::OK();
    }
    (traced ? traced_ms : untraced_ms).push_back(total);
    if (traced) {
      // The retrieval alone, repeated after the op so it cannot warm the
      // op's own fetches.
      const auto g0 = Clock::now();
      auto snaps = gm_->index().GetSnapshots(times, components);
      const double retrieve = Millis(Clock::now() - g0);
      if (!snaps.ok()) return snaps.status();
      retrieve_ms.push_back(retrieve);
      overlay_ms.push_back(std::max(0.0, Millis(t1 - t0) - retrieve));
      release_ms.push_back(Millis(t2 - r0));
      accessor_ms.push_back(acc_ms);
      pagerank_ms.push_back(pr_ms);
      memory_max = std::max(memory_max, memory);
      covered_ms += Millis(t1 - t0) + acc_ms + pr_ms + Millis(t2 - r0);
      traced_total_ms += total;
    }
    return Status::OK();
  };

  // Warmup in rounds of 5 ops, until the median op time of three rounds in
  // a row agrees within 5% (at most 10 rounds).
  std::vector<double> round_ms;
  for (int round = 0; round < 10; ++round) {
    op_ms.clear();
    for (int i = 0; i < 5; ++i) HG_RETURN_NOT_OK(op(i, false));
    round_ms.push_back(Quantile(op_ms, 0.5));
    const size_t n = round_ms.size();
    if (n < 3) continue;
    const double mid = Quantile({round_ms[n - 1], round_ms[n - 2], round_ms[n - 3]}, 0.5);
    if (std::abs(round_ms[n - 1] / mid - 1) < 0.05 && std::abs(round_ms[n - 2] / mid - 1) < 0.05 &&
        std::abs(round_ms[n - 3] / mid - 1) < 0.05) {
      break;
    }
  }
  const auto start = Clock::now();
  // Untraced ops alone give the end-to-end numbers; p90 needs >= 100 of them.
  const size_t min_ops = args_.trace ? 220 : 110;
  for (int i = 0;; ++i) {
    const double elapsed = Seconds(Clock::now() - start);
    const size_t n = traced_ms.size() + untraced_ms.size();
    if ((elapsed >= seconds && n >= min_ops) || elapsed >= 2 * seconds) break;
    const Status s = op(i, true);
    if (!s.ok()) {
      ++analyze_errors_;
      std::fprintf(stderr, "analyze op failed: %s\n", s.ToString().c_str());
    }
  }
  Ungated("analyze_p50_ms", Quantile(untraced_ms, 0.5), "ms");
  Ungated("analyze_p90_ms", Quantile(untraced_ms, 0.9), "ms");
  Layer("driver.analyze_samples", static_cast<double>(untraced_ms.size()), "count");
  Layer("core.retrieve_ms", Quantile(retrieve_ms, 0.5), "ms");
  Layer("graphpool.overlay_ms", Quantile(overlay_ms, 0.5), "ms");
  Layer("graphpool.release_ms", Quantile(release_ms, 0.5), "ms");
  Layer("graphpool.memory_bytes", memory_max, "B");
  Layer("compute.accessor_ms", Quantile(accessor_ms, 0.5), "ms");
  Layer("compute.pagerank_ms", Quantile(pagerank_ms, 0.5), "ms");
  if (args_.trace && w_.citation) {
    Layer("trace.overhead_frac", Quantile(traced_ms, 0.5) / Quantile(untraced_ms, 0.5) - 1,
          "ratio");
    Layer("trace.coverage_frac", Ratio(covered_ms, traced_total_ms), "ratio");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Traced windows
// ---------------------------------------------------------------------------

LayerWindow Bench::Current() const {
  LayerWindow w;
  w.kv = counting_->counts();
  const hgdb::DeltaStore& ds = server_->manager().index().delta_store();
  w.lru_hits = ds.decoded_cache_hits();
  w.lru_misses = ds.decoded_cache_misses();
  const hgdb::obs::MetricsSnapshot m = hgdb::obs::MetricsRegistry::Global().Snapshot();
  auto counter = [&](const char* name) -> uint64_t {
    auto it = m.counters.find(name);
    return it == m.counters.end() ? 0 : it->second;
  };
  w.covered = counter("exec.fetches_covered");
  w.demand = counter("exec.fetches_demand");
  if (auto it = m.histograms.find("exec.drain_width"); it != m.histograms.end()) {
    w.drains = it->second.count;
    w.drain_width_sum = it->second.sum;
  }
  w.appended_events = appended_events_.load();
  w.appended_batches = appended_batches_.load();
  return w;
}

void Bench::BeginWindow() {
  hgdb::obs::SetMetricsEnabled(true);
  counting_->SetCounting(true);
  in_trace_window_.store(true);
  window_start_ = Current();
}

void Bench::EndWindow() {
  const LayerWindow now = Current();
  in_trace_window_.store(false);
  counting_->SetCounting(false);
  hgdb::obs::SetMetricsEnabled(false);
  const LayerWindow& s = window_start_;
  traced_.kv = traced_.kv + (now.kv - s.kv);
  traced_.lru_hits += now.lru_hits - s.lru_hits;
  traced_.lru_misses += now.lru_misses - s.lru_misses;
  traced_.covered += now.covered - s.covered;
  traced_.demand += now.demand - s.demand;
  traced_.drains += now.drains - s.drains;
  traced_.drain_width_sum += now.drain_width_sum - s.drain_width_sum;
  traced_.appended_events += now.appended_events - s.appended_events;
  traced_.appended_batches += now.appended_batches - s.appended_batches;
}

// ---------------------------------------------------------------------------
// Checks and output
// ---------------------------------------------------------------------------

// Compares every checked answer with the naive replay of exactly the prefix
// it claims; PageRank answers against PageRank over the replayed graph.
size_t Bench::Verify() {
  size_t mismatches = 0;
  std::vector<size_t> prefixes;
  std::vector<const std::unordered_map<NodeId, double>*> ranks;
  for (const Checked& c : checked_) {
    for (size_t i = 0; i < c.times.size(); ++i) {
      const size_t p = oracle_->Expected(c.times[i], c.event_count);
      if (i >= c.fps.size() || !c.fps[i].Matches(oracle_->At(p), c.with_attrs)) ++mismatches;
      if (i < c.ranks.size()) {
        prefixes.push_back(p);
        ranks.push_back(&c.ranks[i]);
      }
    }
  }
  const std::vector<NaiveGraph> graphs = ReplayGraphsAt(log_, prefixes);
  for (size_t i = 0; i < graphs.size(); ++i) {
    const auto want = NaivePageRank(graphs[i], kPageRankIterations, 0.85);
    bool same = want.size() == ranks[i]->size();
    for (const auto& [node, value] : want) {
      auto it = ranks[i]->find(node);
      same = same && it != ranks[i]->end() &&
             std::abs(it->second - value) <= 1e-12 + 1e-9 * std::abs(value);
    }
    if (!same) ++mismatches;
  }
  Layer("driver.checked_answers", static_cast<double>(checked_.size()), "count");
  return mismatches;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

void Bench::Emit(bool correct, uint64_t failed) {
  const auto& metrics = args_.trace ? layer_ : e2e_;
  for (const auto& [name, v] : metrics) {
    std::printf("%-34s %14.6f %s\n", name.c_str(), v.first, v.second);
  }
  if (!args_.trace) {
    for (const auto& [name, v] : ungated_) {
      std::printf("%-34s %14.6f %s (not gated)\n", name.c_str(), v.first, v.second);
    }
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_.load()) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v.first) ? v.first : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + v.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  if (const std::string err = SelfCheck(args_.seed); !err.empty()) {
    std::fprintf(stderr, "KVStore decorator self-check failed: %s\n", err.c_str());
    return 2;
  }
  hgdb::obs::SetMetricsEnabled(false);
  Generate();
  cursor_ = w_.base_events;

  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) DropInstance();
    const auto t0 = Clock::now();
    const Status s = SetupOnce(i);
    setup_s.push_back(Seconds(Clock::now() - t0));
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return 2;
    }
  }
  E2E("setup_s", Quantile(setup_s, 0.5), "s");
  CountingKVStore::Counts setup_kv;
  if (counting_) {
    setup_kv = counting_->counts();
    counting_->SetCounting(false);
  }
  const uint64_t setup_events = appended_events_.load(), setup_batches = appended_batches_.load();

  // Serving first, then analysis on the reopened store: the analysis phase
  // then starts on a machine that has been under load for seconds.
  Status s;
  if (gm_ != nullptr) {
    gm_.reset();
    auto server = HistGraphServer::Open(store(), ServerOptions());
    s = server.ok() ? Status::OK() : server.status();
    if (s.ok()) server_ = std::move(server).value();
  }
  if (s.ok()) s = ServingPhases();
  server_.reset();
  if (s.ok()) {
    auto gm = GraphManager::Open(store(), ServerOptions().manager);
    s = gm.ok() ? Status::OK() : gm.status();
    if (s.ok()) gm_ = std::move(gm).value();
  }
  if (s.ok()) s = AnalyzePhase(args_.seconds * w_.analyze_share);
  if (!s.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", w_.name, s.ToString().c_str());
    DropInstance();
    return 2;
  }

  E2E("bytes_per_event",
      Ratio(static_cast<double>(store()->ValueBytes()),
            static_cast<double>(gm_->index().event_count())),
      "B");
  E2E("peak_rss_mb", PeakRssMb(), "MB");

  // Per-layer numbers of the traced serving windows.
  const double traced_reads = static_cast<double>(traced_reads_);
  const CountingKVStore::Counts& kv = traced_.kv;
  Layer("exec.decoded_hit_ratio",
        Ratio(static_cast<double>(traced_.lru_hits),
              static_cast<double>(traced_.lru_hits + traced_.lru_misses)), "ratio");
  Layer("exec.prefetch_coverage",
        Ratio(static_cast<double>(traced_.covered),
              static_cast<double>(traced_.covered + traced_.demand)), "ratio");
  Layer("exec.drain_width_mean",
        Ratio(static_cast<double>(traced_.drain_width_sum), static_cast<double>(traced_.drains)),
        "count");
  Layer("kvstore.keys_per_read", Ratio(static_cast<double>(kv.read_keys), traced_reads), "count");
  Layer("kvstore.calls_per_read", Ratio(static_cast<double>(kv.gets + kv.multigets), traced_reads),
        "count");
  Layer("kvstore.bytes_per_read", Ratio(static_cast<double>(kv.read_bytes), traced_reads), "B");
  Layer("kvstore.busy_ms_per_read", Ratio(static_cast<double>(kv.read_ns) / 1e6, traced_reads),
        "ms");
  const double written_events = static_cast<double>(setup_events + traced_.appended_events);
  const double written_batches = static_cast<double>(setup_batches + traced_.appended_batches);
  Layer("kvstore.write_bytes_per_event",
        Ratio(static_cast<double>(setup_kv.write_bytes + kv.write_bytes), written_events), "B");
  Layer("kvstore.write_busy_us_per_batch",
        Ratio(static_cast<double>(setup_kv.write_ns + kv.write_ns) / 1e3, written_batches), "us");
  Layer("kvstore.writes_per_batch",
        Ratio(static_cast<double>(setup_kv.puts + setup_kv.writes + kv.puts + kv.writes),
              written_batches), "count");

  const size_t mismatches = Verify();
  const uint64_t failed =
      read_errors_.load() + append_failures_.load() + analyze_errors_ + mismatches;
  std::printf("fail_frac %.6f ratio (read errors %llu, append failures %llu, analyze errors "
              "%llu, mismatches %zu, attempted %llu)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted_.load())),
              static_cast<unsigned long long>(read_errors_.load()),
              static_cast<unsigned long long>(append_failures_.load()),
              static_cast<unsigned long long>(analyze_errors_), mismatches,
              static_cast<unsigned long long>(attempted_.load()));
  DropInstance();
  Emit(mismatches == 0, failed);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--data-dir DIR] [--inject-fault]\n");
    return 2;
  }
  for (const perfbench::Workload& w : perfbench::kWorkloads) {
    if (args.workload == w.name) return perfbench::Bench(args, w).Run();
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}

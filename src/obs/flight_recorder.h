#ifndef HISTGRAPH_OBS_FLIGHT_RECORDER_H_
#define HISTGRAPH_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace hgdb {
namespace obs {

/// One retained query record: the identity fields every tail-latency
/// diagnosis needs (epoch, event_count, shard_skew, prefetch coverage) plus
/// — for traced queries — the full span tree, copied (not serialized) when
/// the trace finished. JSON is rendered lazily at read time.
struct FlightEntry {
  uint64_t seq = 0;        ///< Monotone record number (process-wide).
  std::string label;       ///< The trace's query label ("session", ...).
  double total_us = 0;     ///< End-to-end latency.
  uint64_t epoch = 0;      ///< Pinned frontier epoch.
  uint64_t event_count = 0;
  double shard_skew = 0;   ///< Sessions: max request skew; 0 = none recorded.
  double prefetch_coverage = 1.0;
  uint64_t fetches_total = 0;
  uint64_t kv_reads = 0;
  uint64_t bytes_read = 0;
  std::string event;  ///< "", "deadline", "admission", "slow".
  bool slow = false;  ///< Also retained in the slow-query log.
  bool has_trace = false;
  /// Full span tree of a traced query (empty for slim entries recorded for
  /// untraced slow/deadline/admission events).
  std::vector<QueryTrace::Span> spans;

  std::string ToJSON() const;
};

/// \brief Always-on ring of recently finished traces plus a slow-query log.
///
/// The recorder answers "what did *that* query do": the recent ring holds
/// the last `recent_capacity` finished traces (whatever the sampler picked),
/// and the slow-query log separately retains the last `slow_capacity`
/// entries that crossed the slow threshold or hit a terminal event
/// (deadline, admission) — so a tail query's span tree survives long after
/// the recent ring has cycled past it.
///
/// Lock discipline ("lock-minimal"): the query hot path touches the
/// recorder only when a query actually finished with a trace or crossed the
/// slow threshold — never per fetch, never per span. A Record then takes
/// one short mutex to push an entry (span vectors are moved, not copied
/// again, and nothing is serialized under the lock). Reads (Recent / Slow /
/// ToJSON) copy entries out under the same mutex; they are statz-frequency
/// operations, not query-frequency ones.
///
/// The process-wide instance is `FlightRecorder::Global()`, configured from
/// the environment (HISTGRAPH_FLIGHT_RECENT, HISTGRAPH_FLIGHT_SLOW,
/// HISTGRAPH_SLOW_QUERY_US) and reconfigurable at runtime — HistGraphServer
/// applies its options at construction.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultRecentCapacity = 128;
  static constexpr size_t kDefaultSlowCapacity = 32;

  static FlightRecorder& Global();

  FlightRecorder() = default;

  /// `slow_threshold_us`: queries at/above this total latency are routed to
  /// the slow-query log (0 disables latency-based routing; event-based
  /// routing — deadline/admission — always applies). Capacities of 0 keep
  /// the current values.
  void Configure(size_t recent_capacity, size_t slow_capacity,
                 int64_t slow_threshold_us);
  int64_t slow_threshold_us() const {
    return slow_threshold_us_.load(std::memory_order_relaxed);
  }

  /// Records a finished trace: builds an entry from the trace's identity
  /// fields, tallies, and span tree; always lands in the recent ring, and in
  /// the slow log when slow (over threshold or carrying an event).
  void Record(const QueryTrace& trace);

  /// Records an untraced event (a slow query that wasn't sampled, an
  /// admission rejection): identity fields only, no span tree. Lands in the
  /// slow log (and the recent ring).
  void RecordEvent(std::string label, std::string event, double total_us,
                   uint64_t epoch, uint64_t event_count);

  std::vector<FlightEntry> Recent() const;
  std::vector<FlightEntry> Slow() const;

  uint64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }
  uint64_t slow_recorded() const {
    return slow_recorded_.load(std::memory_order_relaxed);
  }

  /// {"recorded":..,"slow_recorded":..,"slow_threshold_us":..,
  ///  "recent":[entry,...],"slow":[entry,...]} — entries oldest-first.
  std::string ToJSON() const;

  /// Empties both rings and zeroes the counters (configuration kept). Tests
  /// and bench sections use this for a clean slate.
  void Clear();

 private:
  void Push(FlightEntry entry);

  std::atomic<int64_t> slow_threshold_us_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> slow_recorded_{0};

  mutable std::mutex mu_;
  size_t recent_capacity_ = kDefaultRecentCapacity;
  size_t slow_capacity_ = kDefaultSlowCapacity;
  uint64_t next_seq_ = 1;
  std::deque<FlightEntry> recent_;
  std::deque<FlightEntry> slow_;
};

}  // namespace obs
}  // namespace hgdb

#endif  // HISTGRAPH_OBS_FLIGHT_RECORDER_H_

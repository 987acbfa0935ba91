// A benchmark-owned KVStore decorator: counts and times every call into the
// storage layer from outside the program.
//
// Every virtual of KVStore is forwarded to the wrapped store one-for-one —
// MultiGet in particular goes down as ONE MultiGet, never as the base
// class's loop over Get, so a store that charges one seek per batch still
// charges one seek per batch behind the decorator. SelfCheck() verifies both
// the results and that one-for-one forwarding.
#ifndef PERFBENCH_COUNTING_STORE_H_
#define PERFBENCH_COUNTING_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "kvstore/kv_store.h"

namespace perfbench {

class CountingKVStore final : public hgdb::KVStore {
 public:
  /// Totals since construction. Read calls are Get and MultiGet; write calls
  /// are Put and Write (a Write counts its batch's bytes).
  struct Counts {
    uint64_t gets = 0, multigets = 0;
    uint64_t read_keys = 0, read_bytes = 0, read_ns = 0;
    uint64_t puts = 0, writes = 0;
    uint64_t write_bytes = 0, write_ns = 0;

    Counts operator-(const Counts& o) const;
    Counts operator+(const Counts& o) const;
  };

  /// `base` must outlive the decorator.
  explicit CountingKVStore(hgdb::KVStore* base) : base_(base) {}

  /// Counting is off until enabled: while off, calls only forward.
  void SetCounting(bool on) { counting_.store(on, std::memory_order_relaxed); }
  /// While on, every (key, value) a Get or MultiGet returns is also kept for
  /// TakeCaptured.
  void SetCapture(bool on) { capture_.store(on, std::memory_order_relaxed); }
  std::vector<std::pair<std::string, std::string>> TakeCaptured();
  Counts counts() const;

  hgdb::Status Put(const hgdb::Slice& key, const hgdb::Slice& value) override;
  hgdb::Status Get(const hgdb::Slice& key, std::string* value) const override;
  hgdb::Status Delete(const hgdb::Slice& key) override;
  hgdb::Status Write(const hgdb::WriteBatch& batch) override;
  void MultiGet(const std::vector<hgdb::Slice>& keys, std::vector<std::string>* values,
                std::vector<hgdb::Status>* statuses) const override;
  bool Contains(const hgdb::Slice& key) const override { return base_->Contains(key); }
  void ForEachKey(const hgdb::Slice& prefix,
                  const std::function<void(const hgdb::Slice&)>& fn) const override {
    base_->ForEachKey(prefix, fn);
  }
  size_t KeyCount() const override { return base_->KeyCount(); }
  size_t ValueBytes() const override { return base_->ValueBytes(); }
  hgdb::Status Sync() override { return base_->Sync(); }

 private:
  void Capture(const hgdb::Slice& key, const std::string& value) const;

  hgdb::KVStore* base_;
  std::atomic<bool> counting_{false};
  std::atomic<bool> capture_{false};
  mutable std::atomic<uint64_t> gets_{0}, multigets_{0};
  mutable std::atomic<uint64_t> read_keys_{0}, read_bytes_{0}, read_ns_{0};
  std::atomic<uint64_t> puts_{0}, writes_{0};
  std::atomic<uint64_t> write_bytes_{0}, write_ns_{0};
  mutable std::mutex capture_mu_;
  mutable std::vector<std::pair<std::string, std::string>> captured_;
};

/// Checks the decorator against the store it wraps on a small seeded data
/// set: every read returns what the wrapped store returns, and each Get,
/// MultiGet, Put and Write reaches the wrapped store as exactly one call of
/// the same kind. Returns an empty string on success, else what differed.
std::string SelfCheck(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_STORE_H_

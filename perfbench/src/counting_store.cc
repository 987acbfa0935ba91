#include "counting_store.h"

#include <chrono>
#include <random>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NsSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

}  // namespace

CountingKVStore::Counts CountingKVStore::Counts::operator-(const Counts& o) const {
  Counts d;
  d.gets = gets - o.gets;
  d.multigets = multigets - o.multigets;
  d.read_keys = read_keys - o.read_keys;
  d.read_bytes = read_bytes - o.read_bytes;
  d.read_ns = read_ns - o.read_ns;
  d.puts = puts - o.puts;
  d.writes = writes - o.writes;
  d.write_bytes = write_bytes - o.write_bytes;
  d.write_ns = write_ns - o.write_ns;
  return d;
}

CountingKVStore::Counts CountingKVStore::Counts::operator+(const Counts& o) const {
  Counts d;
  d.gets = gets + o.gets;
  d.multigets = multigets + o.multigets;
  d.read_keys = read_keys + o.read_keys;
  d.read_bytes = read_bytes + o.read_bytes;
  d.read_ns = read_ns + o.read_ns;
  d.puts = puts + o.puts;
  d.writes = writes + o.writes;
  d.write_bytes = write_bytes + o.write_bytes;
  d.write_ns = write_ns + o.write_ns;
  return d;
}

CountingKVStore::Counts CountingKVStore::counts() const {
  Counts c;
  c.gets = gets_.load();
  c.multigets = multigets_.load();
  c.read_keys = read_keys_.load();
  c.read_bytes = read_bytes_.load();
  c.read_ns = read_ns_.load();
  c.puts = puts_.load();
  c.writes = writes_.load();
  c.write_bytes = write_bytes_.load();
  c.write_ns = write_ns_.load();
  return c;
}

std::vector<std::pair<std::string, std::string>> CountingKVStore::TakeCaptured() {
  std::lock_guard<std::mutex> lock(capture_mu_);
  return std::move(captured_);
}

void CountingKVStore::Capture(const hgdb::Slice& key, const std::string& value) const {
  std::lock_guard<std::mutex> lock(capture_mu_);
  captured_.emplace_back(key.ToString(), value);
}

hgdb::Status CountingKVStore::Put(const hgdb::Slice& key, const hgdb::Slice& value) {
  if (!counting_.load(std::memory_order_relaxed)) return base_->Put(key, value);
  const auto start = Clock::now();
  hgdb::Status s = base_->Put(key, value);
  write_ns_ += NsSince(start);
  ++puts_;
  write_bytes_ += key.size() + value.size();
  return s;
}

hgdb::Status CountingKVStore::Get(const hgdb::Slice& key, std::string* value) const {
  if (!counting_.load(std::memory_order_relaxed)) {
    hgdb::Status s = base_->Get(key, value);
    if (s.ok() && capture_.load(std::memory_order_relaxed)) Capture(key, *value);
    return s;
  }
  const auto start = Clock::now();
  hgdb::Status s = base_->Get(key, value);
  read_ns_ += NsSince(start);
  ++gets_;
  ++read_keys_;
  if (s.ok()) {
    read_bytes_ += value->size();
    if (capture_.load(std::memory_order_relaxed)) Capture(key, *value);
  }
  return s;
}

hgdb::Status CountingKVStore::Delete(const hgdb::Slice& key) { return base_->Delete(key); }

hgdb::Status CountingKVStore::Write(const hgdb::WriteBatch& batch) {
  if (!counting_.load(std::memory_order_relaxed)) return base_->Write(batch);
  const auto start = Clock::now();
  hgdb::Status s = base_->Write(batch);
  write_ns_ += NsSince(start);
  ++writes_;
  for (const auto& op : batch.ops()) write_bytes_ += op.key.size() + op.value.size();
  return s;
}

void CountingKVStore::MultiGet(const std::vector<hgdb::Slice>& keys,
                               std::vector<std::string>* values,
                               std::vector<hgdb::Status>* statuses) const {
  const bool counting = counting_.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  base_->MultiGet(keys, values, statuses);
  if (counting) {
    read_ns_ += NsSince(start);
    ++multigets_;
    read_keys_ += keys.size();
  }
  const bool capture = capture_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!(*statuses)[i].ok()) continue;
    if (counting) read_bytes_ += (*values)[i].size();
    if (capture) Capture(keys[i], (*values)[i]);
  }
}

std::string SelfCheck(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto base = hgdb::NewMemKVStore();
  // Two decorators stacked: the inner one counts what the outer forwards.
  CountingKVStore inner(base.get());
  CountingKVStore outer(&inner);
  inner.SetCounting(true);
  auto reference = hgdb::NewMemKVStore();

  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("k/" + std::to_string(rng() % 100000) + "/" + std::to_string(i));
    const std::string value(1 + rng() % 300, static_cast<char>('a' + i % 26));
    if (!outer.Put(keys.back(), value).ok() || !reference->Put(keys.back(), value).ok()) {
      return "Put failed";
    }
  }
  hgdb::WriteBatch batch;
  for (int i = 0; i < 16; ++i) batch.Put("w/" + std::to_string(i), std::to_string(rng()));
  batch.Delete(keys[3]);
  if (!outer.Write(batch).ok() || !reference->Write(batch).ok()) return "Write failed";
  const CountingKVStore::Counts after_writes = inner.counts();
  if (after_writes.puts != 64 || after_writes.writes != 1) {
    return "writes were not forwarded one-for-one";
  }

  std::vector<hgdb::Slice> probe;
  for (int i = 0; i < 32; ++i) probe.emplace_back(keys[rng() % keys.size()]);
  probe.emplace_back("absent");
  std::vector<std::string> got, want;
  std::vector<hgdb::Status> got_s, want_s;
  outer.MultiGet(probe, &got, &got_s);
  reference->MultiGet(probe, &want, &want_s);
  for (size_t i = 0; i < probe.size(); ++i) {
    if (got_s[i].ok() != want_s[i].ok() || (got_s[i].ok() && got[i] != want[i])) {
      return "MultiGet result differs for key " + probe[i].ToString();
    }
    std::string v1, v2;
    const hgdb::Status s1 = outer.Get(probe[i], &v1), s2 = reference->Get(probe[i], &v2);
    if (s1.ok() != s2.ok() || v1 != v2) return "Get differs for " + probe[i].ToString();
    if (outer.Contains(probe[i]) != reference->Contains(probe[i])) return "Contains differs";
  }
  const CountingKVStore::Counts reads = inner.counts() - after_writes;
  if (reads.multigets != 1 || reads.gets != probe.size()) {
    return "MultiGet was not forwarded as one MultiGet";
  }
  if (outer.KeyCount() != reference->KeyCount()) return "KeyCount differs";
  if (outer.ValueBytes() != base->ValueBytes()) return "ValueBytes differs";
  size_t seen = 0, want_seen = 0;
  outer.ForEachKey("w/", [&](const hgdb::Slice&) { ++seen; });
  reference->ForEachKey("w/", [&](const hgdb::Slice&) { ++want_seen; });
  if (seen != want_seen) return "ForEachKey differs";
  if (!outer.Delete(keys[5]).ok() || !reference->Delete(keys[5]).ok()) return "Delete failed";
  if (outer.Contains(keys[5])) return "Delete not forwarded";
  if (!outer.Sync().ok()) return "Sync failed";
  return "";
}

}  // namespace perfbench

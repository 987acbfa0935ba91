#include <gtest/gtest.h>

#include <fstream>

#include "common/env_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "kvstore/compression.h"
#include "kvstore/kv_store.h"

namespace hgdb {
namespace {

// Both store implementations must satisfy the same contract; run the whole
// suite against each.
enum class StoreKind { kMem, kDisk };

class KVStoreTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    dir_ = FreshScratchDir("kvstore_test");
    Reopen();
  }

  void Reopen(KVStoreOptions options = {}) {
    store_.reset();
    if (GetParam() == StoreKind::kMem) {
      store_ = NewMemKVStore(options);
    } else {
      ASSERT_TRUE(OpenDiskKVStore(dir_ + "/db.log", options, &store_).ok());
    }
  }

  bool persistent() const { return GetParam() == StoreKind::kDisk; }

  std::string dir_;
  std::unique_ptr<KVStore> store_;
};

TEST_P(KVStoreTest, PutGetRoundTrip) {
  ASSERT_TRUE(store_->Put("k1", "v1").ok());
  std::string v;
  ASSERT_TRUE(store_->Get("k1", &v).ok());
  EXPECT_EQ(v, "v1");
}

TEST_P(KVStoreTest, GetMissingIsNotFound) {
  std::string v;
  Status s = store_->Get("nope", &v);
  EXPECT_TRUE(s.IsNotFound());
}

TEST_P(KVStoreTest, OverwriteReplacesValue) {
  ASSERT_TRUE(store_->Put("k", "a").ok());
  ASSERT_TRUE(store_->Put("k", "bb").ok());
  std::string v;
  ASSERT_TRUE(store_->Get("k", &v).ok());
  EXPECT_EQ(v, "bb");
  EXPECT_EQ(store_->KeyCount(), 1u);
}

TEST_P(KVStoreTest, MultiGetMixedHitsAndMisses) {
  ASSERT_TRUE(store_->Put("a", "va").ok());
  ASSERT_TRUE(store_->Put("b", "vb").ok());
  ASSERT_TRUE(store_->Put("c", std::string(4096, 'x')).ok());
  std::vector<Slice> keys = {"a", "missing", "c", "b", "a"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  store_->MultiGet(keys, &values, &statuses);
  ASSERT_EQ(values.size(), keys.size());
  ASSERT_EQ(statuses.size(), keys.size());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], "va");
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(values[2], std::string(4096, 'x'));
  EXPECT_TRUE(statuses[3].ok());
  EXPECT_EQ(values[3], "vb");
  EXPECT_TRUE(statuses[4].ok());
  EXPECT_EQ(values[4], "va");  // Repeated keys are served independently.

  // Empty batch is a no-op (and must not charge simulated latency).
  store_->MultiGet({}, &values, &statuses);
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(statuses.empty());
}

TEST_P(KVStoreTest, MultiGetAmortizesSimulatedLatency) {
  // 10 keys at 2ms simulated seek each: serial Gets pay >= 20ms, one
  // MultiGet batch pays the seek once. Generous margins keep this stable
  // under CI scheduling noise.
  KVStoreOptions options;
  options.read_latency_us = 2000;
  Reopen(options);
  std::vector<Slice> keys;
  std::vector<std::string> backing;
  for (int i = 0; i < 10; ++i) {
    backing.push_back(std::string("k").append(std::to_string(i)));
    ASSERT_TRUE(store_->Put(backing.back(), "v").ok());
  }
  for (const auto& k : backing) keys.push_back(Slice(k));

  Stopwatch sw;
  std::string v;
  for (const auto& k : keys) ASSERT_TRUE(store_->Get(k, &v).ok());
  const double serial_ms = sw.ElapsedMillis();

  sw.Restart();
  std::vector<std::string> values;
  std::vector<Status> statuses;
  store_->MultiGet(keys, &values, &statuses);
  const double batch_ms = sw.ElapsedMillis();
  for (const auto& s : statuses) EXPECT_TRUE(s.ok());

  EXPECT_GE(serial_ms, 18.0);
  EXPECT_LT(batch_ms, serial_ms / 2);
}

TEST_P(KVStoreTest, DeleteRemovesKey) {
  ASSERT_TRUE(store_->Put("k", "v").ok());
  ASSERT_TRUE(store_->Delete("k").ok());
  EXPECT_FALSE(store_->Contains("k"));
  std::string v;
  EXPECT_TRUE(store_->Get("k", &v).IsNotFound());
}

TEST_P(KVStoreTest, DeleteMissingIsOk) { EXPECT_TRUE(store_->Delete("ghost").ok()); }

TEST_P(KVStoreTest, EmptyValueRoundTrip) {
  ASSERT_TRUE(store_->Put("k", "").ok());
  std::string v = "sentinel";
  ASSERT_TRUE(store_->Get("k", &v).ok());
  EXPECT_EQ(v, "");
}

TEST_P(KVStoreTest, BinaryKeysAndValues) {
  std::string key("\x00\x01\xff\x7f", 4);
  std::string value(256, '\0');
  for (int i = 0; i < 256; ++i) value[i] = static_cast<char>(i);
  ASSERT_TRUE(store_->Put(key, value).ok());
  std::string v;
  ASSERT_TRUE(store_->Get(key, &v).ok());
  EXPECT_EQ(v, value);
}

TEST_P(KVStoreTest, WriteBatchIsApplied) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  batch.Put("c", "3");
  ASSERT_TRUE(store_->Write(batch).ok());
  EXPECT_FALSE(store_->Contains("a"));
  EXPECT_TRUE(store_->Contains("b"));
  EXPECT_TRUE(store_->Contains("c"));
  EXPECT_EQ(store_->KeyCount(), 2u);
}

TEST_P(KVStoreTest, ForEachKeyPrefix) {
  ASSERT_TRUE(store_->Put("d/1/s", "x").ok());
  ASSERT_TRUE(store_->Put("d/1/n", "y").ok());
  ASSERT_TRUE(store_->Put("d/2/s", "z").ok());
  ASSERT_TRUE(store_->Put("e/1/s", "w").ok());
  size_t count = 0;
  store_->ForEachKey("d/1/", [&](const Slice&) { ++count; });
  EXPECT_EQ(count, 2u);
  count = 0;
  store_->ForEachKey("", [&](const Slice&) { ++count; });
  EXPECT_EQ(count, 4u);
}

TEST_P(KVStoreTest, LargeCompressibleValue) {
  std::string big;
  for (int i = 0; i < 5000; ++i) big += "node:" + std::to_string(i % 100) + ";";
  ASSERT_TRUE(store_->Put("big", big).ok());
  std::string v;
  ASSERT_TRUE(store_->Get("big", &v).ok());
  EXPECT_EQ(v, big);
  // Compression must actually shrink this periodic payload.
  EXPECT_LT(store_->ValueBytes(), big.size() / 2);
}

TEST_P(KVStoreTest, ManyKeysSurvive) {
  Rng rng(99);
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 500; ++i) {
    kvs.emplace_back("key" + std::to_string(i), rng.String(1 + rng.Uniform(64)));
    ASSERT_TRUE(store_->Put(kvs.back().first, kvs.back().second).ok());
  }
  for (const auto& [k, want] : kvs) {
    std::string v;
    ASSERT_TRUE(store_->Get(k, &v).ok());
    EXPECT_EQ(v, want);
  }
}

TEST_P(KVStoreTest, PersistenceAcrossReopen) {
  if (!persistent()) GTEST_SKIP() << "memory store is not persistent";
  ASSERT_TRUE(store_->Put("stay", "here").ok());
  ASSERT_TRUE(store_->Put("gone", "soon").ok());
  ASSERT_TRUE(store_->Delete("gone").ok());
  ASSERT_TRUE(store_->Sync().ok());
  Reopen();
  std::string v;
  ASSERT_TRUE(store_->Get("stay", &v).ok());
  EXPECT_EQ(v, "here");
  EXPECT_FALSE(store_->Contains("gone"));
}

TEST_P(KVStoreTest, TornTailIsIgnoredOnRecovery) {
  if (!persistent()) GTEST_SKIP() << "memory store is not persistent";
  ASSERT_TRUE(store_->Put("good", "value").ok());
  ASSERT_TRUE(store_->Sync().ok());
  store_.reset();
  // Append garbage simulating a torn write.
  {
    std::ofstream f(dir_ + "/db.log", std::ios::binary | std::ios::app);
    f.write("\x01\x05garbage-without-checksum", 10);
  }
  Reopen();
  std::string v;
  ASSERT_TRUE(store_->Get("good", &v).ok());
  EXPECT_EQ(v, "value");
  EXPECT_EQ(store_->KeyCount(), 1u);
  // The store must keep accepting writes after recovery.
  ASSERT_TRUE(store_->Put("after", "crash").ok());
  ASSERT_TRUE(store_->Get("after", &v).ok());
  EXPECT_EQ(v, "crash");
}

TEST_P(KVStoreTest, CompressionDisabled) {
  Reopen(KVStoreOptions{.compress_values = false});
  std::string big(10000, 'z');
  ASSERT_TRUE(store_->Put("big", big).ok());
  std::string v;
  ASSERT_TRUE(store_->Get("big", &v).ok());
  EXPECT_EQ(v, big);
  EXPECT_GE(store_->ValueBytes(), big.size());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, KVStoreTest,
                         ::testing::Values(StoreKind::kMem, StoreKind::kDisk),
                         [](const auto& info) {
                           return info.param == StoreKind::kMem ? "Mem" : "Disk";
                         });

// --- Compression codec ------------------------------------------------------

TEST(CompressionTest, RoundTripEmpty) {
  std::string out, back;
  CompressValue(Slice(""), &out);
  ASSERT_TRUE(DecompressValue(out, &back).ok());
  EXPECT_EQ(back, "");
}

TEST(CompressionTest, RoundTripIncompressible) {
  Rng rng(5);
  std::string data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<char>(rng.Uniform(256)));
  std::string out, back;
  CompressValue(data, &out);
  ASSERT_TRUE(DecompressValue(out, &back).ok());
  EXPECT_EQ(back, data);
  EXPECT_LE(out.size(), data.size() + 1);  // Raw fallback: 1 byte of overhead.
}

TEST(CompressionTest, CompressesRepetitiveData) {
  std::string data;
  for (int i = 0; i < 300; ++i) data += "attribute_key_" + std::to_string(i % 7);
  std::string out, back;
  CompressValue(data, &out);
  EXPECT_LT(out.size(), data.size() / 3);
  ASSERT_TRUE(DecompressValue(out, &back).ok());
  EXPECT_EQ(back, data);
}

TEST(CompressionTest, OverlappingMatches) {
  // "aaaa..." exercises self-referencing (overlapping) copies.
  std::string data(5000, 'a');
  std::string out, back;
  CompressValue(data, &out);
  EXPECT_LT(out.size(), 100u);
  ASSERT_TRUE(DecompressValue(out, &back).ok());
  EXPECT_EQ(back, data);
}

TEST(CompressionTest, RandomRoundTripSweep) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::string data;
    const size_t n = rng.Uniform(4096);
    // A mix of random bytes and repeated runs.
    while (data.size() < n) {
      if (rng.Chance(0.5)) {
        data.append(rng.String(1 + rng.Uniform(16)));
      } else {
        data.append(1 + rng.Uniform(32), static_cast<char>('A' + rng.Uniform(26)));
      }
    }
    std::string out, back;
    CompressValue(data, &out);
    ASSERT_TRUE(DecompressValue(out, &back).ok()) << "trial " << trial;
    ASSERT_EQ(back, data) << "trial " << trial;
  }
}

TEST(CompressionTest, CorruptInputIsRejectedNotCrashing) {
  std::string data;
  for (int i = 0; i < 100; ++i) data += "abcabcabc" + std::to_string(i);
  std::string out;
  CompressValue(data, &out);
  ASSERT_GT(out.size(), 4u);
  // Flip bytes around the stream; decoder must return an error or a value,
  // never crash. (Checksum integrity is the log layer's job, not the codec's.)
  for (size_t i = 0; i < out.size(); i += 3) {
    std::string corrupt = out;
    corrupt[i] ^= 0x5a;
    std::string back;
    (void)DecompressValue(corrupt, &back);
  }
  std::string truncated = out.substr(0, out.size() / 2);
  std::string back;
  (void)DecompressValue(truncated, &back);
}

TEST(CompressionTest, UnknownTagRejected) {
  std::string bad = "\x07payload";
  std::string back;
  EXPECT_TRUE(DecompressValue(bad, &back).IsCorruption());
}

}  // namespace
}  // namespace hgdb

// Tests for the versioned columnar blob codec (src/codec/): v1 round-trips
// across component masks on seeded random data, backward compatibility with
// checked-in legacy v0 blobs (byte-for-byte), version-header handling, and a
// fuzz-ish malformed-blob sweep (truncations and byte flips must yield a
// Status, never a crash).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codec/delta_codec.h"
#include "codec/event_codec.h"
#include "codec/format.h"
#include "common/coding.h"
#include "deltagraph/delta_graph.h"
#include "deltagraph/skeleton.h"
#include "deltagraph/delta_store.h"
#include "graph/delta.h"
#include "graph/snapshot.h"
#include "kvstore/compression.h"
#include "kvstore/kv_store.h"
#include "temporal/event_list.h"
#include "tests/test_util.h"
#include "workload/generators.h"
#include "workload/trace_world.h"

namespace hgdb {
namespace {

constexpr ComponentMask kDeltaComponents[] = {kCompStruct, kCompNodeAttr,
                                              kCompEdgeAttr};
constexpr unsigned kEventSubsets[] = {
    kCompStruct,           kCompNodeAttr,
    kCompEdgeAttr,         kCompTransient,
    kCompStruct | kCompNodeAttr, kCompStruct | kCompEdgeAttr,
    kCompAll,              kCompAllWithTransient};

// ---------------------------------------------------------------------------
// v0 backward-compat fixture: blobs captured byte-for-byte from the encoder
// as it existed before the codec subsystem (PR 4 HEAD). These bytes are
// frozen — regenerating them from current code would defeat the test.
// ---------------------------------------------------------------------------

const char kV0DeltaStruct[] =
    "\x02\x0c\x01\x01\x07\x01\x05\x0c\x0d\x00\x00";
const size_t kV0DeltaStruct_len = 11;

const char kV0DeltaNodeAttr[] =
    "\x02\x03\x05\x63\x6f\x6c\x6f\x72\x04\x62\x6c\x75\x65\x0c\x05\x63"
    "\x6f\x6c\x6f\x72\x03\x72\x65\x64\x01\x03\x05\x63\x6f\x6c\x6f\x72"
    "\x03\x72\x65\x64";
const size_t kV0DeltaNodeAttr_len = 36;

const char kV0DeltaEdgeAttr[] =
    "\x01\x05\x06\x77\x65\x69\x67\x68\x74\x02\x31\x31\x00";
const size_t kV0DeltaEdgeAttr_len = 13;

const char kV0EventsStruct[] =
    "\x04\x00\x00\xc8\x01\x01\x02\x00\xca\x01\x02\x03\x02\xcc\x01\x01"
    "\x01\x02\x01\x07\x03\xd4\x01\x01\x01\x02\x01";
const size_t kV0EventsStruct_len = 27;

const char kV0EventsNodeAttr[] =
    "\x02\x01\x04\xc8\x01\x01\x05\x63\x6f\x6c\x6f\x72\x00\x01\x03\x72"
    "\x65\x64\x06\x04\xd2\x01\x01\x05\x63\x6f\x6c\x6f\x72\x01\x03\x72"
    "\x65\x64\x01\x04\x62\x6c\x75\x65";
const size_t kV0EventsNodeAttr_len = 40;

const char kV0EventsEdgeAttr[] =
    "\x01\x04\x05\xce\x01\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"
    "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x06\x77\x65\x69\x67\x68"
    "\x74\x00\x01\x01\x34";
const size_t kV0EventsEdgeAttr_len = 37;

const char kV0EventsTransient[] =
    "\x01\x05\x06\xd0\x01\x02\x01\x04\x70\x69\x6e\x67";
const size_t kV0EventsTransient_len = 12;

/// The exact delta the kV0Delta* fixtures encode (same construction as the
/// capture program).
Delta FixtureDelta() {
  Snapshot source, target;
  source.AddNode(3);
  source.AddNode(7);
  source.AddEdge(2, EdgeRecord{3, 7, true});
  source.SetNodeAttr(3, "color", "red");
  source.SetEdgeAttr(2, "weight", "9");
  target = source;
  target.AddNode(12);
  target.AddNode(13);
  target.RemoveNode(7);
  target.AddEdge(5, EdgeRecord{12, 13, false});
  target.SetNodeAttr(3, "color", "blue");
  target.SetNodeAttr(12, "color", "red");
  target.SetEdgeAttr(5, "weight", "11");
  return Delta::Between(target, source);
}

/// The exact eventlist the kV0Events* fixtures encode.
EventList FixtureEvents() {
  EventList el;
  el.Append(Event::AddNode(100, 1));
  el.Append(Event::SetNodeAttr(100, 1, "color", std::nullopt, "red"));
  el.Append(Event::AddNode(101, 2));
  el.Append(Event::AddEdge(102, 1, 1, 2, true));
  el.Append(Event::SetEdgeAttr(103, 1, "weight", std::nullopt, "4"));
  el.Append(Event::TransientEdge(104, 2, 1, "ping"));
  el.Append(Event::SetNodeAttr(105, 1, "color", "red", "blue"));
  el.Append(Event::DeleteEdge(106, 1, 1, 2, true));
  return el;
}

TEST(V0CompatTest, CheckedInDeltaBlobsDecode) {
  const Delta expected = FixtureDelta();
  Delta decoded;
  ASSERT_TRUE(decoded
                  .DecodeComponent(kCompStruct,
                                   Slice(kV0DeltaStruct, kV0DeltaStruct_len))
                  .ok());
  ASSERT_TRUE(decoded
                  .DecodeComponent(kCompNodeAttr,
                                   Slice(kV0DeltaNodeAttr, kV0DeltaNodeAttr_len))
                  .ok());
  ASSERT_TRUE(decoded
                  .DecodeComponent(kCompEdgeAttr,
                                   Slice(kV0DeltaEdgeAttr, kV0DeltaEdgeAttr_len))
                  .ok());
  EXPECT_TRUE(decoded == expected);
}

TEST(V0CompatTest, V0ReEncodeIsByteIdentical) {
  // The legacy writer must still produce the frozen bytes: the fixture is
  // only as strong as the v0 encoder's stability.
  const Delta d = FixtureDelta();
  std::string blob;
  codec::EncodeDeltaComponentV0(d, kCompStruct, &blob);
  EXPECT_EQ(blob, std::string(kV0DeltaStruct, kV0DeltaStruct_len));
  codec::EncodeDeltaComponentV0(d, kCompNodeAttr, &blob);
  EXPECT_EQ(blob, std::string(kV0DeltaNodeAttr, kV0DeltaNodeAttr_len));
  codec::EncodeDeltaComponentV0(d, kCompEdgeAttr, &blob);
  EXPECT_EQ(blob, std::string(kV0DeltaEdgeAttr, kV0DeltaEdgeAttr_len));

  const EventList el = FixtureEvents();
  codec::EncodeEventListComponentV0(el.events(), kCompStruct, &blob);
  EXPECT_EQ(blob, std::string(kV0EventsStruct, kV0EventsStruct_len));
  codec::EncodeEventListComponentV0(el.events(), kCompNodeAttr, &blob);
  EXPECT_EQ(blob, std::string(kV0EventsNodeAttr, kV0EventsNodeAttr_len));
  codec::EncodeEventListComponentV0(el.events(), kCompEdgeAttr, &blob);
  EXPECT_EQ(blob, std::string(kV0EventsEdgeAttr, kV0EventsEdgeAttr_len));
  codec::EncodeEventListComponentV0(el.events(), kCompTransient, &blob);
  EXPECT_EQ(blob, std::string(kV0EventsTransient, kV0EventsTransient_len));
}

TEST(V0CompatTest, CheckedInEventBlobsDecodeAndMergeInOrder) {
  const EventList expected = FixtureEvents();
  EventList decoded;
  ASSERT_TRUE(
      decoded.DecodeAndMergeComponent(Slice(kV0EventsStruct, kV0EventsStruct_len))
          .ok());
  ASSERT_TRUE(decoded
                  .DecodeAndMergeComponent(
                      Slice(kV0EventsNodeAttr, kV0EventsNodeAttr_len))
                  .ok());
  ASSERT_TRUE(decoded
                  .DecodeAndMergeComponent(
                      Slice(kV0EventsEdgeAttr, kV0EventsEdgeAttr_len))
                  .ok());
  ASSERT_TRUE(decoded
                  .DecodeAndMergeComponent(
                      Slice(kV0EventsTransient, kV0EventsTransient_len))
                  .ok());
  decoded.FinalizeMerge();
  ASSERT_EQ(decoded.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(decoded[i], expected[i]) << "index " << i;
  }
}

TEST(V0CompatTest, VersionHeaderRoundTrip) {
  // Decode the v0 fixture, re-encode in the current (v1) format, decode
  // again: the v1 blob must carry the header, and both decodes must agree
  // element-for-element.
  Delta from_v0;
  ASSERT_TRUE(from_v0
                  .DecodeComponent(kCompStruct,
                                   Slice(kV0DeltaStruct, kV0DeltaStruct_len))
                  .ok());
  ASSERT_TRUE(from_v0
                  .DecodeComponent(kCompNodeAttr,
                                   Slice(kV0DeltaNodeAttr, kV0DeltaNodeAttr_len))
                  .ok());
  std::string v1;
  from_v0.EncodeComponent(kCompNodeAttr, &v1);
  ASSERT_TRUE(codec::HasHeader(v1));
  EXPECT_FALSE(codec::HasHeader(Slice(kV0DeltaNodeAttr, kV0DeltaNodeAttr_len)));
  Delta from_v1;
  ASSERT_TRUE(from_v1.DecodeComponent(kCompNodeAttr, v1).ok());
  EXPECT_EQ(from_v1.add_node_attrs, from_v0.add_node_attrs);
  EXPECT_EQ(from_v1.del_node_attrs, from_v0.del_node_attrs);
}

// ---------------------------------------------------------------------------
// Seeded round-trip property tests
// ---------------------------------------------------------------------------

class CodecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecPropertyTest, DeltaRoundTripAllComponentsBothVersions) {
  RandomTraceOptions opts;
  opts.num_events = 4000;
  opts.seed = GetParam();
  GeneratedTrace trace = GenerateRandomTrace(opts);
  const Timestamp t_end = trace.events.back().time;
  Snapshot g1 = ReplayAt(trace.events, t_end / 2);
  Snapshot g2 = ReplayAt(trace.events, t_end);
  const Delta d = Delta::Between(g2, g1);

  Delta v1_decoded, v0_decoded;
  for (ComponentMask c : kDeltaComponents) {
    std::string blob;
    d.EncodeComponent(c, &blob);
    ASSERT_TRUE(codec::HasHeader(blob)) << "seed " << GetParam();
    ASSERT_TRUE(v1_decoded.DecodeComponent(c, blob).ok()) << "seed " << GetParam();
    // The legacy writer/reader pair must stay equivalent (it is the
    // compat path for pre-codec indexes).
    codec::EncodeDeltaComponentV0(d, c, &blob);
    ASSERT_TRUE(v0_decoded.DecodeComponent(c, blob).ok()) << "seed " << GetParam();
  }
  EXPECT_TRUE(v1_decoded == d) << "seed " << GetParam();
  EXPECT_TRUE(v0_decoded == d) << "seed " << GetParam();
}

TEST_P(CodecPropertyTest, EventListRoundTripAllSubsetsBothVersions) {
  RandomTraceOptions opts;
  opts.num_events = 3000;
  opts.seed = GetParam() + 1000;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  const EventList el(trace.events);

  for (unsigned mask : kEventSubsets) {
    std::vector<Event> expected;
    for (const auto& e : el.events()) {
      if (e.component() & mask) expected.push_back(e);
    }
    for (bool v0 : {false, true}) {
      EventList decoded;
      // One blob per component bit, merged — the DeltaStore read path.
      for (unsigned c : {kCompStruct, kCompNodeAttr, kCompEdgeAttr, kCompTransient}) {
        if ((mask & c) == 0) continue;
        std::string blob;
        if (v0) {
          codec::EncodeEventListComponentV0(
              el.events(), static_cast<ComponentMask>(c), &blob);
        } else {
          el.EncodeComponent(static_cast<ComponentMask>(c), &blob);
        }
        ASSERT_TRUE(decoded.DecodeAndMergeComponent(blob).ok())
            << "seed " << GetParam() << " mask " << mask << " v0 " << v0;
      }
      decoded.FinalizeMerge();
      ASSERT_EQ(decoded.size(), expected.size())
          << "seed " << GetParam() << " mask " << mask << " v0 " << v0;
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(decoded[i], expected[i])
            << "seed " << GetParam() << " mask " << mask << " index " << i;
      }
    }
  }
}

TEST_P(CodecPropertyTest, MultiBitMaskSingleBlobRoundTrip) {
  // The persisted recent eventlist encodes every component into ONE blob.
  RandomTraceOptions opts;
  opts.num_events = 1500;
  opts.seed = GetParam() + 2000;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  const EventList el(trace.events);
  std::string blob;
  el.EncodeComponent(static_cast<ComponentMask>(kCompAllWithTransient), &blob);
  EventList decoded;
  ASSERT_TRUE(decoded.DecodeAndMergeComponent(blob).ok());
  decoded.FinalizeMerge();
  ASSERT_EQ(decoded.size(), el.size());
  for (size_t i = 0; i < el.size(); ++i) {
    ASSERT_EQ(decoded[i], el[i]) << "index " << i;
  }
}

TEST_P(CodecPropertyTest, EncodingIsDeterministic) {
  RandomTraceOptions opts;
  opts.num_events = 2000;
  opts.seed = GetParam() + 3000;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  const Timestamp t_end = trace.events.back().time;
  Snapshot g1 = ReplayAt(trace.events, t_end / 3);
  Snapshot g2 = ReplayAt(trace.events, t_end);
  const Delta d = Delta::Between(g2, g1);
  for (ComponentMask c : kDeltaComponents) {
    std::string a, b;
    d.EncodeComponent(c, &a);
    d.EncodeComponent(c, &b);
    EXPECT_EQ(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecPropertyTest,
                         ::testing::ValuesIn(test::PropertySeeds(5, 71000)));

// ---------------------------------------------------------------------------
// v2 rebased id columns (ROADMAP 5c)
// ---------------------------------------------------------------------------

TEST(CodecV2Test, EncoderWritesVersion2AndSentinelEndpointsRoundTrip) {
  // kEdgeAttr events carry sentinel (invalid) src/dst endpoints; v2 maps the
  // all-ones sentinel to a one-byte 0 in the rebased columns. Round trip must
  // restore the exact sentinel, not a rebased garbage id.
  std::vector<Event> events;
  for (int i = 0; i < 40; ++i) {
    events.push_back(Event::SetEdgeAttr(100 + i, 5'000'000 + i * 3, "w",
                                        std::nullopt, std::to_string(i)));
  }
  std::string blob;
  codec::EncodeEventListComponent(events, kCompEdgeAttr, &blob);
  ASSERT_TRUE(codec::HasHeader(blob));
  EXPECT_EQ(static_cast<uint8_t>(blob[3]), codec::kVersion2);

  std::vector<codec::SeqEvent> decoded;
  ASSERT_TRUE(codec::DecodeEventListComponent(blob, &decoded).ok());
  ASSERT_EQ(decoded.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(decoded[i].event, events[i]) << i;
    EXPECT_EQ(decoded[i].event.src, kInvalidNodeId) << i;
    EXPECT_EQ(decoded[i].event.dst, kInvalidNodeId) << i;
  }
}

TEST(CodecV2Test, SentinelEndpointsCostNoMoreThanValidTwins) {
  // Absolute varints would spend ten bytes per sentinel endpoint; rebased
  // columns spend one. Pin the win: the sentinel-endpoint blob must not be
  // larger than an identical blob whose endpoints are small valid ids.
  std::vector<Event> with_sentinels, with_valid;
  for (int i = 0; i < 64; ++i) {
    Event e = Event::SetEdgeAttr(10 + i, 900 + i, "weight", std::nullopt, "1");
    with_sentinels.push_back(e);
    e.src = 3;
    e.dst = 4;
    with_valid.push_back(e);
  }
  std::string a, b;
  codec::EncodeEventListComponent(with_sentinels, kCompEdgeAttr, &a);
  codec::EncodeEventListComponent(with_valid, kCompEdgeAttr, &b);
  EXPECT_LE(a.size(), b.size());
}

TEST(CodecV2Test, RebasingShrinksFarFromZeroIdColumns) {
  // Ids clustered far from zero take 5 absolute varint bytes each but 1-2
  // rebased bytes; v2 must beat the v1 absolute layout on such columns.
  std::vector<Event> events;
  for (int i = 0; i < 200; ++i) {
    events.push_back(Event::AddNode(i + 1, (1ull << 34) + i * 7));
  }
  std::string v2;
  codec::EncodeEventListComponent(events, kCompStruct, &v2);
  // The v1 twin: identical layout with absolute id columns. Build it from the
  // v2 blob's own size arithmetic instead: 200 ids x 5 bytes absolute vs
  // 1 base + 200 x <=2 bytes rebased means at least ~600 bytes of daylight,
  // far more than any framing difference.
  std::string v0;
  codec::EncodeEventListComponentV0(events, kCompStruct, &v0);
  EXPECT_LT(v2.size() + 400, v0.size());
}

TEST(CodecV2Test, HandBuiltV1AbsoluteIdBlobStillDecodes) {
  // A v1 blob frozen by hand: absolute varint id columns, no rebasing. Old
  // indexes written by a v1 build must keep decoding bit-exactly.
  const Event e0 = Event::AddNode(10, 12'345'678);
  const Event e1 = Event::AddEdge(20, 99'999, 5, 888'888, true);

  std::string blob;
  codec::PutHeader(&blob, codec::kVersion1);
  std::string meta;
  PutVarint64(&meta, 2);     // count
  PutVarint64(&meta, 0);     // seq gap to e0 (seq 0)
  PutVarint64(&meta, 1);     // seq gap to e1 (seq 1)
  PutVarsint64(&meta, 10);   // time delta to t=10
  PutVarsint64(&meta, 10);   // time delta to t=20
  meta.push_back(static_cast<char>(EventType::kAddNode));
  meta.push_back(static_cast<char>(EventType::kAddEdge));
  codec::AppendBlock(codec::kBlockEventMeta, meta, &blob);
  std::string ids;
  PutVarint64(&ids, e0.node);  // node column (absolute)
  PutVarint64(&ids, e1.edge);  // edge column
  PutVarint64(&ids, e1.src);   // src column
  PutVarint64(&ids, e1.dst);   // dst column
  codec::PutBitmap({true}, &ids);  // directed bitmap
  codec::AppendBlock(codec::kBlockEventIds, ids, &blob);

  std::vector<codec::SeqEvent> decoded;
  ASSERT_TRUE(codec::DecodeEventListComponent(blob, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].seq, 0u);
  EXPECT_EQ(decoded[1].seq, 1u);
  EXPECT_EQ(decoded[0].event, e0);
  EXPECT_EQ(decoded[1].event, e1);
}

// ---------------------------------------------------------------------------
// Malformed input: truncations and corruptions must return Status, not crash
// ---------------------------------------------------------------------------

TEST(CodecMalformedTest, UnsupportedVersionRejected) {
  Delta d = FixtureDelta();
  std::string blob;
  d.EncodeComponent(kCompStruct, &blob);
  ASSERT_TRUE(codec::HasHeader(blob));
  blob[3] = '\x09';  // Future version byte.
  Delta decoded;
  Status s = decoded.DecodeComponent(kCompStruct, blob);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(CodecMalformedTest, EveryTruncationFailsCleanly) {
  const Delta d = FixtureDelta();
  const EventList el = FixtureEvents();
  for (ComponentMask c : kDeltaComponents) {
    std::string blob;
    d.EncodeComponent(c, &blob);
    for (size_t len = 0; len < blob.size(); ++len) {
      Delta decoded;
      // Must return; whether OK (an empty prefix can be a valid empty blob)
      // or Corruption is length-dependent, but it must never crash or hang.
      (void)decoded.DecodeComponent(c, Slice(blob.data(), len));
    }
  }
  std::string blob;
  el.EncodeComponent(static_cast<ComponentMask>(kCompAllWithTransient), &blob);
  for (size_t len = 0; len < blob.size(); ++len) {
    EventList decoded;
    (void)decoded.DecodeAndMergeComponent(Slice(blob.data(), len));
  }
}

TEST(CodecMalformedTest, SeededByteFlipsFailCleanly) {
  // Fuzz-ish sweep: flip random bytes (and random bit patterns) in valid
  // blobs; decode must always return. Seeded via test_util so failures replay.
  RandomTraceOptions opts;
  opts.num_events = 800;
  opts.seed = 4242;
  GeneratedTrace trace = GenerateRandomTrace(opts);
  const EventList el(trace.events);
  const Timestamp t_end = trace.events.back().time;
  const Delta d =
      Delta::Between(ReplayAt(trace.events, t_end), ReplayAt(trace.events, t_end / 2));

  for (uint64_t seed : test::PropertySeeds(3, 91000)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());
    for (ComponentMask c : kDeltaComponents) {
      std::string blob;
      d.EncodeComponent(c, &blob);
      if (blob.empty()) continue;
      for (int flip = 0; flip < 200; ++flip) {
        std::string mutated = blob;
        mutated[rng.Uniform(mutated.size())] =
            static_cast<char>(rng.Uniform(256));
        Delta decoded;
        (void)decoded.DecodeComponent(c, mutated);
      }
    }
    std::string blob;
    el.EncodeComponent(static_cast<ComponentMask>(kCompAllWithTransient), &blob);
    for (int flip = 0; flip < 400; ++flip) {
      std::string mutated = blob;
      mutated[rng.Uniform(mutated.size())] = static_cast<char>(rng.Uniform(256));
      EventList decoded;
      (void)decoded.DecodeAndMergeComponent(mutated);
    }
  }
}

TEST(CodecMalformedTest, AbsurdCompressedLengthRejected) {
  // A compressed block frame whose claimed uncompressed size is absurd must
  // be rejected before any allocation is attempted.
  std::string blob;
  codec::PutHeader(&blob);
  std::string packed;
  PutVarint64(&packed, uint64_t{1} << 60);  // Claimed raw size.
  packed += "junk";
  blob.push_back(static_cast<char>(codec::kBlockNodeAdds | codec::kBlockCompressedBit));
  PutVarint64(&blob, packed.size());
  blob += packed;
  Delta decoded;
  Status s = decoded.DecodeComponent(kCompStruct, blob);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(CodecMalformedTest, DictIndexAliasingThroughUint32Rejected) {
  // An index of k*2^32 + j must not silently resolve to entry j.
  std::string dict_payload;
  PutVarint64(&dict_payload, 1);  // One entry: "k".
  PutLengthPrefixedSlice(&dict_payload, Slice("k"));
  std::string attrs_payload;
  PutVarint64(&attrs_payload, 1);                  // One entry.
  PutVarint64(&attrs_payload, 7);                  // Owner.
  PutVarint64(&attrs_payload, (uint64_t{1} << 32));  // Key idx: aliases 0.
  PutVarint64(&attrs_payload, 0);                  // Value idx.
  std::string blob;
  codec::PutHeader(&blob);
  codec::AppendBlock(codec::kBlockDict, dict_payload, &blob);
  codec::AppendBlock(codec::kBlockAttrAdds, attrs_payload, &blob);
  Delta decoded;
  Status s = decoded.DecodeComponent(kCompNodeAttr, blob);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(CodecMalformedTest, TrailingGarbageAndBadDictIndexRejected) {
  Delta d = FixtureDelta();
  std::string blob;
  d.EncodeComponent(kCompNodeAttr, &blob);
  Delta decoded;
  // Trailing garbage after the last block: the frame parser must reject it.
  EXPECT_FALSE(decoded.DecodeComponent(kCompNodeAttr, blob + "garbage!").ok());
  // A duplicate block is corruption.
  std::string doubled = blob;
  doubled.append(blob.data() + 4, blob.size() - 4);  // Re-append body blocks.
  EXPECT_FALSE(decoded.DecodeComponent(kCompNodeAttr, doubled).ok());
}

// ---------------------------------------------------------------------------
// Cross-layer invariants
// ---------------------------------------------------------------------------

TEST(CodecKvTest, KvLayerStoresCodecBlobsRaw) {
  // kvstore/compression sniffs the codec magic (its own copy of the three
  // bytes) and skips the redundant whole-value LZ pass. This test pins the
  // two constants together: if they drift, the size identity breaks.
  Delta d = FixtureDelta();
  std::string blob;
  d.EncodeComponent(kCompNodeAttr, &blob);
  ASSERT_TRUE(codec::HasHeader(blob));
  std::string stored;
  CompressValue(blob, &stored);
  EXPECT_EQ(stored.size(), blob.size() + 1);  // One tag byte, no transform.
  std::string back;
  ASSERT_TRUE(DecompressValue(stored, &back).ok());
  EXPECT_EQ(back, blob);
}

// One read through the store's batch path (the only read path it has).
DeltaStore::BatchedRead ReadOne(const DeltaStore& ds, DeltaId id, unsigned components,
                                const ComponentSizes& sizes, bool is_eventlist) {
  DeltaStore::BatchedRead read(id, components, sizes, is_eventlist);
  ds.GetBatch({&read, 1});
  return read;
}

TEST(CodecKvTest, DeltaStoreRoundTripsThroughKvStore) {
  auto store = NewMemKVStore();
  DeltaStore ds(store.get());
  const Delta d = FixtureDelta();
  ComponentSizes sizes;
  ASSERT_TRUE(ds.PutDelta(1, d, &sizes).ok());
  const DeltaStore::BatchedRead back = ReadOne(ds, 1, kCompAll, sizes, false);
  ASSERT_TRUE(back.status.ok());
  EXPECT_TRUE(*back.delta == d);

  const EventList el = FixtureEvents();
  ASSERT_TRUE(ds.PutEventList(2, el, &sizes).ok());
  const DeltaStore::BatchedRead el_back =
      ReadOne(ds, 2, kCompAllWithTransient, sizes, true);
  ASSERT_TRUE(el_back.status.ok());
  ASSERT_EQ(el_back.events->size(), el.size());
  for (size_t i = 0; i < el.size(); ++i) EXPECT_EQ((*el_back.events)[i], el[i]);
}

TEST(CodecKvTest, GetBatchMixesHitsMissesAndErrors) {
  auto store = NewMemKVStore();
  DeltaStore ds(store.get());
  const Delta d = FixtureDelta();
  const EventList el = FixtureEvents();
  ComponentSizes d_sizes, el_sizes;
  ASSERT_TRUE(ds.PutDelta(1, d, &d_sizes).ok());
  ASSERT_TRUE(ds.PutEventList(2, el, &el_sizes).ok());

  // Warm the decoded LRU with the delta only.
  ASSERT_TRUE(ReadOne(ds, 1, kCompAll, d_sizes, false).status.ok());

  const size_t mg_before = ds.batched_multigets();
  std::vector<DeltaStore::BatchedRead> batch(3);
  batch[0].id = 1;  // LRU hit.
  batch[0].components = kCompAll;
  batch[0].sizes = d_sizes;
  batch[1].id = 2;  // Miss -> fetched in the single MultiGet.
  batch[1].components = kCompAllWithTransient;
  batch[1].sizes = el_sizes;
  batch[1].is_eventlist = true;
  batch[2].id = 99;  // Never stored, but sizes claim bytes: NotFound.
  batch[2].components = kCompStruct;
  batch[2].sizes.bytes[0] = 10;
  ds.GetBatch(batch);

  ASSERT_TRUE(batch[0].status.ok());
  ASSERT_NE(batch[0].delta, nullptr);
  EXPECT_TRUE(*batch[0].delta == d);
  ASSERT_TRUE(batch[1].status.ok());
  ASSERT_EQ(batch[1].events->size(), el.size());
  EXPECT_TRUE(batch[2].status.IsNotFound()) << batch[2].status.ToString();
  // The two misses shared one MultiGet round-trip.
  EXPECT_EQ(ds.batched_multigets(), mg_before + 1);

  // A second batch of pure hits performs no round-trip at all.
  std::vector<DeltaStore::BatchedRead> hits(1);
  hits[0].id = 2;
  hits[0].components = kCompAllWithTransient;
  hits[0].sizes = el_sizes;
  hits[0].is_eventlist = true;
  ds.GetBatch(hits);
  ASSERT_TRUE(hits[0].status.ok());
  EXPECT_EQ(ds.batched_multigets(), mg_before + 1);
}

TEST(CodecKvTest, IndexFormatVersionGate) {
  auto store = NewMemKVStore();
  {
    DeltaGraphOptions opts;
    opts.leaf_size = 4;
    auto dg = DeltaGraph::Create(store.get(), opts);
    ASSERT_TRUE(dg.ok());
    for (int i = 1; i <= 12; ++i) {
      ASSERT_TRUE((*dg)->Append(Event::AddNode(i, i)).ok());
    }
    ASSERT_TRUE((*dg)->Finalize().ok());
  }
  {  // Reopens at the current version.
    auto reopened = DeltaGraph::Open(store.get());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  }
  {  // A future version is rejected up front.
    DeltaStore ds(store.get());
    ASSERT_TRUE(ds.PutMeta("format", "9").ok());
    auto reopened = DeltaGraph::Open(store.get());
    ASSERT_FALSE(reopened.ok());
    EXPECT_TRUE(reopened.status().IsInvalidArgument());
  }
  {  // A pre-codec index (no format meta) still opens: v0 fallback.
    ASSERT_TRUE(store->Delete("m/format").ok());
    auto reopened = DeltaGraph::Open(store.get());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Skeleton blobs through the versioned container (ROADMAP 5b: the last
// pre-codec v0 blob folded into the columnar format).
// ---------------------------------------------------------------------------

// A skeleton exercising every encoded field: multiple levels, negative and
// positive boundary times, a super-root, materialized leaves, delta and
// eventlist edges, and a soft-deleted edge.
Skeleton BuildFixtureSkeleton() {
  Skeleton s;
  SkeletonNode leaf;
  leaf.is_leaf = true;
  leaf.level = 1;
  leaf.boundary_time = -50;
  leaf.element_count = 10;
  const int32_t l0 = s.AddNode(leaf);
  leaf.boundary_time = 100;
  leaf.element_count = 240;
  leaf.materialized = true;  // Runtime-only: must NOT survive a round trip.
  const int32_t l1 = s.AddNode(leaf);
  leaf.materialized = false;
  leaf.boundary_time = 1000000007;
  leaf.element_count = 0;
  const int32_t l2 = s.AddNode(leaf);
  SkeletonNode interior;
  interior.level = 2;
  interior.hierarchy = 3;
  interior.boundary_time = 100;
  interior.element_count = 500;
  const int32_t mid = s.AddNode(interior);
  SkeletonNode root;
  root.level = 3;
  root.is_super_root = true;
  const int32_t top = s.AddNode(root);
  s.SetSuperRoot(top);

  SkeletonEdge delta;
  delta.from = mid;
  delta.to = l0;
  delta.delta_id = 7;
  delta.sizes.bytes[0] = 1u << 20;
  delta.sizes.elements[0] = 333;
  delta.sizes.bytes[2] = 12;
  delta.sizes.elements[2] = 4;
  s.AddEdge(delta);
  delta.to = l1;
  delta.delta_id = 8;
  s.AddEdge(delta);
  delta.from = top;
  delta.to = mid;
  delta.delta_id = 9;
  const int32_t doomed = s.AddEdge(delta);
  SkeletonEdge ev;
  ev.from = l0;
  ev.to = l1;
  ev.is_eventlist = true;
  ev.delta_id = 10;
  ev.sizes.bytes[3] = 77;
  ev.sizes.elements[3] = 6;
  s.AddEdge(ev);
  ev.from = l1;
  ev.to = l2;
  ev.delta_id = 11;
  s.AddEdge(ev);
  s.RemoveEdge(doomed);  // Soft delete must survive the round trip.
  return s;
}

void ExpectSkeletonsEqual(const Skeleton& a, const Skeleton& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.super_root(), b.super_root());
  EXPECT_EQ(a.leaves(), b.leaves());
  for (size_t i = 0; i < a.node_count(); ++i) {
    const SkeletonNode& x = a.node(static_cast<int32_t>(i));
    const SkeletonNode& y = b.node(static_cast<int32_t>(i));
    EXPECT_EQ(x.level, y.level) << "node " << i;
    EXPECT_EQ(x.is_leaf, y.is_leaf) << "node " << i;
    EXPECT_EQ(x.is_super_root, y.is_super_root) << "node " << i;
    EXPECT_EQ(x.hierarchy, y.hierarchy) << "node " << i;
    EXPECT_EQ(x.boundary_time, y.boundary_time) << "node " << i;
    EXPECT_EQ(x.element_count, y.element_count) << "node " << i;
    EXPECT_FALSE(y.materialized) << "node " << i;  // Runtime-only flag.
  }
  for (size_t i = 0; i < a.edge_count(); ++i) {
    const SkeletonEdge& x = a.edge(static_cast<int32_t>(i));
    const SkeletonEdge& y = b.edge(static_cast<int32_t>(i));
    EXPECT_EQ(x.from, y.from) << "edge " << i;
    EXPECT_EQ(x.to, y.to) << "edge " << i;
    EXPECT_EQ(x.is_eventlist, y.is_eventlist) << "edge " << i;
    EXPECT_EQ(x.deleted, y.deleted) << "edge " << i;
    EXPECT_EQ(x.delta_id, y.delta_id) << "edge " << i;
    for (int c = 0; c < kNumComponents; ++c) {
      EXPECT_EQ(x.sizes.bytes[c], y.sizes.bytes[c]) << "edge " << i;
      EXPECT_EQ(x.sizes.elements[c], y.sizes.elements[c]) << "edge " << i;
    }
  }
}

TEST(SkeletonCodecTest, ColumnarRoundTrip) {
  const Skeleton s = BuildFixtureSkeleton();
  std::string blob;
  s.EncodeTo(&blob);
  ASSERT_TRUE(codec::HasHeader(Slice(blob)));  // New blobs carry the magic.
  Skeleton back;
  ASSERT_TRUE(Skeleton::DecodeFrom(Slice(blob), &back).ok());
  ExpectSkeletonsEqual(s, back);
  // Deterministic: re-encode of the decode is byte-identical (the
  // materialized flag is the one field allowed to differ, and it encodes as
  // a flag bit — clear it on the source for the comparison).
  Skeleton s2 = BuildFixtureSkeleton();
  s2.SetMaterialized(1, false);
  std::string blob2;
  s2.EncodeTo(&blob2);
  std::string reblob;
  back.EncodeTo(&reblob);
  EXPECT_EQ(blob2, reblob);
}

TEST(SkeletonCodecTest, LegacyRowBlobStillDecodes) {
  const Skeleton s = BuildFixtureSkeleton();
  // The pre-codec v0 row layout, reproduced here exactly as the old encoder
  // wrote it (bare varint version 1, interleaved per-row fields). The decoder
  // must keep reading these from indexes finalized before the codec fold.
  std::string blob;
  PutVarint32(&blob, 1);
  PutVarint64(&blob, s.node_count());
  for (size_t i = 0; i < s.node_count(); ++i) {
    const SkeletonNode& n = s.node(static_cast<int32_t>(i));
    PutVarint32(&blob, static_cast<uint32_t>(n.level));
    unsigned char flags = 0;
    if (n.is_leaf) flags |= 1;
    if (n.is_super_root) flags |= 2;
    if (n.materialized) flags |= 4;
    blob.push_back(static_cast<char>(flags));
    PutVarint32(&blob, static_cast<uint32_t>(n.hierarchy));
    PutVarsint64(&blob, n.boundary_time);
    PutVarint64(&blob, n.element_count);
  }
  PutVarint64(&blob, s.edge_count());
  for (size_t i = 0; i < s.edge_count(); ++i) {
    const SkeletonEdge& e = s.edge(static_cast<int32_t>(i));
    PutVarint32(&blob, static_cast<uint32_t>(e.from));
    PutVarint32(&blob, static_cast<uint32_t>(e.to));
    unsigned char flags = 0;
    if (e.is_eventlist) flags |= 1;
    if (e.deleted) flags |= 2;
    blob.push_back(static_cast<char>(flags));
    PutVarint64(&blob, e.delta_id);
    for (int c = 0; c < kNumComponents; ++c) PutVarint64(&blob, e.sizes.bytes[c]);
    for (int c = 0; c < kNumComponents; ++c) PutVarint64(&blob, e.sizes.elements[c]);
  }
  PutVarint32(&blob, static_cast<uint32_t>(s.super_root() + 1));

  ASSERT_FALSE(codec::HasHeader(Slice(blob)));
  Skeleton back;
  ASSERT_TRUE(Skeleton::DecodeFrom(Slice(blob), &back).ok());
  ExpectSkeletonsEqual(s, back);
}

TEST(SkeletonCodecTest, EveryTruncationFailsCleanly) {
  const Skeleton s = BuildFixtureSkeleton();
  std::string blob;
  s.EncodeTo(&blob);
  for (size_t len = 0; len < blob.size(); ++len) {
    Skeleton back;
    const Status st = Skeleton::DecodeFrom(Slice(blob.data(), len), &back);
    EXPECT_FALSE(st.ok()) << "truncation at " << len << " decoded";
  }
}

TEST(SkeletonCodecTest, CorruptColumnsRejected) {
  const Skeleton s = BuildFixtureSkeleton();
  std::string blob;
  s.EncodeTo(&blob);
  {  // Trailing garbage after the last block.
    std::string bad = blob + "\x01";
    Skeleton back;
    EXPECT_FALSE(Skeleton::DecodeFrom(Slice(bad), &back).ok());
  }
  {  // Seeded byte flips: a Status, never a crash or an OOB endpoint.
    test::SeededRng rng(20130408);
    for (int trial = 0; trial < 64; ++trial) {
      std::string bad = blob;
      bad[rng.Uniform(bad.size())] ^= static_cast<char>(1 + rng.Uniform(255));
      Skeleton back;
      const Status st = Skeleton::DecodeFrom(Slice(bad), &back);
      if (!st.ok()) continue;
      // A flip that still decodes must at least yield in-range endpoints.
      for (size_t i = 0; i < back.edge_count(); ++i) {
        const SkeletonEdge& e = back.edge(static_cast<int32_t>(i));
        ASSERT_GE(e.from, 0);
        ASSERT_LT(static_cast<size_t>(e.from), back.node_count());
        ASSERT_GE(e.to, 0);
        ASSERT_LT(static_cast<size_t>(e.to), back.node_count());
      }
    }
  }
}

}  // namespace
}  // namespace hgdb

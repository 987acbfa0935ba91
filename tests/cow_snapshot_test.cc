// Coverage for the copy-on-write Snapshot core: COW aliasing semantics
// (mutate-after-share leaves the sibling untouched), structure sharing on
// copy (including an allocation-count proof), chunk-granular sharing across
// emitted snapshots (including an allocation proof that a post-emit mutation
// epoch costs O(touched chunks), not O(store)), the chunked id containers
// against std oracles, the chunk-wise Snapshot::Intersect kernels against an
// element-wise reference (including which chunks they adopt by pointer), the
// string interner, the flat-hash spine containers, and the DeltaStore
// decoded-object LRU.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <unordered_map>
#include <unordered_set>

#include "common/chunked_store.h"
#include "common/flat_hash.h"
#include "common/interner.h"
#include "deltagraph/delta_store.h"
#include "graph/snapshot.h"
#include "kvstore/kv_store.h"
#include "tests/test_util.h"

// ---------------------------------------------------------------------------
// Global allocation counters (this test binary only): prove that copying a
// Snapshot performs no per-element work, and that a mutation epoch after an
// emit allocates in proportion to the chunks it touches.
// ---------------------------------------------------------------------------

namespace {
std::atomic<size_t> g_alloc_count{0};
std::atomic<size_t> g_alloc_bytes{0};
}  // namespace

void* operator new(size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  const size_t a =
      static_cast<size_t>(align) < sizeof(void*) ? sizeof(void*)
                                                 : static_cast<size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a, size) == 0) return p;
  throw std::bad_alloc();
}
// The deletes stay out of line: inlined into a caller, GCC pairs the
// `new` expression it sees there with this body's free() and reports
// -Wmismatched-new-delete, although the two replacements do match.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hgdb {
namespace {

Snapshot MakeSample() {
  Snapshot g;
  for (NodeId n = 1; n <= 50; ++n) g.AddNode(n);
  for (EdgeId e = 100; e < 140; ++e) {
    g.AddEdge(e, EdgeRecord{e - 100 + 1, e - 100 + 2, false});
  }
  for (NodeId n = 1; n <= 20; ++n) {
    g.SetNodeAttr(n, "name", "node-" + std::to_string(n));
    g.SetNodeAttr(n, "color", n % 2 ? "red" : "blue");
  }
  for (EdgeId e = 100; e < 110; ++e) g.SetEdgeAttr(e, "weight", std::to_string(e));
  return g;
}

// ---------------------------------------------------------------------------
// COW sharing
// ---------------------------------------------------------------------------

TEST(CowSnapshotTest, CopySharesAllStores) {
  Snapshot a = MakeSample();
  Snapshot b = a;
  EXPECT_TRUE(b.SharesAllStoresWith(a));
  EXPECT_TRUE(a.Equals(b));
}

TEST(CowSnapshotTest, CopyCostsNoAllocations) {
  Snapshot a = MakeSample();
  const size_t before = g_alloc_count.load();
  Snapshot b = a;
  const size_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u) << "snapshot copy must not allocate";
  EXPECT_TRUE(b.SharesAllStoresWith(a));
}

TEST(CowSnapshotTest, MutateNodesAfterShareLeavesSiblingUntouched) {
  Snapshot a = MakeSample();
  Snapshot b = a;
  ASSERT_TRUE(b.AddNode(999));
  EXPECT_TRUE(b.HasNode(999));
  EXPECT_FALSE(a.HasNode(999));
  // Only the node store diverged; the other three are still shared.
  EXPECT_FALSE(b.SharesNodeStoreWith(a));
  EXPECT_TRUE(b.SharesEdgeStoreWith(a));
  EXPECT_TRUE(b.SharesNodeAttrStoreWith(a));
  EXPECT_TRUE(b.SharesEdgeAttrStoreWith(a));

  ASSERT_TRUE(b.RemoveNode(999));
  EXPECT_TRUE(a.Equals(b)) << a.DiffString(b);
}

TEST(CowSnapshotTest, MutateEdgesAfterShareLeavesSiblingUntouched) {
  Snapshot a = MakeSample();
  Snapshot b = a;
  ASSERT_TRUE(b.RemoveEdge(100));
  EXPECT_FALSE(b.HasEdge(100));
  EXPECT_TRUE(a.HasEdge(100));
  EXPECT_FALSE(b.SharesEdgeStoreWith(a));
  EXPECT_TRUE(b.SharesNodeStoreWith(a));
}

TEST(CowSnapshotTest, MutateNodeAttrsAfterShareLeavesSiblingUntouched) {
  Snapshot a = MakeSample();
  Snapshot b = a;
  b.SetNodeAttr(1, "name", "changed");
  EXPECT_EQ(*b.GetNodeAttr(1, "name"), "changed");
  EXPECT_EQ(*a.GetNodeAttr(1, "name"), "node-1");
  EXPECT_FALSE(b.SharesNodeAttrStoreWith(a));
  EXPECT_TRUE(b.SharesEdgeAttrStoreWith(a));

  Snapshot c = a;
  c.RemoveNodeAttr(1, "name");
  EXPECT_EQ(c.GetNodeAttr(1, "name"), nullptr);
  EXPECT_NE(a.GetNodeAttr(1, "name"), nullptr);
}

TEST(CowSnapshotTest, MutateEdgeAttrsAfterShareLeavesSiblingUntouched) {
  Snapshot a = MakeSample();
  Snapshot b = a;
  b.SetEdgeAttr(100, "weight", "override");
  EXPECT_EQ(*b.GetEdgeAttr(100, "weight"), "override");
  EXPECT_EQ(*a.GetEdgeAttr(100, "weight"), "100");
  EXPECT_FALSE(b.SharesEdgeAttrStoreWith(a));
  EXPECT_TRUE(b.SharesNodeAttrStoreWith(a));
}

TEST(CowSnapshotTest, NoOpMutationsDoNotBreakSharing) {
  Snapshot a = MakeSample();
  Snapshot b = a;
  // All of these are no-ops and must not trigger a clone.
  EXPECT_FALSE(b.AddNode(1));           // Already present.
  EXPECT_FALSE(b.RemoveNode(999));      // Absent.
  EXPECT_FALSE(b.RemoveEdge(999));      // Absent.
  b.RemoveNodeAttr(1, "no-such-key");
  b.SetNodeAttr(1, "name", "node-1");   // Same value.
  EXPECT_TRUE(b.SharesAllStoresWith(a));
}

TEST(CowSnapshotTest, CopyFilteredSharesSelectedStores) {
  Snapshot a = MakeSample();
  Snapshot structs = a.CopyFiltered(kCompStruct);
  EXPECT_TRUE(structs.SharesNodeStoreWith(a));
  EXPECT_TRUE(structs.SharesEdgeStoreWith(a));
  EXPECT_EQ(structs.NodeAttrCount(), 0u);
  EXPECT_EQ(structs.EdgeAttrCount(), 0u);

  // Mutating the filtered copy must not leak into the original.
  structs.AddNode(12345);
  EXPECT_FALSE(a.HasNode(12345));

  Snapshot attrs = a.CopyFiltered(kCompNodeAttr | kCompEdgeAttr);
  EXPECT_EQ(attrs.NodeCount(), 0u);
  EXPECT_EQ(attrs.NodeAttrCount(), a.NodeAttrCount());
}

TEST(CowSnapshotTest, ChainOfCopiesDivergesIndependently) {
  Snapshot a = MakeSample();
  Snapshot b = a;
  Snapshot c = b;
  b.AddNode(500);
  c.AddNode(600);
  EXPECT_FALSE(a.HasNode(500));
  EXPECT_FALSE(a.HasNode(600));
  EXPECT_TRUE(b.HasNode(500));
  EXPECT_FALSE(b.HasNode(600));
  EXPECT_TRUE(c.HasNode(600));
  EXPECT_FALSE(c.HasNode(500));
}

TEST(CowSnapshotTest, AbsorbDisjointStealsIntoEmptyAndMerges) {
  Snapshot a;
  Snapshot b = MakeSample();
  const Snapshot b_copy = b;
  a.AbsorbDisjoint(std::move(b));
  EXPECT_TRUE(a.Equals(b_copy));

  // Merge path: disjoint id ranges combine fully.
  Snapshot c;
  c.AddNode(1000);
  c.SetNodeAttr(1000, "name", "extra");
  Snapshot d = a.CopyFiltered(kCompAll);
  d.AbsorbDisjoint(std::move(c));
  EXPECT_TRUE(d.HasNode(1000));
  EXPECT_EQ(d.NodeCount(), b_copy.NodeCount() + 1);
  EXPECT_EQ(d.NodeAttrCount(), b_copy.NodeAttrCount() + 1);
  // And the absorb did not corrupt the store `a` still shares.
  EXPECT_TRUE(a.Equals(b_copy));
}

TEST(CowSnapshotTest, AbsorbDisjointMergePreservesCowSibling) {
  // `other` shares its attr stores with a sibling; the merge path must copy,
  // not move — a move would silently empty the sibling's attribute maps.
  Snapshot other = MakeSample();
  const Snapshot sibling = other;
  ASSERT_TRUE(sibling.SharesNodeAttrStoreWith(other));

  Snapshot target;
  target.AddNode(5000);
  target.SetNodeAttr(5000, "name", "pre-existing");  // Forces the merge path.
  target.AbsorbDisjoint(std::move(other));

  EXPECT_EQ(sibling.NodeAttrCount(), MakeSample().NodeAttrCount());
  ASSERT_NE(sibling.GetNodeAttr(1, "name"), nullptr);
  EXPECT_EQ(*sibling.GetNodeAttr(1, "name"), "node-1");
  ASSERT_NE(target.GetNodeAttr(1, "name"), nullptr);
  EXPECT_EQ(*target.GetNodeAttr(1, "name"), "node-1");
  EXPECT_EQ(*target.GetNodeAttr(5000, "name"), "pre-existing");
  ASSERT_NE(target.GetEdgeAttr(100, "weight"), nullptr);
  EXPECT_EQ(*sibling.GetEdgeAttr(100, "weight"), "100");
}

// ---------------------------------------------------------------------------
// Chunk-granular sharing (the overlay layer under the stores)
// ---------------------------------------------------------------------------

// All heap parts (spines + chunks) a snapshot references, by pointer.
std::unordered_set<const void*> Parts(const Snapshot& s) {
  std::unordered_set<const void*> parts;
  s.ForEachStorePart([&](const void* p, size_t) { parts.insert(p); });
  return parts;
}

size_t SharedParts(const Snapshot& a, const Snapshot& b) {
  const auto pa = Parts(a);
  size_t shared = 0;
  for (const void* p : Parts(b)) shared += pa.count(p);
  return shared;
}

TEST(ChunkedOverlayTest, MutationCopiesOneChunkNotTheStore) {
  Snapshot a;
  for (NodeId n = 0; n < 2048; ++n) a.AddNode(n);  // 8 set chunks (256 ids).
  Snapshot b = a;
  ASSERT_TRUE(b.SharesNodeStoreWith(a));

  b.AddNode(5000);  // Lands in a fresh chunk: old chunks all stay shared.
  EXPECT_FALSE(b.SharesNodeStoreWith(a));
  EXPECT_EQ(SharedParts(a, b), Parts(a).size() - 1);  // All but a's spine.

  Snapshot c = a;
  c.RemoveNode(700);  // Copies exactly the chunk of id 700.
  // Shared: everything except c's spine and the one diverged chunk.
  EXPECT_EQ(SharedParts(a, c), Parts(a).size() - 2);
  EXPECT_TRUE(a.HasNode(700));
  EXPECT_FALSE(c.HasNode(700));
}

TEST(ChunkedOverlayTest, ChunkBoundaryMutationsIsolateSiblings) {
  // Ids straddling a set-chunk boundary (256) and a map-chunk boundary (128)
  // live in different chunks; mutating one side must not disturb the other
  // or the COW sibling.
  Snapshot a;
  a.AddNode(255);
  a.AddNode(256);
  a.AddEdge(127, EdgeRecord{255, 256, false});
  a.AddEdge(128, EdgeRecord{256, 255, false});
  Snapshot b = a;

  ASSERT_TRUE(b.RemoveNode(256));
  ASSERT_TRUE(b.RemoveEdge(128));
  EXPECT_TRUE(a.HasNode(256));
  EXPECT_TRUE(a.HasEdge(128));
  EXPECT_TRUE(b.HasNode(255));
  EXPECT_TRUE(b.HasEdge(127));

  // The untouched boundary-neighbor chunks are still pointer-shared.
  EXPECT_GE(SharedParts(a, b), 2u);

  ASSERT_TRUE(b.AddNode(256));
  ASSERT_TRUE(b.AddEdge(128, EdgeRecord{256, 255, false}));
  EXPECT_TRUE(a.Equals(b)) << a.DiffString(b);
}

TEST(ChunkedOverlayTest, DeleteThenReinsertInSameChunkRestoresEquality) {
  Snapshot a;
  for (NodeId n = 0; n < 600; ++n) a.AddNode(n);
  for (EdgeId e = 0; e < 300; ++e) a.AddEdge(e, EdgeRecord{e, e + 1, true});
  a.SetNodeAttr(5, "color", "red");
  Snapshot b = a;

  // Multi-element chunk: erase + reinsert inside chunk 1 (ids 256..511).
  ASSERT_TRUE(b.RemoveNode(300));
  ASSERT_TRUE(b.AddNode(300));
  ASSERT_TRUE(b.RemoveEdge(130));
  ASSERT_TRUE(b.AddEdge(130, EdgeRecord{130, 131, true}));
  EXPECT_TRUE(a.Equals(b)) << a.DiffString(b);

  // Attr delete + re-set in the same chunk.
  b.RemoveNodeAttr(5, "color");
  b.SetNodeAttr(5, "color", "red");
  EXPECT_TRUE(a.Equals(b)) << a.DiffString(b);

  // Single-element chunk: erasing the last element drops the chunk from the
  // spine; reinsertion recreates it.
  Snapshot c;
  c.AddNode(1 << 20);
  Snapshot d = c;
  ASSERT_TRUE(d.RemoveNode(1 << 20));
  EXPECT_TRUE(c.HasNode(1 << 20));
  EXPECT_FALSE(d.HasNode(1 << 20));
  EXPECT_EQ(d.NodeCount(), 0u);
  ASSERT_TRUE(d.AddNode(1 << 20));
  EXPECT_TRUE(c.Equals(d));
}

TEST(ChunkedOverlayTest, CopyFilteredOverSharedSpineDivergesPerChunk) {
  Snapshot a = MakeSample();
  Snapshot structs = a.CopyFiltered(kCompStruct);
  ASSERT_TRUE(structs.SharesNodeStoreWith(a));

  // Mutating the filtered copy clones its spine + one chunk; every other
  // chunk keeps aliasing the original.
  structs.AddNode(12345);
  EXPECT_FALSE(a.HasNode(12345));
  EXPECT_FALSE(structs.SharesNodeStoreWith(a));
  EXPECT_GE(SharedParts(a, structs), 1u);

  // And attr mutations on the original do not reach the struct-only copy.
  a.SetNodeAttr(1, "name", "rewritten");
  EXPECT_EQ(structs.GetNodeAttr(1, "name"), nullptr);
  EXPECT_EQ(structs.NodeAttrCount(), 0u);
}

TEST(ChunkedOverlayTest, EmitEpochAllocatesTouchedChunksNotStores) {
  // A large snapshot; then an "emit" (COW share) followed by a small
  // mutation epoch, as the plan executor does between two emit points. The
  // epoch must allocate memory proportional to the handful of chunks it
  // touches — not to the ~full-store clone the pre-chunking code paid.
  Snapshot big;
  for (NodeId n = 0; n < 40000; ++n) big.AddNode(n);
  for (EdgeId e = 0; e < 20000; ++e) {
    big.AddEdge(e, EdgeRecord{e % 40000, (e + 1) % 40000, false});
  }
  for (NodeId n = 0; n < 5000; ++n) {
    big.SetNodeAttr(n, "label", "node-" + std::to_string(n % 100));
  }
  const size_t store_bytes = big.MemoryBytes();
  ASSERT_GT(store_bytes, 400u * 1024);

  Snapshot emitted = big;  // The emit: O(1), shares everything.
  const size_t count_before = g_alloc_count.load();
  const size_t bytes_before = g_alloc_bytes.load();
  // The epoch: one structural add, one delete, one attr change — touches
  // three stores, one chunk each (plus the three spine copies).
  ASSERT_TRUE(big.AddNode(40001));
  ASSERT_TRUE(big.RemoveEdge(7));
  big.SetNodeAttr(3, "label", "changed");
  const size_t epoch_count = g_alloc_count.load() - count_before;
  const size_t epoch_bytes = g_alloc_bytes.load() - bytes_before;

  // O(touched chunks): a few spine tables (pointer arrays), three chunks,
  // and the attr copies inside the one cloned attr chunk. Far below any
  // whole-store clone both in allocation count and in bytes.
  EXPECT_LE(epoch_count, 200u) << "epoch allocation count should be O(chunks)";
  EXPECT_LE(epoch_bytes * 5, store_bytes)
      << "epoch bytes " << epoch_bytes << " vs stores " << store_bytes;

  // The emitted snapshot is untouched by the epoch.
  EXPECT_FALSE(emitted.HasNode(40001));
  EXPECT_TRUE(emitted.HasEdge(7));
  EXPECT_EQ(*emitted.GetNodeAttr(3, "label"), "node-3");
}

// ---------------------------------------------------------------------------
// Chunked containers vs std oracles
// ---------------------------------------------------------------------------

TEST(ChunkedStoreTest, MapMatchesStdReferenceUnderChurn) {
  ChunkedIdMap<uint64_t, uint64_t> m;
  std::unordered_map<uint64_t, uint64_t> ref;
  test::SeededRng rng(4242);
  for (int i = 0; i < 50000; ++i) {
    // Mix dense low keys (constant intra-chunk churn) with sparse strided
    // keys (the hash spine's sparse-range handling).
    const uint64_t key = rng.Chance(0.8) ? rng.Uniform(512)
                                         : (1 + rng.Uniform(64)) * 1000000007ull;
    switch (rng.Uniform(3)) {
      case 0:
        EXPECT_EQ(m.emplace(key, static_cast<uint64_t>(i)).second,
                  ref.emplace(key, static_cast<uint64_t>(i)).second);
        break;
      case 1:
        m[key] = static_cast<uint64_t>(i);
        ref[key] = static_cast<uint64_t>(i);
        break;
      case 2:
        EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
        break;
    }
  }
  ASSERT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const uint64_t* mine = m.FindValue(k);
    ASSERT_NE(mine, nullptr) << k;
    EXPECT_EQ(*mine, v);
  }
  size_t iterated = 0;
  for (const auto& [k, v] : m) {
    ASSERT_TRUE(ref.contains(k)) << k;
    EXPECT_EQ(ref[k], v);
    ++iterated;
  }
  EXPECT_EQ(iterated, ref.size());
}

TEST(ChunkedStoreTest, SetMatchesStdReferenceUnderChurn) {
  ChunkedIdSet<uint64_t> s;
  std::unordered_set<uint64_t> ref;
  test::SeededRng rng(777);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t key = rng.Chance(0.8) ? rng.Uniform(700)
                                         : (1 + rng.Uniform(64)) * 2654435761ull;
    if (rng.Uniform(2) == 0) {
      EXPECT_EQ(s.insert(key), ref.insert(key).second);
    } else {
      EXPECT_EQ(s.erase(key), ref.erase(key) > 0);
    }
  }
  ASSERT_EQ(s.size(), ref.size());
  for (uint64_t k : ref) EXPECT_TRUE(s.contains(k));
  size_t iterated = 0;
  for (uint64_t k : s) {
    EXPECT_TRUE(ref.contains(k));
    ++iterated;
  }
  EXPECT_EQ(iterated, ref.size());
}

TEST(ChunkedStoreTest, CowSiblingStaysFrozenUnderChurn) {
  ChunkedIdMap<uint64_t, uint64_t> m;
  std::unordered_map<uint64_t, uint64_t> expected;
  test::SeededRng rng(90210);
  for (uint64_t i = 0; i < 1500; ++i) {
    const uint64_t v = rng.Uniform(1u << 30);
    m[i] = v;
    expected[i] = v;
  }
  const ChunkedIdMap<uint64_t, uint64_t> frozen = m;  // The "emit".
  for (int i = 0; i < 20000; ++i) {  // Heavy churn on the working copy.
    const uint64_t key = rng.Uniform(3000);
    if (rng.Uniform(2) == 0) {
      m[key] = static_cast<uint64_t>(i);
    } else {
      m.erase(key);
    }
  }
  ASSERT_EQ(frozen.size(), expected.size());
  for (const auto& [k, v] : expected) {
    const uint64_t* f = frozen.FindValue(k);
    ASSERT_NE(f, nullptr) << k;
    EXPECT_EQ(*f, v) << k;
  }
}

TEST(ChunkedStoreTest, EqualityIsOrderAndHistoryIndependent) {
  ChunkedIdSet<uint64_t> a, b;
  for (uint64_t i = 0; i < 1000; ++i) a.insert(i);
  for (uint64_t i = 1000; i > 0; --i) b.insert(i - 1);
  b.insert(5000);  // Extra chunk...
  b.erase(5000);   // ...fully vacated again (must leave the spine).
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.ChunkCount(), b.ChunkCount());
  b.erase(17);
  EXPECT_TRUE(a != b);

  ChunkedIdMap<uint64_t, uint64_t> x, y;
  x.reserve(4096);  // Different spine capacity, same contents.
  for (uint64_t i = 0; i < 300; ++i) {
    x[i * 97] = i;
    y[(299 - i) * 97] = 299 - i;
  }
  EXPECT_TRUE(x == y);
  y[42 * 97] = 999;
  EXPECT_TRUE(x != y);
}

// ---------------------------------------------------------------------------
// Chunk-wise intersection (Snapshot::Intersect)
// ---------------------------------------------------------------------------

// Heap parts (spines and chunks) of `s` that none of `others` references.
size_t FreshParts(const Snapshot& s, std::initializer_list<const Snapshot*> others) {
  std::unordered_set<const void*> known;
  for (const Snapshot* o : others) known.merge(test::StoreParts(*o));
  size_t fresh = 0;
  for (const void* p : test::StoreParts(s)) fresh += known.count(p) == 0;
  return fresh;
}

size_t ChunkTotal(const Snapshot& s) {
  return s.nodes().ChunkCount() + s.edges().ChunkCount() + s.node_attrs().ChunkCount() +
         s.edge_attrs().ChunkCount();
}

// Ids crowd the chunk boundaries (127/128 for the 128-id maps, 255/256 for
// the 256-id node set), fill a dense low range, or land in a sparse far one.
uint64_t BoundaryHeavyId(test::SeededRng& rng) {
  static constexpr uint64_t kEdges[] = {127, 128, 255, 256, 383, 384, 511, 512};
  switch (rng.Uniform(3)) {
    case 0: return kEdges[rng.Uniform(8)] + rng.Uniform(3) - 1;
    case 1: return rng.Uniform(640);
    default: return (uint64_t{1} << 20) + rng.Uniform(300);
  }
}

// One random element mutation: adds, removes, and attribute sets that may
// change an existing value.
void MutateOnce(test::SeededRng& rng, Snapshot* g) {
  const uint64_t id = BoundaryHeavyId(rng);
  const std::string key = std::string("k").append(std::to_string(rng.Uniform(3)));
  const std::string value = std::string("v").append(std::to_string(rng.Uniform(3)));
  switch (rng.Uniform(8)) {
    case 0: g->AddNode(id); break;
    case 1: g->RemoveNode(id); break;
    case 2: g->AddEdge(id, EdgeRecord{id % 97, id % 89, id % 2 == 0}); break;
    case 3: g->RemoveEdge(id); break;
    case 4: g->SetNodeAttr(id, key, value); break;
    case 5: g->RemoveNodeAttr(id, key); break;
    case 6: g->SetEdgeAttr(id, key, value); break;
    default: g->RemoveEdgeAttr(id, key); break;
  }
}

TEST(SnapshotIntersectTest, MatchesElementwiseReference) {
  for (uint64_t seed : test::PropertySeeds(60, 12000)) {
    test::SeededRng rng(seed);
    SCOPED_TRACE(rng.Desc());
    Snapshot base;
    const int base_ops = static_cast<int>(rng.Uniform(1500));
    for (int i = 0; i < base_ops; ++i) MutateOnce(rng, &base);
    // The two sides diverge from a common base by a few mutations each, so
    // most chunk pairs stay pointer-shared; one side sometimes only grows
    // (its chunks become supersets of the other's).
    Snapshot a = base, b = base;
    const int a_ops = static_cast<int>(rng.Uniform(40));
    const int b_ops = static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < a_ops; ++i) MutateOnce(rng, &a);
    if (rng.Chance(0.3)) {
      for (int i = 0; i < b_ops; ++i) b.AddNode(BoundaryHeavyId(rng));
    } else {
      for (int i = 0; i < b_ops; ++i) MutateOnce(rng, &b);
    }
    for (const auto& [x, y] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
      const Snapshot got = Snapshot::Intersect(*x, *y);
      const Snapshot want = test::ReferenceIntersect(*x, *y);
      ASSERT_TRUE(got.Equals(want)) << got.DiffString(want);
      ASSERT_TRUE(want.Equals(got));
      EXPECT_EQ(got.ElementCount(), want.ElementCount());
      // The reference is built insert-only, so its spines hold exactly the
      // occupied ranges: equal chunk counts mean no empty chunk stayed in
      // a kernel's spine.
      EXPECT_EQ(got.nodes().ChunkCount(), want.nodes().ChunkCount());
      EXPECT_EQ(got.edges().ChunkCount(), want.edges().ChunkCount());
      EXPECT_EQ(got.node_attrs().ChunkCount(), want.node_attrs().ChunkCount());
      EXPECT_EQ(got.edge_attrs().ChunkCount(), want.edge_attrs().ChunkCount());
    }
  }
}

TEST(SnapshotIntersectTest, AdoptsSharedAndSubsetChunksByPointer) {
  Snapshot a;
  for (NodeId n = 0; n < 1024; ++n) a.AddNode(n);
  for (EdgeId e = 0; e < 512; ++e) a.AddEdge(e, EdgeRecord{e, e + 1, false});
  for (NodeId n = 0; n < 512; ++n) {
    a.SetNodeAttr(n, "name", std::string("n").append(std::to_string(n)));
  }
  for (EdgeId e = 0; e < 512; ++e) a.SetEdgeAttr(e, "w", "1");
  Snapshot b = a;
  // Every store diverges, each in a way whose meet is one side's chunk:
  b.AddNode(2000);                  // Range only in b: dropped.
  b.RemoveNode(300);                // b's chunk 256..511 is a subset of a's.
  a.RemoveNode(600);                // a's chunk 512..767 is a subset of b's.
  a.AddNode(1030);                  // Range only in a: dropped.
  a.AddEdge(600, EdgeRecord{1, 2, true});  // a's edge chunk 512..639 only.
  a.RemoveEdge(5);                  // a's edge chunk 0..127 is a subset of b's.
  b.SetNodeAttr(7, "extra", "x");   // b's owner 7 holds a superset of a's.
  a.RemoveEdgeAttr(130, "w");       // a's edge-attr chunk 128..255 is a subset.

  const Snapshot got = Snapshot::Intersect(a, b);
  ASSERT_TRUE(got.Equals(test::ReferenceIntersect(a, b)));
  EXPECT_FALSE(got.HasNode(300));
  EXPECT_FALSE(got.HasNode(600));
  EXPECT_FALSE(got.HasNode(2000));
  EXPECT_FALSE(got.HasEdge(5));
  EXPECT_EQ(got.GetNodeAttr(7, "extra"), nullptr);
  // Every chunk is adopted from a or b; only the four spines are new.
  EXPECT_EQ(FreshParts(got, {&a, &b}), 4u);
  EXPECT_GT(ChunkTotal(got), 4u);
}

TEST(SnapshotIntersectTest, ChangedValueDropsTripleIntoOneFreshChunk) {
  Snapshot a = MakeSample();
  for (NodeId n = 200; n < 700; ++n) {
    a.AddNode(n);
    a.SetNodeAttr(n, "name", "far");
  }
  Snapshot b = a;
  b.SetNodeAttr(3, "color", "green");  // Was "red" in a.

  const Snapshot got = Snapshot::Intersect(a, b);
  ASSERT_TRUE(got.Equals(test::ReferenceIntersect(a, b)));
  EXPECT_EQ(got.GetNodeAttr(3, "color"), nullptr);
  ASSERT_NE(got.GetNodeAttr(3, "name"), nullptr);
  // Untouched stores are shared whole; the attribute table gets a new spine
  // and exactly one new chunk (the 0..127 range), adopting the others.
  EXPECT_TRUE(got.SharesNodeStoreWith(a));
  EXPECT_TRUE(got.SharesEdgeStoreWith(a));
  EXPECT_TRUE(got.SharesEdgeAttrStoreWith(a));
  EXPECT_EQ(FreshParts(got, {&a, &b}), 2u);
}

TEST(SnapshotIntersectTest, EmptyMeetsLeaveNoChunk) {
  Snapshot a, b;
  a.AddNode(5);
  b.AddNode(6);  // Same 256-id chunk, disjoint bits.
  a.AddNode(300);
  b.AddNode(300);
  a.AddEdge(10, EdgeRecord{5, 5, false});
  b.AddEdge(11, EdgeRecord{6, 6, false});
  a.SetNodeAttr(300, "k", "x");
  b.SetNodeAttr(300, "k", "y");  // Same key, other value: the owner drops.
  const Snapshot got = Snapshot::Intersect(a, b);
  ASSERT_TRUE(got.Equals(test::ReferenceIntersect(a, b)));
  EXPECT_EQ(got.NodeCount(), 1u);
  EXPECT_EQ(got.nodes().ChunkCount(), 1u);
  EXPECT_EQ(got.edges().ChunkCount(), 0u);
  EXPECT_EQ(got.node_attrs().ChunkCount(), 0u);
  EXPECT_EQ(got.GetNodeAttrs(300), nullptr);
}

TEST(SnapshotIntersectTest, NullAndEmptyStores) {
  const Snapshot sample = MakeSample();
  const Snapshot none;
  EXPECT_TRUE(Snapshot::Intersect(none, sample).Equals(none));
  EXPECT_TRUE(Snapshot::Intersect(sample, none).Equals(none));
  EXPECT_TRUE(Snapshot::Intersect(none, none).Equals(none));

  Snapshot emptied;  // Allocated stores that hold nothing.
  emptied.AddNode(1);
  emptied.RemoveNode(1);
  emptied.AddEdge(100, EdgeRecord{1, 2, false});
  emptied.RemoveEdge(100);
  const Snapshot got = Snapshot::Intersect(emptied, sample);
  EXPECT_TRUE(got.Equals(none));
  EXPECT_EQ(ChunkTotal(got), 0u);

  // Structure-only vs full: attribute stores are null on one side.
  const Snapshot structure = sample.CopyFiltered(kCompStruct);
  const Snapshot meet = Snapshot::Intersect(sample, structure);
  EXPECT_TRUE(meet.Equals(structure));
  EXPECT_TRUE(meet.SharesNodeStoreWith(sample));
  EXPECT_TRUE(meet.SharesEdgeStoreWith(sample));

  // A snapshot meets itself by sharing every store.
  EXPECT_TRUE(Snapshot::Intersect(sample, sample).SharesAllStoresWith(sample));
}

// ---------------------------------------------------------------------------
// Interner
// ---------------------------------------------------------------------------

TEST(InternerTest, RoundTripAndIdentity) {
  auto& interner = StringInterner::Global();
  const AttrId a = interner.Intern("interner-test-alpha");
  const AttrId b = interner.Intern("interner-test-beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("interner-test-alpha"), a);
  EXPECT_EQ(interner.Get(a), "interner-test-alpha");
  EXPECT_EQ(interner.Get(b), "interner-test-beta");
  EXPECT_EQ(interner.Find("interner-test-alpha"), a);
  EXPECT_EQ(interner.Find("interner-test-never-interned"), kInvalidAttrId);
}

TEST(InternerTest, ReferencesStayStableAcrossGrowth) {
  auto& interner = StringInterner::Global();
  const AttrId id = interner.Intern("interner-stability-probe");
  const std::string* ptr = &interner.Get(id);
  for (int i = 0; i < 10000; ++i) {
    interner.Intern("interner-growth-" + std::to_string(i));
  }
  EXPECT_EQ(&interner.Get(id), ptr);  // Deque storage never moves strings.
  EXPECT_EQ(*ptr, "interner-stability-probe");
}

TEST(InternerTest, EmptyStringIsInternable) {
  auto& interner = StringInterner::Global();
  const AttrId id = interner.Intern("");
  EXPECT_EQ(interner.Get(id), "");
  EXPECT_EQ(interner.Intern(""), id);
}

// ---------------------------------------------------------------------------
// Flat hash containers
// ---------------------------------------------------------------------------

TEST(FlatHashTest, MapGrowthKeepsAllEntries) {
  FlatHashMap<uint64_t, uint64_t> m;
  for (uint64_t i = 0; i < 10000; ++i) m.emplace(i, i * 3);
  EXPECT_EQ(m.size(), 10000u);
  for (uint64_t i = 0; i < 10000; ++i) {
    const uint64_t* v = m.FindValue(i);
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i * 3);
  }
  EXPECT_FALSE(m.contains(10001));
}

TEST(FlatHashTest, MapMatchesStdReferenceUnderChurn) {
  FlatHashMap<uint64_t, uint64_t> m;
  std::unordered_map<uint64_t, uint64_t> ref;
  test::SeededRng rng(42);
  for (int i = 0; i < 50000; ++i) {
    // Small key range forces constant collision/erase/reinsert churn.
    const uint64_t key = rng.Uniform(512);
    switch (rng.Uniform(3)) {
      case 0:
        m.emplace(key, i);
        ref.emplace(key, i);
        break;
      case 1:
        m.InsertOrAssign(key, i);
        ref[key] = i;
        break;
      case 2:
        EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
        break;
    }
  }
  ASSERT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const uint64_t* mine = m.FindValue(k);
    ASSERT_NE(mine, nullptr) << k;
    EXPECT_EQ(*mine, v);
  }
  size_t iterated = 0;
  for (const auto& [k, v] : m) {
    ASSERT_TRUE(ref.contains(k));
    EXPECT_EQ(ref[k], v);
    ++iterated;
  }
  EXPECT_EQ(iterated, ref.size());
}

TEST(FlatHashTest, EraseBackwardShiftKeepsProbeChainsIntact) {
  // Sequential ids through the mixer land arbitrarily; erase every other key
  // and verify every survivor is still reachable (a broken backward shift
  // orphans keys whose probe chain crossed the hole).
  FlatHashSet<uint64_t> s;
  for (uint64_t i = 0; i < 4096; ++i) s.insert(i);
  for (uint64_t i = 0; i < 4096; i += 2) EXPECT_TRUE(s.erase(i));
  EXPECT_EQ(s.size(), 2048u);
  for (uint64_t i = 1; i < 4096; i += 2) EXPECT_TRUE(s.contains(i)) << i;
  for (uint64_t i = 0; i < 4096; i += 2) EXPECT_FALSE(s.contains(i)) << i;
}

TEST(FlatHashTest, SetMatchesStdReferenceUnderChurn) {
  FlatHashSet<uint64_t> s;
  std::unordered_set<uint64_t> ref;
  test::SeededRng rng(7);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t key = rng.Uniform(300);
    if (rng.Uniform(2) == 0) {
      EXPECT_EQ(s.insert(key), ref.insert(key).second);
    } else {
      EXPECT_EQ(s.erase(key), ref.erase(key) > 0);
    }
  }
  ASSERT_EQ(s.size(), ref.size());
  for (uint64_t k : ref) EXPECT_TRUE(s.contains(k));
  size_t iterated = 0;
  for (uint64_t k : s) {
    EXPECT_TRUE(ref.contains(k));
    ++iterated;
  }
  EXPECT_EQ(iterated, ref.size());
}

TEST(FlatHashTest, OrderIndependentEquality) {
  FlatHashMap<uint64_t, uint64_t> a, b;
  for (uint64_t i = 0; i < 100; ++i) a.emplace(i, i);
  for (uint64_t i = 100; i > 0; --i) b.emplace(i - 1, i - 1);
  b.reserve(4096);  // Different capacity, same contents.
  EXPECT_TRUE(a == b);
  b.InsertOrAssign(5, 999);
  EXPECT_TRUE(a != b);
}

TEST(FlatHashTest, NonTrivialValuesCopyAndDestroyCleanly) {
  FlatHashMap<uint64_t, AttrMap> m;
  for (uint64_t i = 0; i < 300; ++i) {
    AttrMap attrs;
    attrs.Set(1, static_cast<AttrId>(i));
    attrs.Set(2, static_cast<AttrId>(i + 1));
    m.InsertOrAssign(i, std::move(attrs));
  }
  FlatHashMap<uint64_t, AttrMap> copy = m;
  ASSERT_EQ(copy.size(), 300u);
  for (uint64_t i = 0; i < 300; ++i) {
    const AttrMap* attrs = copy.FindValue(i);
    ASSERT_NE(attrs, nullptr);
    EXPECT_EQ(attrs->Get(1), static_cast<AttrId>(i));
  }
  EXPECT_TRUE(copy == m);
  m.erase(5);
  EXPECT_FALSE(copy == m);
}

// ---------------------------------------------------------------------------
// DeltaStore decoded-object LRU
// ---------------------------------------------------------------------------

// One delta read through the store's batch path.
Result<std::shared_ptr<const Delta>> ReadDelta(const DeltaStore& store, DeltaId id,
                                               unsigned components,
                                               const ComponentSizes& sizes) {
  DeltaStore::BatchedRead read(id, components, sizes, /*is_eventlist=*/false);
  store.GetBatch({&read, 1});
  if (!read.status.ok()) return read.status;
  return read.delta;
}

TEST(DeltaStoreCacheTest, RepeatedGetHitsCacheAndSharesDecode) {
  auto kv = NewMemKVStore();
  DeltaStore store(kv.get());

  Snapshot empty;
  Snapshot g = MakeSample();
  Delta d = Delta::Between(g, empty);
  ComponentSizes sizes;
  const DeltaId id = store.AllocateId();
  ASSERT_TRUE(store.PutDelta(id, d, &sizes).ok());

  auto first = ReadDelta(store, id, kCompAll, sizes);
  ASSERT_TRUE(first.ok());
  auto second = ReadDelta(store, id, kCompAll, sizes);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get()) << "expected a cache hit";
  EXPECT_GE(store.decoded_cache_hits(), 1u);
  EXPECT_TRUE(*first.value() == d);

  // Different component masks are distinct cache entries.
  auto structs = ReadDelta(store, id, kCompStruct, sizes);
  ASSERT_TRUE(structs.ok());
  EXPECT_NE(structs.value().get(), first.value().get());
  EXPECT_TRUE(structs.value()->add_node_attrs.empty());

  // Re-putting the id invalidates its cached decodes.
  ASSERT_TRUE(store.PutDelta(id, Delta(), &sizes).ok());
  auto after = ReadDelta(store, id, kCompAll, sizes);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value()->IsEmpty());
}

TEST(DeltaStoreCacheTest, PutInvalidatesOnlyItsOwnId) {
  auto kv = NewMemKVStore();
  DeltaStore store(kv.get());
  const Delta d = Delta::Between(MakeSample(), Snapshot());
  ComponentSizes sizes_a, sizes_b;
  const DeltaId a = store.AllocateId();
  const DeltaId b = store.AllocateId();
  ASSERT_TRUE(store.PutDelta(a, d, &sizes_a).ok());
  ASSERT_TRUE(store.PutDelta(b, d, &sizes_b).ok());
  // Cache both ids under several component masks.
  for (unsigned comps : {unsigned{kCompAll}, unsigned{kCompStruct}}) {
    ASSERT_TRUE(ReadDelta(store, a, comps, sizes_a).ok());
    ASSERT_TRUE(ReadDelta(store, b, comps, sizes_b).ok());
  }
  // A put of a fresh id (the builder's case) and a re-put of `a` leave b's
  // decodes cached.
  ASSERT_TRUE(store.PutDelta(store.AllocateId(), d, &sizes_a).ok());
  ASSERT_TRUE(store.PutDelta(a, Delta(), &sizes_a).ok());
  const size_t hits = store.decoded_cache_hits();
  ASSERT_TRUE(ReadDelta(store, b, kCompAll, sizes_b).ok());
  ASSERT_TRUE(ReadDelta(store, b, kCompStruct, sizes_b).ok());
  EXPECT_EQ(store.decoded_cache_hits(), hits + 2);
  for (unsigned comps : {unsigned{kCompAll}, unsigned{kCompStruct}}) {
    auto after = ReadDelta(store, a, comps, sizes_a);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after.value()->IsEmpty());
  }
  EXPECT_EQ(store.decoded_cache_hits(), hits + 2);
}

TEST(DeltaStoreCacheTest, CapacityZeroDisables) {
  auto kv = NewMemKVStore();
  DeltaStore store(kv.get());
  store.SetDecodedCacheCapacity(0);

  Snapshot g = MakeSample();
  Delta d = Delta::Between(g, Snapshot());
  ComponentSizes sizes;
  const DeltaId id = store.AllocateId();
  ASSERT_TRUE(store.PutDelta(id, d, &sizes).ok());
  auto first = ReadDelta(store, id, kCompAll, sizes);
  auto second = ReadDelta(store, id, kCompAll, sizes);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first.value().get(), second.value().get());
  EXPECT_EQ(store.decoded_cache_hits(), 0u);
}

}  // namespace
}  // namespace hgdb

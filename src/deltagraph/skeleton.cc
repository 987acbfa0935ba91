#include "deltagraph/skeleton.h"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "codec/format.h"
#include "common/coding.h"

namespace hgdb {

int32_t Skeleton::AddNode(SkeletonNode node) {
  ++version_;
  node.id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(node);
  incident_.emplace_back();
  if (node.is_leaf) {
    // Leaves arrive chronologically from the builder and from Open's decode,
    // so this is a push_back; an out-of-order leaf is placed after every leaf
    // with a boundary at or before its own.
    const auto pos = std::upper_bound(
        leaves_.begin(), leaves_.end(), node.boundary_time,
        [this](Timestamp t, int32_t leaf) { return t < nodes_[leaf].boundary_time; });
    leaves_.insert(pos, node.id);
  }
  return node.id;
}

int32_t Skeleton::AddEdge(SkeletonEdge edge) {
  ++version_;
  edge.id = static_cast<int32_t>(edges_.size());
  edges_.push_back(edge);
  incident_[edge.from].push_back(edge.id);
  incident_[edge.to].push_back(edge.id);
  return edge.id;
}

void Skeleton::RemoveEdge(int32_t edge_id) {
  ++version_;
  SkeletonEdge& e = edges_[edge_id];
  if (e.deleted) return;
  e.deleted = true;
  auto drop = [edge_id](std::vector<int32_t>* v) {
    v->erase(std::remove(v->begin(), v->end(), edge_id), v->end());
  };
  drop(&incident_[e.from]);
  drop(&incident_[e.to]);
}

int Skeleton::FindLeafInterval(Timestamp t) const {
  if (leaves_.empty()) return -1;
  // Find the last leaf with boundary_time < t; the interval to its right
  // contains t. boundary(leaves[i]) < t <= boundary(leaves[i+1]).
  int lo = 0, hi = static_cast<int>(leaves_.size()) - 1, ans = -1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    if (nodes_[leaves_[mid]].boundary_time < t) {
      ans = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return ans;
}

int32_t Skeleton::FindEventlistEdge(int32_t left_leaf, int32_t right_leaf) const {
  for (int32_t eid : incident_[left_leaf]) {
    const SkeletonEdge& e = edges_[eid];
    if (e.is_eventlist && e.from == left_leaf && e.to == right_leaf) return eid;
  }
  return -1;
}

std::vector<int32_t> Skeleton::EventlistEdgesInOrder() const {
  std::vector<int32_t> out;
  for (size_t i = 0; i + 1 < leaves_.size(); ++i) {
    const int32_t eid = FindEventlistEdge(leaves_[i], leaves_[i + 1]);
    if (eid >= 0) out.push_back(eid);
  }
  return out;
}

uint64_t Skeleton::TotalBytes(unsigned components) const {
  uint64_t total = 0;
  for (const auto& e : edges_) {
    if (!e.deleted) total += e.sizes.TotalBytes(components);
  }
  return total;
}

// Skeleton blobs use the versioned columnar container (src/codec/format.h):
// header + framed column blocks, each a PutDeltaVarints column so runs of
// close values (levels, endpoints, monotone boundary times) encode as short
// deltas and large columns ride the block compressor. Signed boundary times
// are zigzagged into the unsigned column. Blobs written before this format
// (the pre-codec v0 row layout, a bare varint version 1) are still decoded
// by the legacy path below.
void Skeleton::EncodeTo(std::string* out) const {
  out->clear();
  codec::PutHeader(out, codec::kVersion1);

  const auto zigzag = [](int64_t v) {
    return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  };

  {
    std::string payload;
    PutVarint64(&payload, nodes_.size());
    std::vector<uint64_t> col(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) col[i] = static_cast<uint32_t>(nodes_[i].level);
    codec::PutDeltaVarints(col, &payload);
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const auto& n = nodes_[i];
      col[i] = (n.is_leaf ? 1u : 0u) | (n.is_super_root ? 2u : 0u) |
               (n.materialized ? 4u : 0u);
    }
    codec::PutDeltaVarints(col, &payload);
    for (size_t i = 0; i < nodes_.size(); ++i) col[i] = static_cast<uint32_t>(nodes_[i].hierarchy);
    codec::PutDeltaVarints(col, &payload);
    for (size_t i = 0; i < nodes_.size(); ++i) col[i] = zigzag(nodes_[i].boundary_time);
    codec::PutDeltaVarints(col, &payload);
    for (size_t i = 0; i < nodes_.size(); ++i) col[i] = nodes_[i].element_count;
    codec::PutDeltaVarints(col, &payload);
    codec::AppendBlock(codec::kBlockSkelNodes, Slice(payload), out);
  }
  {
    std::string payload;
    PutVarint64(&payload, edges_.size());
    std::vector<uint64_t> col(edges_.size());
    for (size_t i = 0; i < edges_.size(); ++i) col[i] = static_cast<uint32_t>(edges_[i].from);
    codec::PutDeltaVarints(col, &payload);
    for (size_t i = 0; i < edges_.size(); ++i) col[i] = static_cast<uint32_t>(edges_[i].to);
    codec::PutDeltaVarints(col, &payload);
    for (size_t i = 0; i < edges_.size(); ++i) {
      col[i] = (edges_[i].is_eventlist ? 1u : 0u) | (edges_[i].deleted ? 2u : 0u);
    }
    codec::PutDeltaVarints(col, &payload);
    for (size_t i = 0; i < edges_.size(); ++i) col[i] = edges_[i].delta_id;
    codec::PutDeltaVarints(col, &payload);
    for (int c = 0; c < kNumComponents; ++c) {
      for (size_t i = 0; i < edges_.size(); ++i) col[i] = edges_[i].sizes.bytes[c];
      codec::PutDeltaVarints(col, &payload);
    }
    for (int c = 0; c < kNumComponents; ++c) {
      for (size_t i = 0; i < edges_.size(); ++i) col[i] = edges_[i].sizes.elements[c];
      codec::PutDeltaVarints(col, &payload);
    }
    codec::AppendBlock(codec::kBlockSkelEdges, Slice(payload), out);
  }
  {
    std::string payload;
    PutVarint32(&payload, static_cast<uint32_t>(super_root_ + 1));
    codec::AppendBlock(codec::kBlockSkelMeta, Slice(payload), out);
  }
}

namespace {

// Reads one PutDeltaVarints column of exactly `count` entries.
Status GetColumn(Slice* in, size_t count, std::vector<uint64_t>* col,
                 const char* what) {
  HG_RETURN_NOT_OK(codec::GetDeltaVarints(in, col, what));
  if (col->size() != count) {
    return Status::Corruption(std::string("skeleton: column size mismatch: ") + what);
  }
  return Status::OK();
}

Status DecodeColumnar(const Slice& blob, Skeleton* out) {
  codec::BlockReader reader;
  std::unordered_map<uint8_t, Slice> blocks;
  HG_RETURN_NOT_OK(codec::ReadBlocks(blob, &reader, &blocks));
  const auto unzigzag = [](uint64_t v) {
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  };

  auto nodes_it = blocks.find(codec::kBlockSkelNodes);
  if (nodes_it == blocks.end()) return Status::Corruption("skeleton: missing node block");
  {
    Slice in = nodes_it->second;
    uint64_t count = 0;
    HG_RETURN_NOT_OK(ExpectVarint64(&in, &count, "skeleton node count"));
    std::vector<uint64_t> levels, flags, hierarchies, times, sizes;
    HG_RETURN_NOT_OK(GetColumn(&in, count, &levels, "skeleton node levels"));
    HG_RETURN_NOT_OK(GetColumn(&in, count, &flags, "skeleton node flags"));
    HG_RETURN_NOT_OK(GetColumn(&in, count, &hierarchies, "skeleton node hierarchies"));
    HG_RETURN_NOT_OK(GetColumn(&in, count, &times, "skeleton node times"));
    HG_RETURN_NOT_OK(GetColumn(&in, count, &sizes, "skeleton node sizes"));
    if (!in.empty()) return Status::Corruption("skeleton: node block trailing bytes");
    for (uint64_t i = 0; i < count; ++i) {
      SkeletonNode n;
      n.level = static_cast<int32_t>(levels[i]);
      n.is_leaf = flags[i] & 1;
      n.is_super_root = flags[i] & 2;
      n.materialized = false;  // Materialization is a runtime property.
      n.hierarchy = static_cast<int32_t>(hierarchies[i]);
      n.boundary_time = unzigzag(times[i]);
      n.element_count = sizes[i];
      out->AddNode(n);
    }
  }

  auto edges_it = blocks.find(codec::kBlockSkelEdges);
  if (edges_it == blocks.end()) return Status::Corruption("skeleton: missing edge block");
  {
    Slice in = edges_it->second;
    uint64_t count = 0;
    HG_RETURN_NOT_OK(ExpectVarint64(&in, &count, "skeleton edge count"));
    std::vector<uint64_t> from, to, flags, delta_ids;
    HG_RETURN_NOT_OK(GetColumn(&in, count, &from, "skeleton edge from"));
    HG_RETURN_NOT_OK(GetColumn(&in, count, &to, "skeleton edge to"));
    HG_RETURN_NOT_OK(GetColumn(&in, count, &flags, "skeleton edge flags"));
    HG_RETURN_NOT_OK(GetColumn(&in, count, &delta_ids, "skeleton delta ids"));
    std::array<std::vector<uint64_t>, kNumComponents> bytes, elements;
    for (int c = 0; c < kNumComponents; ++c) {
      HG_RETURN_NOT_OK(GetColumn(&in, count, &bytes[c], "skeleton edge bytes"));
    }
    for (int c = 0; c < kNumComponents; ++c) {
      HG_RETURN_NOT_OK(GetColumn(&in, count, &elements[c], "skeleton edge elements"));
    }
    if (!in.empty()) return Status::Corruption("skeleton: edge block trailing bytes");
    const size_t node_count = out->node_count();
    for (uint64_t i = 0; i < count; ++i) {
      SkeletonEdge e;
      if (from[i] >= node_count || to[i] >= node_count) {
        return Status::Corruption("skeleton: edge endpoint out of range");
      }
      e.from = static_cast<int32_t>(from[i]);
      e.to = static_cast<int32_t>(to[i]);
      e.is_eventlist = flags[i] & 1;
      e.delta_id = delta_ids[i];
      for (int c = 0; c < kNumComponents; ++c) {
        e.sizes.bytes[c] = bytes[c][i];
        e.sizes.elements[c] = elements[c][i];
      }
      const int32_t id = out->AddEdge(e);
      if (flags[i] & 2) out->RemoveEdge(id);
    }
  }

  auto meta_it = blocks.find(codec::kBlockSkelMeta);
  if (meta_it == blocks.end()) return Status::Corruption("skeleton: missing meta block");
  {
    Slice in = meta_it->second;
    uint32_t super_root_plus1 = 0;
    if (!GetVarint32(&in, &super_root_plus1)) {
      return Status::Corruption("skeleton super root");
    }
    if (super_root_plus1 > out->node_count()) {
      return Status::Corruption("skeleton: super root out of range");
    }
    out->SetSuperRoot(static_cast<int32_t>(super_root_plus1) - 1);
  }
  return Status::OK();
}

}  // namespace

Status Skeleton::DecodeFrom(const Slice& blob, Skeleton* out) {
  *out = Skeleton();
  if (codec::HasHeader(blob)) return DecodeColumnar(blob, out);
  // Legacy pre-codec v0 row layout (bare varint version tag).
  Slice in = blob;
  uint32_t version = 0;
  if (!GetVarint32(&in, &version) || version != 1) {
    return Status::Corruption("skeleton: bad version");
  }
  uint64_t node_count = 0;
  HG_RETURN_NOT_OK(ExpectVarint64(&in, &node_count, "skeleton node count"));
  for (uint64_t i = 0; i < node_count; ++i) {
    SkeletonNode n;
    uint32_t level = 0, hierarchy = 0;
    if (!GetVarint32(&in, &level)) return Status::Corruption("skeleton node level");
    if (in.empty()) return Status::Corruption("skeleton node flags");
    const unsigned char flags = static_cast<unsigned char>(in[0]);
    in.RemovePrefix(1);
    if (!GetVarint32(&in, &hierarchy)) return Status::Corruption("skeleton hierarchy");
    if (!GetVarsint64(&in, &n.boundary_time)) {
      return Status::Corruption("skeleton node time");
    }
    HG_RETURN_NOT_OK(ExpectVarint64(&in, &n.element_count, "skeleton node size"));
    n.level = static_cast<int32_t>(level);
    n.hierarchy = static_cast<int32_t>(hierarchy);
    n.is_leaf = flags & 1;
    n.is_super_root = flags & 2;
    n.materialized = false;  // Materialization is a runtime property.
    out->AddNode(n);
  }
  uint64_t edge_count = 0;
  HG_RETURN_NOT_OK(ExpectVarint64(&in, &edge_count, "skeleton edge count"));
  for (uint64_t i = 0; i < edge_count; ++i) {
    SkeletonEdge e;
    uint32_t from = 0, to = 0;
    if (!GetVarint32(&in, &from) || !GetVarint32(&in, &to)) {
      return Status::Corruption("skeleton edge endpoints");
    }
    if (in.empty()) return Status::Corruption("skeleton edge flags");
    const unsigned char flags = static_cast<unsigned char>(in[0]);
    in.RemovePrefix(1);
    e.from = static_cast<int32_t>(from);
    e.to = static_cast<int32_t>(to);
    e.is_eventlist = flags & 1;
    const bool deleted = flags & 2;
    HG_RETURN_NOT_OK(ExpectVarint64(&in, &e.delta_id, "skeleton delta id"));
    for (int c = 0; c < kNumComponents; ++c) {
      HG_RETURN_NOT_OK(ExpectVarint64(&in, &e.sizes.bytes[c], "skeleton edge bytes"));
    }
    for (int c = 0; c < kNumComponents; ++c) {
      HG_RETURN_NOT_OK(
          ExpectVarint64(&in, &e.sizes.elements[c], "skeleton edge elements"));
    }
    const int32_t id = out->AddEdge(e);
    if (deleted) out->RemoveEdge(id);
  }
  uint32_t super_root_plus1 = 0;
  if (!GetVarint32(&in, &super_root_plus1)) {
    return Status::Corruption("skeleton super root");
  }
  out->super_root_ = static_cast<int32_t>(super_root_plus1) - 1;
  if (!in.empty()) return Status::Corruption("skeleton: trailing bytes");
  return Status::OK();
}

}  // namespace hgdb

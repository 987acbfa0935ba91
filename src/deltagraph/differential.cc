#include "deltagraph/differential.h"

#include <cmath>
#include <functional>
#include <sstream>

#include "common/coding.h"

namespace hgdb {

namespace {

// ---------------------------------------------------------------------------
// Element-wise iteration helpers. Differential functions are defined over the
// element sets of Section 4.2 (nodes, edges, attribute triples); these
// helpers visit the elements of `to - from`.
// ---------------------------------------------------------------------------

struct ElementVisitor {
  std::function<void(NodeId)> node;
  std::function<void(EdgeId, const EdgeRecord&)> edge;
  std::function<void(NodeId, AttrId, AttrId)> nattr;  ///< (owner, key id, value id).
  std::function<void(EdgeId, AttrId, AttrId)> eattr;
};

// Visits every element of `to` that is not in `from` (value-sensitive for
// attributes: a changed value counts as an add of the new and a delete of the
// old element). Attribute values compare by interned id. Chunks the two
// snapshots share by pointer hold identical elements and are skipped.
void ForEachDiff(const Snapshot& to, const Snapshot& from, const ElementVisitor& v) {
  to.nodes().ForEachSymmetricDiff(from.nodes(), [&](NodeId n, bool in_to) {
    if (in_to) v.node(n);
  });
  to.edges().ForEachSymmetricDiff(
      from.edges(), [&](EdgeId id, const EdgeRecord& rec, bool in_to) {
        if (in_to) v.edge(id, rec);
      });
  auto attrs_diff = [](const auto& to_table, const auto& from_table, const auto& fn) {
    to_table.ForEachDivergentSlot(
        from_table, [&](uint64_t owner, const AttrMap* mine, const AttrMap* theirs) {
          if (mine == nullptr) return;
          for (const auto& [k, val] : *mine) {
            if ((theirs == nullptr ? kInvalidAttrId : theirs->Get(k)) != val) {
              fn(owner, k, val);
            }
          }
        });
  };
  attrs_diff(to.node_attrs(), from.node_attrs(), v.nattr);
  attrs_diff(to.edge_attrs(), from.edge_attrs(), v.eattr);
}

// Deterministic element-selection hashes (Section 5.2: "by using a hash
// function that maps the events to 0 or 1"; we generalize to a threshold on a
// 64-bit hash so any selection ratio r works, and we use the *same* hash for
// the delta and rho picks as the paper requires for the Balanced function).
uint64_t NodeHash(NodeId n) { return Mix64(n * 2654435761u + 0x9e37); }
uint64_t EdgeHash(EdgeId e) { return Mix64(e * 2654435761u + 0x79b9); }
uint64_t AttrHash(uint64_t owner, const std::string& key, bool node_side) {
  return HashBytes(key.data(), key.size(), Mix64(owner) ^ (node_side ? 0x1234 : 0x4321));
}

bool Selected(uint64_t h, double r) {
  if (r >= 1.0) return true;
  if (r <= 0.0) return false;
  return h < static_cast<uint64_t>(r * static_cast<double>(UINT64_MAX));
}

// Adds to `result` the selected fraction `r` of elements in `to - from`, and
// removes from `result` the selected fraction `r_del` of elements in
// `from - to`. This is one pairwise step of the Mixed/Skewed family.
void ApplySelectedDiff(Snapshot* result, const Snapshot& from, const Snapshot& to,
                       double r_add, double r_del) {
  ElementVisitor add{
      [&](NodeId n) {
        if (Selected(NodeHash(n), r_add) && !result->HasNode(n)) result->AddNode(n);
      },
      [&](EdgeId e, const EdgeRecord& rec) {
        if (Selected(EdgeHash(e), r_add) && !result->HasEdge(e)) result->AddEdge(e, rec);
      },
      [&](NodeId o, AttrId k, AttrId val) {
        // The selection hash stays over the key *string* so element picks are
        // stable across processes (interning order is run-dependent).
        if (Selected(AttrHash(o, AttrStr(k), true), r_add)) {
          result->SetNodeAttrId(o, k, val);
        }
      },
      [&](EdgeId o, AttrId k, AttrId val) {
        if (Selected(AttrHash(o, AttrStr(k), false), r_add)) {
          result->SetEdgeAttrId(o, k, val);
        }
      }};
  ForEachDiff(to, from, add);
  ElementVisitor del{
      [&](NodeId n) {
        if (Selected(NodeHash(n), r_del)) result->RemoveNode(n);
      },
      [&](EdgeId e, const EdgeRecord&) {
        if (Selected(EdgeHash(e), r_del)) result->RemoveEdge(e);
      },
      [&](NodeId o, AttrId k, AttrId val) {
        // Only remove if the value is still the one being deleted; a value
        // change pairs a delete of the old with an add of the new.
        if (result->GetNodeAttrValueId(o, k) == val &&
            Selected(AttrHash(o, AttrStr(k), true), r_del)) {
          result->RemoveNodeAttrId(o, k);
        }
      },
      [&](EdgeId o, AttrId k, AttrId val) {
        if (result->GetEdgeAttrValueId(o, k) == val &&
            Selected(AttrHash(o, AttrStr(k), false), r_del)) {
          result->RemoveEdgeAttrId(o, k);
        }
      }};
  ForEachDiff(from, to, del);
}

// ---------------------------------------------------------------------------
// Concrete functions
// ---------------------------------------------------------------------------

class IntersectionFunction final : public DifferentialFunction {
 public:
  std::string name() const override { return "intersection"; }
  Snapshot Combine(const std::vector<const Snapshot*>& children) const override {
    Snapshot out = *children[0];
    for (size_t i = 1; i < children.size(); ++i) {
      out = Snapshot::Intersect(out, *children[i]);
    }
    return out;
  }
};

class UnionFunction final : public DifferentialFunction {
 public:
  std::string name() const override { return "union"; }
  Snapshot Combine(const std::vector<const Snapshot*>& children) const override {
    // Note: element sets with conflicting attribute values are not
    // representable in a Snapshot's single-valued attribute maps; the newest
    // child wins. This only affects delta sizes, never reconstruction
    // correctness (deltas are diffs against the actual parent content).
    Snapshot out = *children[0];
    for (size_t i = 1; i < children.size(); ++i) {
      // Snapshot the accumulator: ApplySelectedDiff must not iterate the
      // container it mutates.
      const Snapshot base = out;
      ApplySelectedDiff(&out, base, *children[i], /*r_add=*/1.0, /*r_del=*/0.0);
    }
    return out;
  }
};

class EmptyFunction final : public DifferentialFunction {
 public:
  std::string name() const override { return "empty"; }
  Snapshot Combine(const std::vector<const Snapshot*>&) const override {
    return Snapshot();
  }
};

class MixedFunction final : public DifferentialFunction {
 public:
  MixedFunction(double r1, double r2, std::string display_name)
      : r1_(r1), r2_(r2), name_(std::move(display_name)) {}

  std::string name() const override { return name_; }

  Snapshot Combine(const std::vector<const Snapshot*>& children) const override {
    // p = c1 + r1·(δ_c1c2 + δ_c2c3 + ...) − r2·(ρ_c1c2 + ρ_c2c3 + ...)
    Snapshot out = *children[0];
    for (size_t i = 0; i + 1 < children.size(); ++i) {
      ApplySelectedDiff(&out, *children[i], *children[i + 1], r1_, r2_);
    }
    return out;
  }

 private:
  double r1_, r2_;
  std::string name_;
};

class SkewedFunction final : public DifferentialFunction {
 public:
  explicit SkewedFunction(double r) : r_(r) {}

  std::string name() const override {
    std::ostringstream os;
    os << "skewed:" << r_;
    return os.str();
  }

  Snapshot Combine(const std::vector<const Snapshot*>& children) const override {
    // f(a, b) = a + r·(b − a), where (b − a) is the full delta (inserts and
    // deletes), so r = 1 yields exactly b. Folds pairwise for arity > 2.
    Snapshot out = *children[0];
    for (size_t i = 1; i < children.size(); ++i) {
      const Snapshot base = out;  // Never iterate the container being mutated.
      ApplySelectedDiff(&out, base, *children[i], r_, r_);
    }
    return out;
  }

 private:
  double r_;
};

class SideSkewedFunction final : public DifferentialFunction {
 public:
  SideSkewedFunction(double r, bool right) : r_(r), right_(right) {}

  std::string name() const override {
    std::ostringstream os;
    os << (right_ ? "rightskewed:" : "leftskewed:") << r_;
    return os.str();
  }

  Snapshot Combine(const std::vector<const Snapshot*>& children) const override {
    // Right: f(a, b) = a∩b + r·(b − a∩b); Left: f(a, b) = a∩b + r·(a − a∩b).
    Snapshot out = *children[0];
    for (size_t i = 1; i < children.size(); ++i) {
      const Snapshot& b = *children[i];
      Snapshot result = Snapshot::Intersect(out, b);
      const Snapshot base = result;  // Stable copy: see ApplySelectedDiff.
      const Snapshot& extra_from = right_ ? b : out;
      ApplySelectedDiff(&result, base, extra_from, r_, 0.0);
      out = std::move(result);
    }
    return out;
  }

 private:
  double r_;
  bool right_;
};

}  // namespace

std::unique_ptr<DifferentialFunction> MakeIntersectionFunction() {
  return std::make_unique<IntersectionFunction>();
}

std::unique_ptr<DifferentialFunction> MakeUnionFunction() {
  return std::make_unique<UnionFunction>();
}

std::unique_ptr<DifferentialFunction> MakeEmptyFunction() {
  return std::make_unique<EmptyFunction>();
}

std::unique_ptr<DifferentialFunction> MakeMixedFunction(double r1, double r2) {
  std::ostringstream os;
  os << "mixed:" << r1 << ":" << r2;
  return std::make_unique<MixedFunction>(r1, r2, os.str());
}

std::unique_ptr<DifferentialFunction> MakeBalancedFunction() {
  return std::make_unique<MixedFunction>(0.5, 0.5, "balanced");
}

std::unique_ptr<DifferentialFunction> MakeSkewedFunction(double r) {
  return std::make_unique<SkewedFunction>(r);
}

std::unique_ptr<DifferentialFunction> MakeRightSkewedFunction(double r) {
  return std::make_unique<SideSkewedFunction>(r, /*right=*/true);
}

std::unique_ptr<DifferentialFunction> MakeLeftSkewedFunction(double r) {
  return std::make_unique<SideSkewedFunction>(r, /*right=*/false);
}

Result<std::unique_ptr<DifferentialFunction>> MakeDifferentialFunction(
    const std::string& spec) {
  auto parse_params = [](const std::string& s, size_t pos,
                         std::vector<double>* out) -> bool {
    while (pos < s.size()) {
      size_t next = s.find(':', pos);
      if (next == std::string::npos) next = s.size();
      try {
        out->push_back(std::stod(s.substr(pos, next - pos)));
      } catch (...) {
        return false;
      }
      pos = next + 1;
    }
    return true;
  };

  if (spec == "intersection") return MakeIntersectionFunction();
  if (spec == "union") return MakeUnionFunction();
  if (spec == "empty") return MakeEmptyFunction();
  if (spec == "balanced") return MakeBalancedFunction();
  std::vector<double> params;
  if (spec.rfind("mixed:", 0) == 0 && parse_params(spec, 6, &params) &&
      params.size() == 2) {
    if (params[1] > params[0] || params[0] > 1.0 || params[1] < 0.0) {
      return Status::InvalidArgument("mixed requires 0 <= r2 <= r1 <= 1: " + spec);
    }
    return MakeMixedFunction(params[0], params[1]);
  }
  if (spec.rfind("skewed:", 0) == 0 && parse_params(spec, 7, &params) &&
      params.size() == 1) {
    return MakeSkewedFunction(params[0]);
  }
  if (spec.rfind("rightskewed:", 0) == 0 && parse_params(spec, 12, &params) &&
      params.size() == 1) {
    return MakeRightSkewedFunction(params[0]);
  }
  if (spec.rfind("leftskewed:", 0) == 0 && parse_params(spec, 11, &params) &&
      params.size() == 1) {
    return MakeLeftSkewedFunction(params[0]);
  }
  return Status::InvalidArgument("unknown differential function: " + spec);
}

}  // namespace hgdb

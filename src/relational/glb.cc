#include "relational/glb.h"

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "relational/columnar.h"

namespace dxrec {

namespace {

// Memoizes iota(x, y) for x != y within one glb computation.
class Pairing {
 public:
  explicit Pairing(NullSource* source) : source_(source) {}

  Term Pair(Term x, Term y) {
    if (x == y) return x;
    PairKey pk{x, y};
    auto it = memo_.find(pk);
    if (it != memo_.end()) return it->second;
    Term fresh = source_->Fresh();
    memo_.emplace(pk, fresh);
    return fresh;
  }

 private:
  struct PairKey {
    Term x, y;
    friend bool operator==(const PairKey& a, const PairKey& b) {
      return a.x == b.x && a.y == b.y;
    }
  };
  struct PairKeyHash {
    size_t operator()(const PairKey& k) const {
      return TermHash()(k.x) * 0x9e3779b97f4a7c15ull + TermHash()(k.y);
    }
  };
  NullSource* source_;
  std::unordered_map<PairKey, Term, PairKeyHash> memo_;
};

}  // namespace

Instance Glb(const Instance& a, const Instance& b, NullSource* source) {
  Pairing iota(source);
  Instance out;
  const ColumnarInstance& columnar = b.Columnar();
  std::vector<Term> args;
  for (const Atom& ta : a.atoms()) {
    // A full scan of b's rows for ta's relation, in insertion order.
    std::span<const uint32_t> locals = columnar.Rows(ta.relation());
    if (locals.empty()) continue;
    const std::vector<uint32_t>& rows =
        columnar.Relation(ta.relation())->rows();
    for (uint32_t local : locals) {
      const Atom& tb = b.atoms()[rows[local]];
      if (tb.arity() != ta.arity()) continue;
      args.clear();
      for (uint32_t i = 0; i < ta.arity(); ++i) {
        args.push_back(iota.Pair(ta.arg(i), tb.arg(i)));
      }
      out.Add(Atom(ta.relation(), args));
    }
  }
  return out;
}

Instance GlbAll(const std::vector<Instance>& instances, NullSource* source) {
  if (instances.empty()) return Instance();
  Instance acc = instances[0];
  for (size_t i = 1; i < instances.size(); ++i) {
    acc = Glb(acc, instances[i], source);
  }
  return acc;
}

}  // namespace dxrec

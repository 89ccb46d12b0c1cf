#include "relational/instance.h"

#include <algorithm>

#include "obs/stats.h"
#include "relational/columnar.h"

namespace dxrec {

namespace {
// Shared empty vector for relation misses.
const std::vector<uint32_t>& EmptyIndexVector() {
  static const std::vector<uint32_t>& empty = *new std::vector<uint32_t>();
  return empty;
}
}  // namespace

Instance::Instance(std::initializer_list<Atom> atoms) {
  for (const Atom& a : atoms) Add(a);
}

bool Instance::Add(const Atom& atom) {
  auto [it, inserted] = set_.insert(atom);
  if (!inserted) return false;
  uint32_t idx = static_cast<uint32_t>(atoms_.size());
  atoms_.push_back(atom);
  by_relation_[atom.relation()].push_back(idx);
  columnar_.reset();
  return true;
}

void Instance::AddAll(const Instance& other) {
  for (const Atom& a : other.atoms_) Add(a);
}

void Instance::AddAll(const std::vector<Atom>& atoms) {
  for (const Atom& a : atoms) Add(a);
}

bool Instance::ContainsAll(const Instance& other) const {
  for (const Atom& a : other.atoms_) {
    if (!Contains(a)) return false;
  }
  return true;
}

const std::vector<uint32_t>& Instance::AtomsFor(RelationId rel) const {
  obs::stats::NoteFullScan();
  auto it = by_relation_.find(rel);
  if (it == by_relation_.end()) return EmptyIndexVector();
  return it->second;
}

std::vector<Term> Instance::Dom() const {
  std::vector<Term> out;
  std::unordered_set<Term, TermHash> seen;
  for (const Atom& a : atoms_) {
    for (Term t : a.args()) {
      if (seen.insert(t).second) out.push_back(t);
    }
  }
  return out;
}

std::vector<Term> Instance::TermsOfKind(TermKind kind) const {
  std::vector<Term> out;
  std::unordered_set<Term, TermHash> seen;
  for (const Atom& a : atoms_) {
    for (Term t : a.args()) {
      if (t.kind() == kind && seen.insert(t).second) out.push_back(t);
    }
  }
  return out;
}

bool Instance::IsGround() const {
  for (const Atom& a : atoms_) {
    if (!a.IsGround()) return false;
  }
  return true;
}

std::vector<RelationId> Instance::Relations() const {
  std::vector<RelationId> out;
  for (const auto& [rel, indices] : by_relation_) {
    if (!indices.empty()) out.push_back(rel);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Instance Instance::Apply(const Substitution& s) const {
  Instance out;
  for (const Atom& a : atoms_) out.Add(a.Apply(s));
  return out;
}

Instance Instance::Restrict(const Schema& schema) const {
  Instance out;
  for (const Atom& a : atoms_) {
    if (schema.Contains(a.relation())) out.Add(a);
  }
  return out;
}

Instance Instance::Union(const Instance& a, const Instance& b) {
  Instance out = a;
  out.AddAll(b);
  return out;
}

Instance Instance::Difference(const Instance& a, const Instance& b) {
  Instance out;
  for (const Atom& atom : a.atoms_) {
    if (!b.Contains(atom)) out.Add(atom);
  }
  return out;
}

bool operator==(const Instance& a, const Instance& b) {
  return a.set_ == b.set_;
}

std::string Instance::ToString() const {
  std::vector<Atom> sorted = atoms_;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  bool first = true;
  for (const Atom& a : sorted) {
    if (!first) out += ", ";
    first = false;
    out += a.ToString();
  }
  out += "}";
  return out;
}

const ColumnarInstance& Instance::Columnar() const {
  if (columnar_ == nullptr) {
    columnar_ = std::make_shared<const ColumnarInstance>(*this);
  }
  return *columnar_;
}

}  // namespace dxrec

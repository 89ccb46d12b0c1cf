#include "relational/instance.h"

#include <algorithm>
#include <unordered_set>

#include "relational/columnar.h"

namespace dxrec {

namespace {

// AtomHash folded to 32 bits through a multiplicative mix, so the low
// bits that pick a slot depend on every input bit.
uint32_t SlotHash(const Atom& atom) {
  return static_cast<uint32_t>((AtomHash()(atom) * 0x9e3779b97f4a7c15ull) >>
                               32);
}

}  // namespace

Instance::Instance(std::initializer_list<Atom> atoms) {
  for (const Atom& a : atoms) Add(a);
}

size_t Instance::FindSlot(const Atom& atom, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.index == kEmptySlot ||
        (slot.hash == hash && atoms_[slot.index] == atom)) {
      return i;
    }
  }
}

void Instance::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 8 : 2 * old.size(), Slot{kEmptySlot, 0});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.index == kEmptySlot) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].index != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::optional<uint32_t> Instance::IndexOf(const Atom& atom) const {
  if (slots_.empty()) return std::nullopt;
  const uint32_t index = slots_[FindSlot(atom, SlotHash(atom))].index;
  if (index == kEmptySlot) return std::nullopt;
  return index;
}

bool Instance::Add(const Atom& atom) {
  const uint32_t hash = SlotHash(atom);
  size_t i = 0;
  if (!slots_.empty()) {
    i = FindSlot(atom, hash);
    if (slots_[i].index != kEmptySlot) return false;
  }
  if (2 * (atoms_.size() + 1) > slots_.size()) {
    Grow();
    i = FindSlot(atom, hash);
  }
  slots_[i] = {static_cast<uint32_t>(atoms_.size()), hash};
  atoms_.push_back(atom);
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
  return a.size() == b.size() && a.ContainsAll(b);
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

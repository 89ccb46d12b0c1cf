#include "relational/tuple.h"

#include <algorithm>
#include <memory>
#include <new>

namespace dxrec {

Atom::Atom(RelationId rel, uint32_t arity) : rel_(rel), arity_(arity) {
  if (!is_inline()) {
    storage_.heap = static_cast<Term*>(::operator new(arity * sizeof(Term)));
  }
}

Atom::Atom(RelationId rel, std::span<const Term> args)
    : Atom(rel, static_cast<uint32_t>(args.size())) {
  std::uninitialized_copy(args.begin(), args.end(), mutable_data());
}

Atom::Atom(const Atom& other) : Atom(other.rel_, other.args()) {}

Atom::Atom(Atom&& other) noexcept
    : rel_(other.rel_), arity_(other.arity_), storage_(other.storage_) {
  other.Disown();
}

Atom& Atom::operator=(const Atom& other) {
  if (this != &other) *this = Atom(other);
  return *this;
}

Atom& Atom::operator=(Atom&& other) noexcept {
  if (this != &other) {
    Release();
    rel_ = other.rel_;
    arity_ = other.arity_;
    storage_ = other.storage_;
    other.Disown();
  }
  return *this;
}

void Atom::Disown() {
  // A spilled block has changed owner: the source is left empty.
  if (!is_inline()) {
    arity_ = 0;
    storage_ = Storage();
  }
}

void Atom::Release() {
  if (!is_inline()) ::operator delete(storage_.heap);
}

Atom Atom::Make(std::string_view relation, std::span<const Term> args) {
  return Atom(InternRelation(relation), args);
}

bool operator==(const Atom& a, const Atom& b) {
  if (a.rel_ != b.rel_ || a.arity_ != b.arity_) return false;
  return std::equal(a.data(), a.data() + a.arity_, b.data());
}

bool operator<(const Atom& a, const Atom& b) {
  if (a.rel_ != b.rel_) return a.rel_ < b.rel_;
  return std::lexicographical_compare(a.data(), a.data() + a.arity_,
                                      b.data(), b.data() + b.arity_);
}

bool Atom::IsFact() const {
  for (Term t : args()) {
    if (t.is_variable()) return false;
  }
  return true;
}

bool Atom::IsGround() const {
  for (Term t : args()) {
    if (!t.is_constant()) return false;
  }
  return true;
}

Atom Atom::Apply(const Substitution& s) const {
  Atom out(rel_, arity_);
  const Term* in = data();
  Term* images = out.mutable_data();
  for (uint32_t i = 0; i < arity_; ++i) new (images + i) Term(s.Apply(in[i]));
  return out;
}

void Atom::CollectTerms(TermKind kind, std::vector<Term>* out) const {
  for (Term t : args()) {
    if (t.kind() == kind) out->push_back(t);
  }
}

std::string Atom::ToString() const {
  std::string out = RelationName(rel_) + "(";
  bool first = true;
  for (Term t : args()) {
    if (!first) out += ", ";
    first = false;
    out += t.ToString();
  }
  out += ")";
  return out;
}

}  // namespace dxrec

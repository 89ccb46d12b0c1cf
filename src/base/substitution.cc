#include "base/substitution.h"

#include <algorithm>

namespace dxrec {

Substitution::Substitution(std::initializer_list<Binding> bindings) {
  for (const auto& [from, to] : bindings) Set(from, to);
}

Substitution::Substitution(const Substitution& other)
    : bindings_(other.bindings_),
      index_(other.index_ == nullptr ? nullptr
                                     : std::make_unique<Index>(*other.index_)) {
}

Substitution& Substitution::operator=(const Substitution& other) {
  if (this != &other) {
    bindings_ = other.bindings_;
    index_ = other.index_ == nullptr ? nullptr
                                     : std::make_unique<Index>(*other.index_);
  }
  return *this;
}

Substitution Substitution::FromDistinct(std::vector<Binding> bindings) {
  Substitution out;
  out.bindings_ = std::move(bindings);
  if (out.bindings_.size() > kLinearMax) out.RebuildIndex();
  return out;
}

const Substitution::Binding* Substitution::Find(Term t) const {
  if (index_ == nullptr) {
    for (const Binding& b : bindings_) {
      if (b.first == t) return &b;
    }
    return nullptr;
  }
  for (size_t i = TermHash()(t) & index_->mask();;
       i = (i + 1) & index_->mask()) {
    const uint32_t pos = index_->slots[i];
    if (pos == Index::kEmpty) return nullptr;
    if (bindings_[pos].first == t) return &bindings_[pos];
  }
}

void Substitution::IndexPosition(uint32_t pos) {
  size_t i = TermHash()(bindings_[pos].first) & index_->mask();
  while (index_->slots[i] != Index::kEmpty) i = (i + 1) & index_->mask();
  index_->slots[i] = pos;
}

void Substitution::RebuildIndex() {
  size_t capacity = 2 * kLinearMax;
  while (capacity < 2 * bindings_.size()) capacity *= 2;
  if (index_ == nullptr) index_ = std::make_unique<Index>();
  index_->slots.assign(capacity, Index::kEmpty);
  for (uint32_t pos = 0; pos < bindings_.size(); ++pos) IndexPosition(pos);
}

void Substitution::Append(Term from, Term to) {
  bindings_.emplace_back(from, to);
  if (bindings_.size() <= kLinearMax) return;
  if (index_ == nullptr || 2 * bindings_.size() > index_->slots.size()) {
    RebuildIndex();
  } else {
    IndexPosition(static_cast<uint32_t>(bindings_.size() - 1));
  }
}

void Substitution::Set(Term from, Term to) {
  // Find returns a pointer into bindings_; overwriting in place keeps the
  // index valid.
  const Binding* b = Find(from);
  if (b != nullptr) {
    bindings_[b - bindings_.data()].second = to;
  } else {
    Append(from, to);
  }
}

std::vector<Term> Substitution::Apply(const std::vector<Term>& terms) const {
  std::vector<Term> out;
  out.reserve(terms.size());
  for (Term t : terms) out.push_back(Apply(t));
  return out;
}

bool Substitution::Unify(Term from, Term to) {
  const Binding* b = Find(from);
  if (b != nullptr) return b->second == to;
  Append(from, to);
  return true;
}

bool Substitution::Extends(const Substitution& other) const {
  for (const auto& [from, to] : other.bindings_) {
    const Binding* b = Find(from);
    if (b == nullptr || b->second != to) return false;
  }
  return true;
}

bool Substitution::MergeFrom(const Substitution& other) {
  for (const auto& [from, to] : other.bindings_) {
    if (!Unify(from, to)) return false;
  }
  return true;
}

std::string Substitution::ToString() const {
  std::vector<Binding> sorted = bindings_;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out = "{";
  bool first = true;
  for (const auto& [from, to] : sorted) {
    if (!first) out += ", ";
    first = false;
    out += from.ToString() + "/" + to.ToString();
  }
  out += "}";
  return out;
}

}  // namespace dxrec

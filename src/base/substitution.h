// Finite mappings on terms (Sec. 2 of the paper): homomorphisms, triggers,
// and the theta-mappings of subsumption constraints are all represented as
// Substitutions. A Substitution acts as the identity outside its domain, so
// "identity on Cons" holds automatically as long as no constant is bound.
//
// Storage is a flat vector of (from, to) bindings in insertion order.
// Lookups scan it linearly while it is small; past kLinearMax bindings a
// mutation builds an open-addressing index beside it. No const method
// mutates, so concurrent readers of one Substitution are safe.
#ifndef DXREC_BASE_SUBSTITUTION_H_
#define DXREC_BASE_SUBSTITUTION_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/term.h"

namespace dxrec {

class Substitution {
 public:
  using Binding = std::pair<Term, Term>;

  Substitution() = default;
  Substitution(std::initializer_list<Binding> bindings);
  Substitution(const Substitution& other);
  Substitution(Substitution&& other) noexcept = default;
  Substitution& operator=(const Substitution& other);
  Substitution& operator=(Substitution&& other) noexcept = default;

  // Builds the mapping from bindings whose domain terms are pairwise
  // distinct (the caller guarantees it; no lookups are made).
  static Substitution FromDistinct(std::vector<Binding> bindings);

  // Binds `from` to `to`, overwriting any previous binding.
  void Set(Term from, Term to);

  // Applies the mapping: the bound image, or `t` itself if unbound.
  Term Apply(Term t) const {
    const Binding* b = Find(t);
    return b == nullptr ? t : b->second;
  }
  std::vector<Term> Apply(const std::vector<Term>& terms) const;

  // True if `t` is in the explicit domain.
  bool Binds(Term t) const { return Find(t) != nullptr; }

  // Binds `from`->`to` only if compatible with any existing binding.
  // Returns false (and leaves the map unchanged) on conflict.
  bool Unify(Term from, Term to);

  // True if every binding of `other` is present and equal in *this.
  bool Extends(const Substitution& other) const;

  // Merges the bindings of `other` into *this. Returns false on any
  // conflicting binding (in which case *this may be partially updated;
  // callers that need atomicity should copy first).
  bool MergeFrom(const Substitution& other);

  size_t size() const { return bindings_.size(); }
  bool empty() const { return bindings_.empty(); }

  // Deterministic "{x/a, y/b}" rendering, sorted by domain term.
  std::string ToString() const;

  // Set equality of the bindings; insertion order does not matter.
  friend bool operator==(const Substitution& a, const Substitution& b) {
    return a.size() == b.size() && a.Extends(b);
  }

 private:
  // Bindings up to this count are looked up by linear scan.
  static constexpr size_t kLinearMax = 16;

  // Linear-probing table of positions into bindings_, keyed by the
  // domain term. Capacity is a power of two at least twice size().
  struct Index {
    static constexpr uint32_t kEmpty = 0xffffffffu;
    std::vector<uint32_t> slots;

    size_t mask() const { return slots.size() - 1; }
  };

  const Binding* Find(Term t) const;
  // Appends a binding for an unbound `from`, keeping the index current.
  void Append(Term from, Term to);
  // Enters bindings_[pos] into the (large enough) index.
  void IndexPosition(uint32_t pos);
  void RebuildIndex();

  std::vector<Binding> bindings_;
  // Open-addressing table over bindings_; null while size() <= kLinearMax.
  std::unique_ptr<Index> index_;
};

}  // namespace dxrec

#endif  // DXREC_BASE_SUBSTITUTION_H_

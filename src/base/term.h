// Terms populate tuples and atoms. Following the paper (Sec. 2):
//   - constants  (the set Cons),
//   - labeled nulls (the set Nulls, disjoint from Cons) -- appear in
//     instances produced by the chase,
//   - variables  -- appear in dependencies and queries; when a conjunction
//     of atoms is viewed as an instance, each variable plays the role of a
//     null value.
#ifndef DXREC_BASE_TERM_H_
#define DXREC_BASE_TERM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace dxrec {

enum class TermKind : uint8_t {
  kConstant = 0,
  kNull = 1,
  kVariable = 2,
};

// An interned term. Trivially copyable; 8 bytes.
class Term {
 public:
  // Variable ids from here up are never interned: they name variables
  // renamed apart by a VariableRenamer (base/fresh.h), and the variable
  // symbol table refuses to reach this id.
  static constexpr uint32_t kFirstRenamedVariableId = 1u << 31;

  // Default-constructed terms are an invalid sentinel; using one in an
  // instance or atom is a bug.
  Term() : kind_(TermKind::kConstant), id_(kInvalidId) {}

  // Interns `name` as a constant and returns the term.
  static Term Constant(std::string_view name);
  // Interns `name` as a variable and returns the term.
  static Term Variable(std::string_view name);
  // A labeled null with the given label. Fresh labels come from
  // FreshNulls() (base/fresh.h).
  static Term Null(uint32_t label);

  static Term FromIds(TermKind kind, uint32_t id) { return Term(kind, id); }

  TermKind kind() const { return kind_; }
  uint32_t id() const { return id_; }

  bool is_constant() const { return kind_ == TermKind::kConstant; }
  bool is_null() const { return kind_ == TermKind::kNull; }
  bool is_variable() const { return kind_ == TermKind::kVariable; }
  bool is_valid() const { return id_ != kInvalidId; }

  // Name for constants/variables; "_N<label>" for nulls; "$r<n>" for
  // the variable with id kFirstRenamedVariableId + n.
  std::string ToString() const;

  friend bool operator==(Term a, Term b) {
    return a.kind_ == b.kind_ && a.id_ == b.id_;
  }
  friend bool operator!=(Term a, Term b) { return !(a == b); }
  friend bool operator<(Term a, Term b) {
    if (a.kind_ != b.kind_) return a.kind_ < b.kind_;
    return a.id_ < b.id_;
  }

  // A 64-bit key that totally orders terms; handy for hashing.
  uint64_t Key() const {
    return (static_cast<uint64_t>(kind_) << 32) | id_;
  }

 private:
  static constexpr uint32_t kInvalidId = 0xffffffffu;

  Term(TermKind kind, uint32_t id) : kind_(kind), id_(id) {}

  TermKind kind_;
  uint32_t id_;
};

struct TermHash {
  size_t operator()(Term t) const {
    // splitmix64-style mix of the 64-bit key.
    uint64_t x = t.Key() + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(x ^ (x >> 31));
  }
};

}  // namespace dxrec

namespace std {
template <>
struct hash<dxrec::Term> {
  size_t operator()(dxrec::Term t) const { return dxrec::TermHash()(t); }
};
}  // namespace std

#endif  // DXREC_BASE_TERM_H_

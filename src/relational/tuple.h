// Atoms: a relation symbol applied to a sequence of terms.
//
// The same type serves two roles, mirroring the paper's convention of
// viewing a conjunction of atoms as an instance (Sec. 2):
//   - a *fact* (tuple) in an instance, whose terms are constants and nulls;
//   - a formula atom in a tgd body/head or query, whose terms are constants
//     and variables.
//
// The arguments are immutable once built. Up to kInlineArgs of them are
// stored in place; a wider atom keeps them in one exact-size heap block.
#ifndef DXREC_RELATIONAL_TUPLE_H_
#define DXREC_RELATIONAL_TUPLE_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "base/substitution.h"
#include "base/term.h"
#include "relational/schema.h"

namespace dxrec {

class Atom {
 public:
  Atom() : rel_(0), arity_(0) {}
  Atom(RelationId rel, std::span<const Term> args);
  Atom(RelationId rel, std::initializer_list<Term> args)
      : Atom(rel, std::span<const Term>(args.begin(), args.size())) {}
  Atom(const Atom& other);
  Atom(Atom&& other) noexcept;
  Atom& operator=(const Atom& other);
  Atom& operator=(Atom&& other) noexcept;
  ~Atom() { Release(); }

  // Convenience: interns `relation` and builds the atom.
  static Atom Make(std::string_view relation, std::span<const Term> args);
  static Atom Make(std::string_view relation,
                   std::initializer_list<Term> args) {
    return Make(relation, std::span<const Term>(args.begin(), args.size()));
  }

  RelationId relation() const { return rel_; }
  std::span<const Term> args() const { return {data(), arity_}; }
  uint32_t arity() const { return arity_; }
  Term arg(size_t i) const { return data()[i]; }

  // True if no argument is a variable (i.e. this is a fact).
  bool IsFact() const;
  // True if every argument is a constant.
  bool IsGround() const;

  // Applies `s` to every argument.
  Atom Apply(const Substitution& s) const;

  // Collects argument terms of the given kind into `out` (deduplicated by
  // the caller if needed).
  void CollectTerms(TermKind kind, std::vector<Term>* out) const;

  // "R(a, x, _N3)".
  std::string ToString() const;

  friend bool operator==(const Atom& a, const Atom& b);
  friend bool operator!=(const Atom& a, const Atom& b) { return !(a == b); }
  friend bool operator<(const Atom& a, const Atom& b);

 private:
  static constexpr uint32_t kInlineArgs = 3;

  // An atom of the given shape whose arguments are still unwritten;
  // mutable_data() hands them out.
  Atom(RelationId rel, uint32_t arity);

  bool is_inline() const { return arity_ <= kInlineArgs; }
  const Term* data() const {
    return is_inline() ? storage_.terms : storage_.heap;
  }
  Term* mutable_data() { return is_inline() ? storage_.terms : storage_.heap; }
  void Release();
  // After a move out of *this: forgets a spilled block's address.
  void Disown();

  RelationId rel_;
  uint32_t arity_;
  // `terms` is the active member while is_inline(), `heap` otherwise.
  union Storage {
    Storage() : terms{} {}
    Term terms[kInlineArgs];
    Term* heap;
  } storage_;
};

static_assert(sizeof(Atom) <= 32, "Atom must stay within 32 bytes");

struct AtomHash {
  size_t operator()(const Atom& a) const {
    size_t h = std::hash<uint32_t>()(a.relation());
    for (Term t : a.args()) {
      h ^= TermHash()(t) + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    return h;
  }
};

// In instance context an atom is a tuple; the alias keeps call sites close
// to the paper's vocabulary.
using Tuple = Atom;

}  // namespace dxrec

#endif  // DXREC_RELATIONAL_TUPLE_H_

// Instances: finite sets of facts over constants and nulls (paper, Sec. 2).
//
// Instance stores each atom once, in insertion order, for deterministic
// iteration. Membership is an open-addressing table of indices into that
// vector (each slot caches its atom's hash), and a lazily built columnar
// snapshot (relational/columnar.h) serves the homomorphism search in
// chase/homomorphism and every per-relation scan.
#ifndef DXREC_RELATIONAL_INSTANCE_H_
#define DXREC_RELATIONAL_INSTANCE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/substitution.h"
#include "base/term.h"
#include "relational/tuple.h"

namespace dxrec {

class ColumnarInstance;

class Instance {
 public:
  Instance() = default;
  Instance(std::initializer_list<Atom> atoms);

  // Adds a fact; returns true if it was new. Variables are allowed (the
  // paper freely treats conjunctions of atoms as instances).
  bool Add(const Atom& atom);
  void AddAll(const Instance& other);
  void AddAll(const std::vector<Atom>& atoms);

  bool Contains(const Atom& atom) const { return IndexOf(atom).has_value(); }
  // The position of `atom` in atoms(), if present.
  std::optional<uint32_t> IndexOf(const Atom& atom) const;
  bool ContainsAll(const Instance& other) const;

  // Number of tuples (paper notation |I|).
  size_t size() const { return atoms_.size(); }
  bool empty() const { return atoms_.empty(); }

  // All atoms in insertion order.
  const std::vector<Atom>& atoms() const { return atoms_; }

  // The dictionary-encoded column-major snapshot of this instance
  // (relational/columnar.h), built lazily and invalidated on mutation.
  // Copies of an instance share the snapshot (it is immutable).
  // Instances are not thread-safe in general, but the lazy build is the
  // only mutation a const read can trigger: after WarmColumnar()
  // concurrent *readers* are safe.
  const ColumnarInstance& Columnar() const;
  void WarmColumnar() const { Columnar(); }

  // dom(I): all constants and nulls (and variables, if present) occurring
  // in the instance, deduplicated, in first-occurrence order.
  std::vector<Term> Dom() const;

  // The terms of the given kind occurring in the instance, deduplicated.
  std::vector<Term> TermsOfKind(TermKind kind) const;

  // True if dom(I) contains only constants.
  bool IsGround() const;

  // Applies `s` to every atom (sets may merge).
  Instance Apply(const Substitution& s) const;

  // Set union / difference.
  static Instance Union(const Instance& a, const Instance& b);
  static Instance Difference(const Instance& a, const Instance& b);

  // Set semantics: equal as sets of atoms.
  friend bool operator==(const Instance& a, const Instance& b);
  friend bool operator!=(const Instance& a, const Instance& b) {
    return !(a == b);
  }

  // Deterministic sorted rendering "{R(a, b), S(a)}".
  std::string ToString() const;

 private:
  // One membership-table slot: an index into atoms_ and its atom's hash.
  struct Slot {
    uint32_t index;
    uint32_t hash;
  };
  static constexpr uint32_t kEmptySlot = 0xffffffffu;

  // The slot holding `atom` (hash `hash`), or the empty slot ending its
  // probe sequence.
  size_t FindSlot(const Atom& atom, uint32_t hash) const;
  void Grow();

  std::vector<Atom> atoms_;
  // Linear probing; the capacity is zero or a power of two at least twice
  // size().
  std::vector<Slot> slots_;
  // Lazily built columnar snapshot; shared (immutable) across copies.
  mutable std::shared_ptr<const ColumnarInstance> columnar_;
};

}  // namespace dxrec

#endif  // DXREC_RELATIONAL_INSTANCE_H_

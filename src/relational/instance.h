// Instances: finite sets of facts over constants and nulls (paper, Sec. 2).
//
// Instance keeps insertion order for deterministic iteration, hash-set
// membership for O(1) dedup, and a lazily built columnar snapshot
// (relational/columnar.h) that the homomorphism search in
// chase/homomorphism runs against.
#ifndef DXREC_RELATIONAL_INSTANCE_H_
#define DXREC_RELATIONAL_INSTANCE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/substitution.h"
#include "base/term.h"
#include "relational/schema.h"
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

  bool Contains(const Atom& atom) const { return set_.count(atom) > 0; }
  bool ContainsAll(const Instance& other) const;

  // Number of tuples (paper notation |I|).
  size_t size() const { return atoms_.size(); }
  bool empty() const { return atoms_.empty(); }

  // All atoms in insertion order.
  const std::vector<Atom>& atoms() const { return atoms_; }

  // Indices (into atoms()) of the atoms of relation `rel`.
  const std::vector<uint32_t>& AtomsFor(RelationId rel) const;

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

  // The set of relation ids with at least one atom.
  std::vector<RelationId> Relations() const;

  // Applies `s` to every atom (sets may merge).
  Instance Apply(const Substitution& s) const;

  // The sub-instance of atoms whose relation is in `schema`.
  Instance Restrict(const Schema& schema) const;

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
  std::vector<Atom> atoms_;
  std::unordered_set<Atom, AtomHash> set_;
  std::unordered_map<RelationId, std::vector<uint32_t>> by_relation_;
  // Lazily built columnar snapshot; shared (immutable) across copies.
  mutable std::shared_ptr<const ColumnarInstance> columnar_;
};

}  // namespace dxrec

#endif  // DXREC_RELATIONAL_INSTANCE_H_

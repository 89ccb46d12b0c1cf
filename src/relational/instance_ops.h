// Null-management utilities on instances: renaming apart, freezing, and
// deterministic canonical renumbering.
#ifndef DXREC_RELATIONAL_INSTANCE_OPS_H_
#define DXREC_RELATIONAL_INSTANCE_OPS_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/fresh.h"
#include "base/substitution.h"
#include "relational/instance.h"

namespace dxrec {

// An instance together with the substitution that produced it.
struct RenamedInstance {
  Instance instance;
  Substitution renaming;
};

// Replaces every null of `input` by a fresh null from `source`, so the
// result shares no nulls with any other instance.
RenamedInstance RenameNullsFresh(const Instance& input, NullSource* source);

// Replaces every null by a distinct fresh *constant* ("@N<k>"). Freezing
// turns an instance with nulls into a ground instance whose hom-structure
// is preserved; the classical trick behind certain-answer and containment
// arguments.
RenamedInstance FreezeNulls(const Instance& input);

// Replaces every variable by a distinct fresh null, i.e. reads a
// conjunction of atoms as an instance (paper Sec. 2: "we will often view a
// conjunction of atoms as a set of atoms, i.e. as an instance where each
// variable corresponds to a null value").
RenamedInstance VariablesToNulls(const Instance& input, NullSource* source);

// Renumbers nulls as _N0, _N1, ... in order of first occurrence when atoms
// are sorted; purely for stable golden-text output. Not a canonical form
// under instance automorphisms.
Instance CanonicalizeNullLabels(const Instance& input);

// A deterministic string for `input` after CanonicalizeNullLabels; two
// calls on equal-up-to-chosen-labels instances with the same atom ordering
// yield the same string.
std::string CanonicalString(const Instance& input);

// Rewrites `atoms`, read as the instance holding them (repeats collapse),
// into the atoms CanonicalString renders, sorted, without rendering them,
// and returns their number: they are the first ones of `atoms`, and the
// rest are left moved-from. Two instances have equal canonical atoms iff
// they have equal CanonicalStrings.
size_t CanonicalizeAtoms(std::span<Atom> atoms);

}  // namespace dxrec

#endif  // DXREC_RELATIONAL_INSTANCE_OPS_H_

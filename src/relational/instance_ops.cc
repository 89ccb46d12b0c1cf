#include "relational/instance_ops.h"

#include <algorithm>
#include <atomic>

namespace dxrec {

RenamedInstance RenameNullsFresh(const Instance& input, NullSource* source) {
  Substitution renaming;
  for (Term t : input.TermsOfKind(TermKind::kNull)) {
    renaming.Set(t, source->Fresh());
  }
  return RenamedInstance{input.Apply(renaming), std::move(renaming)};
}

RenamedInstance FreezeNulls(const Instance& input) {
  static std::atomic<uint64_t>& counter = *new std::atomic<uint64_t>(0);
  Substitution freezing;
  for (Term t : input.TermsOfKind(TermKind::kNull)) {
    freezing.Set(
        t, Term::Constant("@N" + std::to_string(counter.fetch_add(1))));
  }
  return RenamedInstance{input.Apply(freezing), std::move(freezing)};
}

RenamedInstance VariablesToNulls(const Instance& input, NullSource* source) {
  Substitution renaming;
  for (Term t : input.TermsOfKind(TermKind::kVariable)) {
    renaming.Set(t, source->Fresh());
  }
  return RenamedInstance{input.Apply(renaming), std::move(renaming)};
}

namespace {

// Renumbers the nulls of `sorted` (distinct atoms, in sorted order) _N0,
// _N1, ... in order of first occurrence.
void RenumberNulls(std::span<Atom> sorted) {
  Substitution renumbering;
  uint32_t next = 0;
  for (const Atom& a : sorted) {
    for (Term t : a.args()) {
      if (t.is_null() && !renumbering.Binds(t)) {
        renumbering.Set(t, Term::Null(next++));
      }
    }
  }
  for (Atom& a : sorted) a = a.Apply(renumbering);
}

}  // namespace

Instance CanonicalizeNullLabels(const Instance& input) {
  std::vector<Atom> sorted = input.atoms();
  std::sort(sorted.begin(), sorted.end());
  RenumberNulls(sorted);
  Instance out;
  out.AddAll(sorted);
  return out;
}

std::string CanonicalString(const Instance& input) {
  return CanonicalizeNullLabels(input).ToString();
}

size_t CanonicalizeAtoms(std::span<Atom> atoms) {
  std::sort(atoms.begin(), atoms.end());
  std::span<Atom> distinct =
      atoms.first(std::unique(atoms.begin(), atoms.end()) - atoms.begin());
  // Without nulls there is nothing to renumber, and the atoms are sorted.
  auto holds_null = [](const Atom& a) {
    return std::any_of(a.args().begin(), a.args().end(),
                       [](Term t) { return t.is_null(); });
  };
  if (std::none_of(distinct.begin(), distinct.end(), holds_null)) {
    return distinct.size();
  }
  RenumberNulls(distinct);
  std::sort(distinct.begin(), distinct.end());
  return distinct.size();
}

}  // namespace dxrec

// HOM(Sigma, J): the head-homomorphisms of Sec. 4.
//
// For each s-t tgd xi = alpha(x, y) -> exists z beta(x, z), HOM(xi, J) is
// the set of homomorphisms h on the head variables (x and z) with
// h(beta) contained in J. Because tgds in a DependencySet share no
// variables, each h identifies its tgd (the paper's xi_h); HeadHom records
// the id explicitly.
//
// A head-homomorphism h is at the same time a trigger of the reverse tgd
// xi^{-1} on J, which is how Chase_H(Sigma^{-1}, J) consumes it.
#ifndef DXREC_CORE_HOM_SET_H_
#define DXREC_CORE_HOM_SET_H_

#include <string>
#include <vector>

#include "base/fresh.h"
#include "base/substitution.h"
#include "chase/chase.h"
#include "logic/dependency_set.h"
#include "relational/columnar.h"
#include "relational/instance.h"

namespace dxrec {

// One element of HOM(Sigma, J).
struct HeadHom {
  TgdId tgd = 0;
  Substitution hom;  // binds head variables of the tgd

  // J_h: the image h(head(xi_h)), a sub-instance of J.
  Instance CoveredTuples(const DependencySet& sigma) const;

  // The trigger of xi^{-1} this head-homomorphism induces.
  Trigger AsReverseTrigger() const { return Trigger{tgd, hom}; }

  std::string ToString(const DependencySet& sigma) const;

  friend bool operator==(const HeadHom& a, const HeadHom& b) {
    return a.tgd == b.tgd && a.hom == b.hom;
  }
};

// HOM(Sigma, J), grouped in tgd order; within a tgd, search order. The
// trailing InstanceLayout is ignored; it stays only until
// dxrec-bench/layers.cc stops passing it.
std::vector<HeadHom> ComputeHomSet(
    const DependencySet& sigma, const Instance& target,
    InstanceLayout = InstanceLayout::kColumnar);

// I_h = Chase_{h}(Sigma^{-1}, J): the source atoms generated by firing
// just this head-homomorphism on the reversed tgd. Body-only variables of
// the original tgd receive fresh nulls.
Instance SourceAtomsFor(const DependencySet& sigma, const HeadHom& h,
                        NullSource* nulls);

// J_H / I_H for a set of head-homomorphisms: unions of the per-hom sets.
Instance CoveredTuplesFor(const DependencySet& sigma,
                          const std::vector<HeadHom>& homs);
Instance SourceAtomsFor(const DependencySet& sigma,
                        const std::vector<HeadHom>& homs,
                        NullSource* nulls);

}  // namespace dxrec

#endif  // DXREC_CORE_HOM_SET_H_

#include "core/hom_set.h"

#include "chase/homomorphism.h"

namespace dxrec {

Instance HeadHom::CoveredTuples(const DependencySet& sigma) const {
  Instance out;
  for (const Atom& a : sigma.at(tgd).head()) out.Add(a.Apply(hom));
  return out;
}

std::string HeadHom::ToString(const DependencySet& sigma) const {
  return "[h: tgd " + std::to_string(tgd) + " " + hom.ToString() + " covers " +
         CoveredTuples(sigma).ToString() + "]";
}

std::vector<HeadHom> ComputeHomSet(const DependencySet& sigma,
                                   const Instance& target, InstanceLayout) {
  std::vector<HeadHom> out;
  for (TgdId id = 0; id < sigma.size(); ++id) {
    for (Substitution& h : FindHomomorphisms(sigma.at(id).head(), target)) {
      out.push_back(HeadHom{id, std::move(h)});
    }
  }
  return out;
}

void AppendSourceAtoms(const DependencySet& sigma, const HeadHom& h,
                       NullSource* nulls, std::vector<Atom>* out) {
  const Tgd& tgd = sigma.at(h.tgd);
  Substitution extended = h.hom;
  for (Term y : tgd.body_only_vars()) {
    extended.Set(y, nulls->Fresh());
  }
  for (const Atom& a : tgd.body()) out->push_back(a.Apply(extended));
}

Instance CoveredTuplesFor(const DependencySet& sigma,
                          const std::vector<HeadHom>& homs) {
  Instance out;
  for (const HeadHom& h : homs) out.AddAll(h.CoveredTuples(sigma));
  return out;
}

Instance SourceAtomsFor(const DependencySet& sigma,
                        const std::vector<HeadHom>& homs,
                        NullSource* nulls) {
  std::vector<Atom> atoms;
  for (const HeadHom& h : homs) AppendSourceAtoms(sigma, h, nulls, &atoms);
  Instance out;
  out.AddAll(atoms);
  return out;
}

}  // namespace dxrec

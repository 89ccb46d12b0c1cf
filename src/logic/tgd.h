// Tuple-generating dependencies (paper, Sec. 2).
//
// A tgd  forall x,y: alpha(x, y) -> exists z: beta(x, z)  is stored as its
// body atom set alpha and head atom set beta; quantifiers are implicit.
// Variable classes are derived:
//   frontier   x:  occur in both body and head,
//   body-only  y:  universally quantified, body only,
//   head-existential z: existentially quantified, head only.
// A tgd is *full* when z is empty and *quasi-guarded* when y is empty.
// The reverse of a tgd swaps body and head:  beta(x, z) -> exists y
// alpha(x, y)  (paper eq. (8)); note the reverse of a quasi-guarded tgd is
// full.
#ifndef DXREC_LOGIC_TGD_H_
#define DXREC_LOGIC_TGD_H_

#include <string>
#include <vector>

#include "base/fresh.h"
#include "base/status.h"
#include "base/substitution.h"
#include "base/term.h"
#include "relational/instance.h"
#include "relational/tuple.h"

namespace dxrec {

class Tgd {
 public:
  Tgd() = default;

  // Builds a tgd and derives variable classes. Fails if the head is empty
  // or any atom argument list is empty of sense (no relation).
  static Result<Tgd> Make(std::vector<Atom> body, std::vector<Atom> head);

  const std::vector<Atom>& body() const { return body_; }
  const std::vector<Atom>& head() const { return head_; }

  // Variable classes, each deduplicated, in first-occurrence order.
  const std::vector<Term>& frontier_vars() const { return frontier_; }
  const std::vector<Term>& body_only_vars() const { return body_only_; }
  const std::vector<Term>& head_existential_vars() const {
    return head_existential_;
  }
  // All head variables (frontier + head-existential), the domain of the
  // head-homomorphisms HOM(Sigma, J) of Sec. 4.
  const std::vector<Term>& head_vars() const { return head_vars_; }
  // All body variables (frontier + body-only).
  const std::vector<Term>& body_vars() const { return body_vars_; }
  // vars(xi): every variable of the tgd.
  const std::vector<Term>& all_vars() const { return all_vars_; }

  bool IsFull() const { return head_existential_.empty(); }
  bool IsQuasiGuarded() const { return body_only_.empty(); }

  // The reverse dependency beta -> exists alpha.
  Tgd Reverse() const;

  // A copy with every variable consistently replaced through `renaming`
  // (unmapped variables kept).
  Tgd Apply(const Substitution& renaming) const;

  // A copy whose variables are renamed to fresh ones from `renamer`
  // (base/fresh.h).
  Tgd RenameApart(VariableRenamer* renamer) const;

  // The body/head atoms as an Instance (variables preserved).
  Instance BodyInstance() const;
  Instance HeadInstance() const;

  // "R(x, y) -> exists z: S(x, z)".
  std::string ToString() const;

 private:
  void DeriveVariableClasses();

  std::vector<Atom> body_;
  std::vector<Atom> head_;
  std::vector<Term> frontier_;
  std::vector<Term> body_only_;
  std::vector<Term> head_existential_;
  std::vector<Term> head_vars_;
  std::vector<Term> body_vars_;
  std::vector<Term> all_vars_;
};

}  // namespace dxrec

#endif  // DXREC_LOGIC_TGD_H_

#include "core/cq_subuniversal.h"

#include <unordered_map>
#include <unordered_set>

#include "base/fresh.h"
#include "chase/homomorphism.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/glb.h"

namespace dxrec {

namespace {

// The generalized source instance I_{H(h,Sigma)} of Def. 11: every hom of
// the covering contributes its body with non-essential head variables and
// body-only variables replaced by fresh nulls. `j_h` is the covered tuple
// set of the pivot hom h.
Instance GeneralizedSource(const DependencySet& sigma,
                           const std::vector<HeadHom>& homs,
                           const Cover& covering, const Instance& j_h,
                           NullSource* nulls) {
  Instance out;
  for (size_t idx : covering) {
    const HeadHom& hi = homs[idx];
    const Tgd& tgd = sigma.at(hi.tgd);
    // Essential variables: occur in a head atom whose image lies in J_h.
    std::unordered_set<Term, TermHash> essential;
    for (const Atom& head_atom : tgd.head()) {
      if (!j_h.Contains(head_atom.Apply(hi.hom))) continue;
      for (Term t : head_atom.args()) {
        if (t.is_variable()) essential.insert(t);
      }
    }
    Substitution f;
    for (Term v : tgd.head_vars()) {
      f.Set(v, essential.count(v) > 0 ? hi.hom.Apply(v) : nulls->Fresh());
    }
    for (Term y : tgd.body_only_vars()) {
      f.Set(y, nulls->Fresh());
    }
    for (const Atom& body_atom : tgd.body()) {
      out.Add(body_atom.Apply(f));
    }
  }
  return out;
}

}  // namespace

namespace internal {

Result<SubUniversalResult> ComputeCqSubUniversal(
    const DependencySet& sigma, const Instance& target,
    const SubUniversalOptions& options) {
  SubUniversalResult result;
  NullSource* nulls = &FreshNulls();

  obs::Span pipeline_span("sub_universal");
  pipeline_span.AddArg("target_atoms", static_cast<int64_t>(target.size()));

  std::vector<HeadHom> homs;
  {
    obs::Span span("subuni_hom_enum");
    homs = ComputeHomSet(sigma, target);
    span.AddArg("homs", static_cast<int64_t>(homs.size()));
  }
  result.num_homs = homs.size();
  CoverProblem problem(sigma, target, homs);

  // Tuple index lookup for building J_h index lists.
  std::unordered_map<Atom, uint32_t, AtomHash> tuple_index;
  for (uint32_t i = 0; i < target.atoms().size(); ++i) {
    tuple_index.emplace(target.atoms()[i], i);
  }

  SubsumptionSet sub;
  if (options.filter_covers_by_subsumption) {
    Result<SubsumptionSet> loaded =
        LoadSubsumption(sigma, options.subsumption);
    if (!loaded.ok()) return loaded.status();
    sub = std::move(*loaded);
  }

  for (const HeadHom& h : homs) {
    obs::Span pivot_span("subuni_pivot");
    Instance j_h = h.CoveredTuples(sigma);
    std::vector<uint32_t> j_h_indices;
    for (const Atom& a : j_h.atoms()) {
      auto it = tuple_index.find(a);
      if (it != tuple_index.end()) j_h_indices.push_back(it->second);
    }

    // COV_h(Sigma, J).
    Result<std::vector<Cover>> covers =
        problem.MinimalCoversOf(j_h_indices, options.cover);
    if (!covers.ok()) return covers.status();
    result.num_covers += covers->size();

    // Generalized instances per covering; collapse Def. 11-equivalent
    // coverings, which now coincide up to null renaming.
    std::vector<Instance> representatives;
    for (const Cover& covering : *covers) {
      if (options.filter_covers_by_subsumption && covering.size() > 1) {
        std::vector<HeadHom> h_set;
        for (size_t idx : covering) h_set.push_back(homs[idx]);
        if (!ModelsAll(h_set, *sub, sigma)) continue;
      }
      Instance generalized =
          GeneralizedSource(sigma, homs, covering, j_h, nulls);
      bool duplicate = false;
      for (const Instance& seen : representatives) {
        if (AreIsomorphic(generalized, seen)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) representatives.push_back(std::move(generalized));
    }
    result.num_classes += representatives.size();

    pivot_span.AddArg("classes", static_cast<int64_t>(representatives.size()));

    // glb over the representatives; union into I_{Sigma,J}.
    if (!representatives.empty()) {
      obs::Span glb_span("subuni_glb");
      result.instance.AddAll(GlbAll(representatives, nulls));
    }
  }
  pipeline_span.AddArg("homs", static_cast<int64_t>(result.num_homs));
  pipeline_span.AddArg("covers", static_cast<int64_t>(result.num_covers));
  pipeline_span.AddArg("classes", static_cast<int64_t>(result.num_classes));
  if (obs::Enabled()) {
    static obs::Counter* runs =
        obs::MetricsRegistry::Global().GetCounter("sub_universal.runs");
    runs->Add(1);
  }
  return result;
}

Result<AnswerSet> SoundCqAnswers(const ConjunctiveQuery& query,
                                 const DependencySet& sigma,
                                 const Instance& target,
                                 const SubUniversalOptions& options) {
  Result<SubUniversalResult> result =
      ComputeCqSubUniversal(sigma, target, options);
  if (!result.ok()) return result.status();
  return EvaluateNullFree(query, result->instance);
}

}  // namespace internal
}  // namespace dxrec

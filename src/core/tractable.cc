#include "core/tractable.h"

#include "base/fresh.h"
#include "core/cover.h"
#include "core/inverse_chase.h"

namespace dxrec {

namespace {

// Thm. 6: unique cover iff every hom privately covers some tuple.
bool UniqueCoverCriterion(const CoverProblem& problem) {
  if (!problem.AllTuplesCoverable()) return false;
  for (size_t h = 0; h < problem.num_homs(); ++h) {
    bool has_private_tuple = false;
    for (uint32_t t : problem.coverage()[h]) {
      if (problem.covered_by()[t].size() == 1) {
        has_private_tuple = true;
        break;
      }
    }
    if (!has_private_tuple) return false;
  }
  return true;
}

}  // namespace

namespace internal {

Result<TractabilityReport> AnalyzeTractability(
    const DependencySet& sigma, const Instance& target,
    const SubsumptionOptions& options) {
  TractabilityReport report;
  std::vector<HeadHom> homs = ComputeHomSet(sigma, target);
  CoverProblem problem(sigma, target, homs);
  report.all_coverable = problem.AllTuplesCoverable();
  report.unique_cover = UniqueCoverCriterion(problem);

  Result<SubsumptionSet> sub = LoadSubsumption(sigma, options);
  if (!sub.ok()) return sub.status();
  report.quasi_guarded_safe = true;
  for (const SubsumptionConstraint& c : **sub) {
    if (!sigma.at(c.conclusion).IsQuasiGuarded()) {
      report.quasi_guarded_safe = false;
      break;
    }
    for (const SubPremise& p : c.premises) {
      if (!sigma.at(p.tgd).IsQuasiGuarded()) {
        report.quasi_guarded_safe = false;
        break;
      }
    }
    if (!report.quasi_guarded_safe) break;
  }
  return report;
}

Result<Instance> CompleteUcqRecovery(const DependencySet& sigma,
                                     const Instance& target,
                                     const SubsumptionOptions& options) {
  Result<TractabilityReport> report =
      AnalyzeTractability(sigma, target, options);
  if (!report.ok()) return report.status();
  if (!report->complete_ucq_recovery_exists()) {
    return Status::FailedPrecondition(
        "Thm. 5 conditions do not hold (unique cover: " +
        std::string(report->unique_cover ? "yes" : "no") +
        ", quasi-guarded safe: " +
        std::string(report->quasi_guarded_safe ? "yes" : "no") + ")");
  }
  InverseChaseOptions inverse_options;
  inverse_options.subsumption = options;
  Result<InverseChaseResult> inverse =
      InverseChase(sigma, target, inverse_options);
  if (!inverse.ok()) return inverse.status();
  if (inverse->recoveries.size() != 1) {
    return Status::Internal(
        "Thm. 5 conditions held but the inverse chase produced " +
        std::to_string(inverse->recoveries.size()) + " recoveries");
  }
  return inverse->recoveries[0];
}

}  // namespace internal

MaximalSubsetResult MaximalUniquelyCoveredSubset(const DependencySet& sigma,
                                                 const Instance& target) {
  std::vector<HeadHom> homs = ComputeHomSet(sigma, target);
  CoverProblem problem(sigma, target, homs);
  MaximalSubsetResult result;
  // K: tuples covered by exactly one hom; the homs owning them.
  std::vector<bool> unique_hom(homs.size(), false);
  for (size_t t = 0; t < problem.num_tuples(); ++t) {
    if (problem.covered_by()[t].size() == 1) {
      unique_hom[problem.covered_by()[t][0]] = true;
    }
  }
  std::vector<HeadHom> owners;
  for (size_t h = 0; h < homs.size(); ++h) {
    if (!unique_hom[h]) continue;
    result.j_prime.AddAll(homs[h].CoveredTuples(sigma));
    owners.push_back(homs[h]);
  }
  result.source = SourceAtomsFor(sigma, owners, &FreshNulls());
  return result;
}

namespace internal {

AnswerSet SoundUcqAnswers(const UnionQuery& query,
                          const DependencySet& sigma,
                          const Instance& target) {
  MaximalSubsetResult result = MaximalUniquelyCoveredSubset(sigma, target);
  return EvaluateNullFree(query, result.source);
}

}  // namespace internal
}  // namespace dxrec

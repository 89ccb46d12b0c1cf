// Unit tests for the Sec. 6.1 tractable algorithms.
#include <gtest/gtest.h>

#include "chase/evaluation.h"
#include "chase/homomorphism.h"
#include "core/certain.h"
#include "core/tractable.h"
#include "datagen/scenarios.h"
#include "logic/parser.h"

namespace dxrec {
namespace {

Instance I(const char* text) {
  Result<Instance> parsed = ParseInstance(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *parsed;
}

DependencySet S(const char* text) {
  Result<DependencySet> parsed = ParseTgdSet(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

UnionQuery U(const char* text) {
  Result<UnionQuery> parsed = ParseUnionQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

TEST(Tractable, UniqueCoverDetection) {
  // Thm. 6: unique cover iff every hom covers a private tuple.
  DependencySet sigma = S("Rta(x) -> Sta(x); Mta(y) -> Tta(y)");
  Result<TractabilityReport> unique =
      internal::AnalyzeTractability(sigma, I("{Sta(a), Tta(b)}"));
  ASSERT_TRUE(unique.ok());
  EXPECT_TRUE(unique->unique_cover);

  DependencySet overlap = S("Rtb(x) -> Stb(x); Mtb(y) -> Stb(y)");
  Result<TractabilityReport> multi =
      internal::AnalyzeTractability(overlap, I("{Stb(a)}"));
  ASSERT_TRUE(multi.ok());
  EXPECT_FALSE(multi->unique_cover);
}

TEST(Tractable, UncoverableReported) {
  DependencySet sigma = S("Rtc(x) -> Stc(x)");
  Result<TractabilityReport> report =
      internal::AnalyzeTractability(sigma, I("{Stc(a), Xtc(b)}"));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->all_coverable);
  EXPECT_FALSE(report->complete_ucq_recovery_exists());
}

TEST(Tractable, QuasiGuardedSafety) {
  // Full quasi-guarded tgds: safe.
  Result<TractabilityReport> safe = internal::AnalyzeTractability(
      EmployeeScenario::Sigma(), EmployeeScenario::Target(1, 1, 1));
  ASSERT_TRUE(safe.ok());
  EXPECT_TRUE(safe->quasi_guarded_safe);
  // The blowup mapping's SUB involves non-quasi-guarded tgds: unsafe.
  Result<TractabilityReport> unsafe = internal::AnalyzeTractability(
      BlowupScenario::Sigma(), BlowupScenario::Target(1, 1));
  ASSERT_TRUE(unsafe.ok());
  EXPECT_FALSE(unsafe->quasi_guarded_safe);
}

TEST(Tractable, CompleteRecoveryFailsWithoutConditions) {
  DependencySet sigma = BlowupScenario::Sigma();
  Result<Instance> recovery =
      internal::CompleteUcqRecovery(sigma, BlowupScenario::Target(1, 1));
  EXPECT_FALSE(recovery.ok());
  EXPECT_EQ(recovery.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Tractable, CompleteRecoveryMatchesCertainAnswers) {
  // Where Thm. 5 applies, Q(I) on the complete recovery equals CERT.
  DependencySet sigma = EmployeeScenario::Sigma();
  Instance j = EmployeeScenario::Target(2, 2, 2);
  Result<Instance> recovery = internal::CompleteUcqRecovery(sigma, j);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  UnionQuery q = U("Q(n, d) :- Emp(n, d)");
  AnswerSet via_recovery = EvaluateNullFree(q, *recovery);
  Result<AnswerSet> via_cert = internal::CertainAnswers(q, sigma, j);
  ASSERT_TRUE(via_cert.ok());
  EXPECT_EQ(via_recovery, *via_cert);
}

TEST(Tractable, MaximalSubsetOnMixedTarget) {
  DependencySet sigma = PairScenario::Sigma();
  Instance j = PairScenario::Target(3, 2);
  MaximalSubsetResult result = MaximalUniquelyCoveredSubset(sigma, j);
  // Only the T-atoms are uniquely covered.
  EXPECT_EQ(result.j_prime.size(), 2u);
  for (const Atom& atom : result.j_prime.atoms()) {
    EXPECT_EQ(atom.relation(), InternRelation("Te"));
  }
  EXPECT_EQ(result.source.size(), 2u);
}

TEST(Tractable, MaximalSubsetEmptyWhenNothingUnique) {
  DependencySet sigma = S("Rtf(x) -> Stf(x); Mtf(y) -> Stf(y)");
  MaximalSubsetResult result =
      MaximalUniquelyCoveredSubset(sigma, I("{Stf(a)}"));
  EXPECT_TRUE(result.j_prime.empty());
  EXPECT_TRUE(result.source.empty());
}

TEST(Tractable, SoundUcqAnswersAreSound) {
  DependencySet sigma = PairScenario::Sigma();
  Instance j = PairScenario::Target(2, 2);
  UnionQuery q = U("Q(x) :- De(x)");
  AnswerSet sound = internal::SoundUcqAnswers(q, sigma, j);
  Result<AnswerSet> cert = internal::CertainAnswers(q, sigma, j);
  ASSERT_TRUE(cert.ok());
  for (const AnswerTuple& t : sound) {
    EXPECT_TRUE(cert->count(t) > 0);
  }
  // On this workload the method is in fact complete for D-queries.
  EXPECT_EQ(sound, *cert);
}

TEST(Tractable, WholeTargetUniquelyCoveredGivesFullJPrime) {
  DependencySet sigma = EmployeeScenario::Sigma();
  Instance j = EmployeeScenario::Target(1, 1, 2);
  MaximalSubsetResult result = MaximalUniquelyCoveredSubset(sigma, j);
  EXPECT_EQ(result.j_prime, j);
}

}  // namespace
}  // namespace dxrec

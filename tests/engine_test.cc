// Tests for the Engine facade plus datagen/util helpers.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/symbol_table.h"
#include "chase/homomorphism.h"
#include "core/engine.h"
#include "core/hom_set.h"
#include "core/recovery.h"
#include "datagen/generators.h"
#include "datagen/scenarios.h"
#include "logic/parser.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "resilience/fault_injection.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace dxrec {
namespace {

Instance I(const char* text) {
  Result<Instance> parsed = ParseInstance(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *parsed;
}

UnionQuery U(const char* text) {
  Result<UnionQuery> parsed = ParseUnionQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

TEST(Engine, EndToEndFlow) {
  Engine engine(TriangleScenario::Sigma());
  Instance j = TriangleScenario::Target(1, 2);
  Result<bool> valid = engine.IsValid(j);
  ASSERT_TRUE(valid.ok());
  EXPECT_TRUE(*valid);

  Result<InverseChaseResult> recovered = engine.Recover(j);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->recoveries.empty());

  Result<AnswerSet> cert =
      engine.CertainAnswers(U("Q(x) :- Rt(x, x, y)"), j);
  ASSERT_TRUE(cert.ok());
  EXPECT_EQ(*cert, (AnswerSet{{Term::Constant("a0")}}));
}

TEST(Engine, TractablePathsAgree) {
  Engine engine(EmployeeScenario::Sigma());
  Instance j = EmployeeScenario::Target(2, 1, 2);
  Result<TractabilityReport> report = engine.Analyze(j);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->complete_ucq_recovery_exists());
  Result<Instance> complete = engine.CompleteUcqRecovery(j);
  ASSERT_TRUE(complete.ok());
  UnionQuery q = U("Q(x) :- Bnf('dept0', x)");
  AnswerSet via_complete = EvaluateNullFree(q, *complete);
  AnswerSet via_thm7 = engine.SoundUcqAnswers(q, j);
  Result<AnswerSet> via_cert = engine.CertainAnswers(q, j);
  ASSERT_TRUE(via_cert.ok());
  EXPECT_EQ(via_complete, *via_cert);
  // Thm. 7's sound answers are a subset (here: equal).
  for (const AnswerTuple& t : via_thm7) {
    EXPECT_TRUE(via_cert->count(t) > 0);
  }
}

TEST(Engine, ValidateChecksSchemas) {
  Engine good(TriangleScenario::Sigma());
  EXPECT_TRUE(good.Validate().ok());

  // A relation on both sides is rejected.
  Result<DependencySet> cyclic =
      ParseTgdSet("Rcy(x) -> Scy(x); Scy(y) -> Rcy(y)");
  ASSERT_TRUE(cyclic.ok());
  Engine bad(std::move(*cyclic));
  Status status = bad.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(Engine, StatsRenderAllCounters) {
  Engine engine(TriangleScenario::Sigma());
  Result<InverseChaseResult> result =
      engine.Recover(TriangleScenario::Target(1, 1));
  ASSERT_TRUE(result.ok());
  std::string text = result->stats.ToString();
  for (const char* field : {"homs=", "covers=", "passing_sub=", "g_homs=",
                            "candidates=", "rejected="}) {
    EXPECT_NE(text.find(field), std::string::npos) << text;
  }
}

TEST(Engine, RepairThroughFacade) {
  Engine engine(DiamondScenario::Sigma());
  Instance damaged = DiamondScenario::InvalidTarget(3);
  Result<RepairResult> repair = engine.Repair(damaged);
  ASSERT_TRUE(repair.ok());
  EXPECT_FALSE(repair->maximal_valid_subsets.empty());
  Result<Instance> greedy = engine.RepairGreedy(damaged);
  ASSERT_TRUE(greedy.ok());
  Result<bool> valid = engine.IsValid(*greedy);
  ASSERT_TRUE(valid.ok());
  EXPECT_TRUE(*valid);
}

TEST(Engine, BaselineAccessible) {
  Engine engine(OverlapScenario::Sigma());
  Result<DependencySet> mapping = engine.MaximumRecoveryMapping();
  ASSERT_TRUE(mapping.ok());
  EXPECT_EQ(mapping->size(), 1u);
  Result<Instance> baseline =
      engine.BaselineRecoveredSource(OverlapScenario::Target(1, 1));
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->size(), 1u);
}

// --- Session-resident recovery sets (RecoveryCache) -------------------

struct CacheCase {
  const char* name;
  DependencySet sigma;
  Instance target;
  std::vector<UnionQuery> queries;
};

// The named workloads and the paper's examples, each with source UCQs.
// Diamond's invalid target exercises the FailedPrecondition path.
std::vector<CacheCase> CacheCases() {
  std::vector<CacheCase> cases;
  auto add = [&cases](const char* name, DependencySet sigma, Instance target,
                      std::vector<const char*> queries) {
    CacheCase c{name, std::move(sigma), std::move(target), {}};
    for (const char* q : queries) c.queries.push_back(U(q));
    cases.push_back(std::move(c));
  };
  add("projection", ProjectionScenario::Sigma(), ProjectionScenario::Target(96),
      {"Q(x) :- Rp(x, 'b2')", "Q(y) :- Rp(x, y)"});
  add("triangle", TriangleScenario::Sigma(), TriangleScenario::Target(1, 2),
      {"Q(x) :- Rt(x, x, y)", "Q(p) :- Dt(k, p) | Q(p) :- Rt(u, v, p)"});
  add("employee", EmployeeScenario::Sigma(), EmployeeScenario::Target(2, 2, 2),
      {"Q(x) :- Bnf('dept0', x)", "Q(n, d) :- Emp(n, d)"});
  add("blowup", BlowupScenario::Sigma(), BlowupScenario::Target(2, 4),
      {"Q(x) :- Rb(x, y)", "Q(x, y) :- Rb(x, y)"});
  add("selfjoin", SelfJoinScenario::Sigma(), SelfJoinScenario::Target(1, 1),
      {"Q(x) :- Rj(x, x, y)"});
  add("pair", PairScenario::Sigma(), PairScenario::Target(2, 2),
      {"Q(z) :- De(z)", "Q(x) :- Re(x, y)"});
  add("fan", FanScenario::Sigma(), FanScenario::Target(3),
      {"Q(x) :- Rf(x, y)"});
  add("overlap", OverlapScenario::Sigma(), OverlapScenario::Target(1, 1),
      {"Q(x) :- Uo(x)", "Q(x) :- Ro(x, x)"});
  add("diamond_invalid", DiamondScenario::Sigma(),
      DiamondScenario::InvalidTarget(2), {"Q(x) :- Rd(x)"});
  return cases;
}

// Null labels come from a process-wide counter, so two builds of the same
// set agree up to null renaming, recovery by recovery.
void ExpectSameRecover(
    const Result<resilience::Degraded<InverseChaseResult>>& want,
    const Result<resilience::Degraded<InverseChaseResult>>& got) {
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->info.rung, want->info.rung);
  const std::vector<Instance>& a = want->value.recoveries;
  const std::vector<Instance>& b = got->value.recoveries;
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(AreIsomorphic(a[i], b[i])) << "recovery " << i;
  }
}

void ExpectSameCertain(const Result<resilience::Degraded<AnswerSet>>& want,
                       const Result<resilience::Degraded<AnswerSet>>& got) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    return;
  }
  EXPECT_EQ(got->info.rung, want->info.rung);
  EXPECT_EQ(got->value, want->value);
}

TEST(EngineRecoveryCache, CachedCallsEqualUncachedCalls) {
  for (const CacheCase& c : CacheCases()) {
    SCOPED_TRACE(c.name);
    Engine engine(c.sigma);

    // Built by recover, then hit by recover and by every certain call.
    RecoveryCache cache;
    auto plain = engine.RecoverDegraded(c.target);
    ExpectSameRecover(plain, engine.RecoverDegraded(c.target, &cache));
    std::shared_ptr<const InverseChaseResult> stored = cache.Get();
    ASSERT_NE(stored, nullptr);
    ExpectSameRecover(plain, engine.RecoverDegraded(c.target, &cache));
    for (const UnionQuery& q : c.queries) {
      ExpectSameCertain(engine.CertainAnswersDegraded(q, c.target),
                        engine.CertainAnswersDegraded(q, c.target, &cache));
    }
    EXPECT_EQ(cache.Get(), stored) << "a stored set is never rebuilt";

    // Built by certain, then hit by recover.
    RecoveryCache certain_first;
    for (const UnionQuery& q : c.queries) {
      ExpectSameCertain(
          engine.CertainAnswersDegraded(q, c.target),
          engine.CertainAnswersDegraded(q, c.target, &certain_first));
    }
    ASSERT_NE(certain_first.Get(), nullptr);
    ExpectSameRecover(plain, engine.RecoverDegraded(c.target, &certain_first));
  }
}

TEST(EngineRecoveryCache, InvalidTargetStoresEmptySetAndKeepsFailing) {
  Engine engine(DiamondScenario::Sigma());
  Instance j = DiamondScenario::InvalidTarget(2);
  RecoveryCache cache;
  for (int i = 0; i < 3; ++i) {
    auto cert = engine.CertainAnswersDegraded(U("Q(x) :- Rd(x)"), j, &cache);
    ASSERT_FALSE(cert.ok());
    EXPECT_EQ(cert.status().code(), StatusCode::kFailedPrecondition);
    auto rec = engine.RecoverDegraded(j, &cache);
    ASSERT_TRUE(rec.ok());
    EXPECT_TRUE(rec->exact());
    EXPECT_FALSE(rec->value.valid_for_recovery());
  }
  ASSERT_NE(cache.Get(), nullptr);
  EXPECT_FALSE(cache.Get()->valid_for_recovery());
}

TEST(EngineRecoveryCache, TripStoresNothingAndNextExactCallStores) {
  Engine engine(TriangleScenario::Sigma());
  Instance j = TriangleScenario::Target(1, 2);
  UnionQuery q = U("Q(x) :- Rt(x, x, y)");
  RecoveryCache cache;

  testing::FaultPlan plan;
  plan.site = "inverse_chase.cover";
  plan.kind = testing::FaultKind::kDeadline;
  testing::FaultInjector::Global().Arm(plan);
  auto tripped = engine.CertainAnswersDegraded(q, j, &cache);
  EXPECT_TRUE(testing::FaultInjector::Global().fired());
  testing::FaultInjector::Global().Reset();
  ASSERT_TRUE(tripped.ok()) << tripped.status().ToString();
  EXPECT_FALSE(tripped->exact());
  EXPECT_EQ(cache.Get(), nullptr);

  testing::FaultInjector::Global().Arm(plan);
  auto partial = engine.RecoverDegraded(j, &cache);
  testing::FaultInjector::Global().Reset();
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_FALSE(partial->exact());
  EXPECT_EQ(cache.Get(), nullptr);

  auto exact = engine.CertainAnswersDegraded(q, j, &cache);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->exact());
  EXPECT_EQ(exact->value, (AnswerSet{{Term::Constant("a0")}}));
  EXPECT_NE(cache.Get(), nullptr);
}

TEST(EngineRecoveryCache, FirstPutWins) {
  RecoveryCache cache;
  auto first = std::make_shared<const InverseChaseResult>();
  auto second = std::make_shared<const InverseChaseResult>();
  EXPECT_EQ(cache.Put(first), first);
  EXPECT_EQ(cache.Put(second), first);
  EXPECT_EQ(cache.Get(), first);
}

// SUB(Sigma) computations so far, counted while obs is on.
uint64_t SubsumptionRuns() {
  return obs::MetricsRegistry::Global().GetCounter("subsumption.runs")->Get();
}

EngineOptions CountingOptions() {
  obs::ObsOptions counting;
  counting.enabled = true;
  return EngineOptions().WithObs(counting);
}

// Renamed tgd copies are not interned: a long-lived engine's variable
// table stays flat from its first call on.
TEST(EngineSubsumptionCache, LongLivedEngineInternsNoVariables) {
  Engine engine(TriangleScenario::Sigma());
  Instance j = TriangleScenario::Target(1, 2);
  UnionQuery q = U("Q(x) :- Rt(x, x, y)");
  const size_t variables = Symbols().variables.size();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(engine.Recover(j).ok());
    ASSERT_TRUE(engine.CertainAnswers(q, j).ok());
  }
  EXPECT_EQ(Symbols().variables.size(), variables);
}

// A request-scoped Engine per call, as dxrecd builds one per request:
// over one CompiledMapping no call interns a variable.
TEST(EngineSubsumptionCache, FreshEnginesOverOneMappingInternNoVariables) {
  auto mapping =
      std::make_shared<const CompiledMapping>(TriangleScenario::Sigma());
  Instance j = TriangleScenario::Target(1, 1);
  UnionQuery q = U("Q(x) :- Rt(x, x, y)");
  const size_t variables = Symbols().variables.size();
  for (int i = 0; i < 10000; ++i) {
    Engine engine(mapping);
    ASSERT_TRUE(engine.CertainAnswers(q, j).ok());
  }
  EXPECT_EQ(Symbols().variables.size(), variables);
  ASSERT_NE(mapping->subsumption()->Get(), nullptr);
  EXPECT_FALSE(mapping->subsumption()->Get()->empty());
}

// All three SUB(Sigma) consumers read the one store: the Lemma 1 check
// (Analyze), step 3 (Recover) and the Sec. 6.2 cover filter
// (SubUniversal).
TEST(EngineSubsumptionCache, AnalyzeRecoverSubUniversalComputeSubOnce) {
  EngineOptions options = CountingOptions();
  options.algorithms.subuniversal_sub_filter = true;
  Engine engine(TriangleScenario::Sigma(), options);
  Instance j = TriangleScenario::Target(1, 2);
  const uint64_t before = SubsumptionRuns();
  ASSERT_TRUE(engine.Analyze(j).ok());
  EXPECT_EQ(SubsumptionRuns(), before + 1);
  ASSERT_TRUE(engine.Recover(j).ok());
  ASSERT_TRUE(engine.SubUniversal(j).ok());
  EXPECT_NE(engine.CompleteUcqRecovery(j).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(SubsumptionRuns(), before + 1);

  // A second engine over the same mapping reads it too.
  Engine second(engine.mapping(), options);
  ASSERT_TRUE(second.Analyze(j).ok());
  EXPECT_EQ(SubsumptionRuns(), before + 1);

  // A premise-capped SUB is a different set: computed, never stored.
  EngineOptions capped = options;
  capped.budgets.max_sub_premises = 1;
  Engine third(engine.mapping(), capped);
  ASSERT_TRUE(third.Analyze(j).ok());
  EXPECT_EQ(SubsumptionRuns(), before + 2);
}

// A tripped SUB(Sigma) computation stores nothing: the trip surfaces as
// before, and the next call on the same engine computes SUB(Sigma),
// succeeds and stores it.
TEST(EngineSubsumptionCache, TrippedComputationStoresNothing) {
  Instance j = TriangleScenario::Target(1, 2);
  for (testing::FaultKind kind : {testing::FaultKind::kBudgetExhaustion,
                                  testing::FaultKind::kDeadline}) {
    SCOPED_TRACE(testing::FaultKindName(kind));
    Engine engine(TriangleScenario::Sigma(),
                  CountingOptions().WithDegrade(true));
    testing::FaultPlan plan;
    plan.site = "subsumption.nodes";
    plan.kind = kind;
    testing::FaultInjector::Global().Arm(plan);
    Result<InverseChaseResult> tripped = engine.Recover(j);
    EXPECT_TRUE(testing::FaultInjector::Global().fired());
    testing::FaultInjector::Global().Reset();
    ASSERT_FALSE(tripped.ok());
    EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);

    // Partial mode runs on without the filter and stores nothing either.
    testing::FaultInjector::Global().Arm(plan);
    auto partial = engine.RecoverDegraded(j);
    EXPECT_TRUE(testing::FaultInjector::Global().fired());
    testing::FaultInjector::Global().Reset();
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    EXPECT_FALSE(partial->exact());
    EXPECT_EQ(engine.mapping()->subsumption()->Get(), nullptr);

    uint64_t runs = SubsumptionRuns();
    Result<InverseChaseResult> computed = engine.Recover(j);
    ASSERT_TRUE(computed.ok()) << computed.status().ToString();
    EXPECT_EQ(SubsumptionRuns(), runs + 1) << "SUB(Sigma) built";
    runs = SubsumptionRuns();
    Result<InverseChaseResult> cached = engine.Recover(j);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(SubsumptionRuns(), runs) << "SUB(Sigma) stored";
    EXPECT_EQ(cached->recoveries.size(), computed->recoveries.size());
    EXPECT_EQ(cached->stats.num_covers_passing_sub,
              computed->stats.num_covers_passing_sub);
  }
}

// The shared mapping does not pin an engine in place.
TEST(EngineSubsumptionCache, EngineStaysMovable) {
  Engine first(TriangleScenario::Sigma());
  Instance j = TriangleScenario::Target(1, 2);
  Result<InverseChaseResult> before = first.Recover(j);
  ASSERT_TRUE(before.ok());
  const std::shared_ptr<const CompiledMapping> mapping = first.mapping();
  Engine moved(std::move(first));
  EXPECT_EQ(moved.mapping(), mapping);
  Result<InverseChaseResult> after = moved.Recover(j);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->recoveries.size(), before->recoveries.size());
}

// Step 7's justification search (targets with nulls) runs under
// budgets.max_justification_assignments. A search that runs out leaves
// its candidate unverified, so the exact entry points fail with the
// search's structured ResourceExhausted instead of answering from the
// candidates that were verified, and the degradation ladder takes over.
TEST(EngineBudgets, JustificationAssignmentsFailExactCalls) {
  Result<DependencySet> sigma =
      ParseTgdSet("R(x, y) -> exists z: T(x, z); R(u, u) -> T(u, u)");
  ASSERT_TRUE(sigma.ok()) << sigma.status().ToString();
  const Instance j = I("{T(a, _X), T(a, a)}");
  const UnionQuery q = U("Q(x) :- R(x, y)");
  EXPECT_EQ(
      EngineOptions().ToInverseChaseOptions().max_justification_assignments,
      200000u);

  Engine roomy(*sigma);
  Result<InverseChaseResult> all = roomy.Recover(j);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->recoveries.size(), 3u);
  EXPECT_EQ(all->stats.num_candidates_unverified, 0u);
  Result<AnswerSet> answers = roomy.CertainAnswers(q, j);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->size(), 1u);

  EngineOptions options = CountingOptions().WithDegrade(true);
  options.budgets.max_justification_assignments = 1;
  ASSERT_EQ(options.ToInverseChaseOptions().max_justification_assignments,
            1u);
  Engine tight(std::move(*sigma), options);
  auto expect_tripped = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
        << status.ToString();
    ASSERT_NE(status.budget_info(), nullptr) << status.ToString();
    EXPECT_EQ(status.budget_info()->budget, "justification.assignments");
    EXPECT_EQ(status.budget_info()->limit, 1u);
  };
  Result<InverseChaseResult> recovered = tight.Recover(j);
  ASSERT_FALSE(recovered.ok());
  expect_tripped(recovered.status());
  Result<bool> valid = tight.IsValid(j);
  ASSERT_FALSE(valid.ok());
  expect_tripped(valid.status());
  Result<AnswerSet> certain = tight.CertainAnswers(q, j);
  ASSERT_FALSE(certain.ok());
  expect_tripped(certain.status());

  auto partial = tight.RecoverDegraded(j);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->info.completeness, resilience::Completeness::kPartial);
  EXPECT_GT(partial->value.stats.num_candidates_unverified, 0u);
  expect_tripped(partial->info.cause);
  auto sound = tight.CertainAnswersDegraded(q, j);
  ASSERT_TRUE(sound.ok()) << sound.status().ToString();
  EXPECT_EQ(sound->info.completeness,
            resilience::Completeness::kSoundUnderApprox);
  expect_tripped(sound->info.cause);
}

TEST(Datagen, RandomMappingIsWellFormed) {
  Rng rng(42);
  MappingSpec spec;
  spec.num_tgds = 5;
  DependencySet sigma = RandomMapping(spec, "g1", &rng);
  EXPECT_GT(sigma.size(), 0u);
  Result<MappingSchema> schema = sigma.InferSchema();
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_TRUE(schema->Validate().ok());
}

TEST(Datagen, RandomMappingIsDeterministicPerSeed) {
  MappingSpec spec;
  Rng rng1(7), rng2(7);
  DependencySet a = RandomMapping(spec, "g2", &rng1);
  DependencySet b = RandomMapping(spec, "g2", &rng2);
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(Datagen, RandomSourceRespectsSchema) {
  Rng rng(43);
  MappingSpec spec;
  DependencySet sigma = RandomMapping(spec, "g3", &rng);
  SourceSpec source_spec;
  source_spec.num_tuples = 20;
  Instance source = RandomSource(sigma, source_spec, "g3", &rng);
  EXPECT_TRUE(source.IsGround());
  Result<MappingSchema> schema = sigma.InferSchema();
  ASSERT_TRUE(schema.ok());
  for (const Atom& atom : source.atoms()) {
    EXPECT_TRUE(schema->source().Contains(atom.relation()));
  }
}

TEST(Datagen, ChaseTargetIsValidForRecovery) {
  Rng rng(44);
  MappingSpec spec;
  spec.num_tgds = 2;
  spec.max_body_atoms = 1;
  DependencySet sigma = RandomMapping(spec, "g4", &rng);
  SourceSpec source_spec;
  source_spec.num_tuples = 4;
  source_spec.num_constants = 3;
  Instance source = RandomSource(sigma, source_spec, "g4", &rng);
  Instance target = ChaseTarget(sigma, source, /*ground=*/true);
  EXPECT_TRUE(target.IsGround());
  if (!target.empty() && ComputeHomSet(sigma, target).size() <= 10) {
    EngineOptions options;
    options.budgets.max_covers = 4096;
    Engine engine(std::move(sigma), options);
    Result<bool> valid = engine.IsValid(target);
    if (valid.ok()) {
      EXPECT_TRUE(*valid);
    } else {
      EXPECT_EQ(valid.status().code(), StatusCode::kResourceExhausted);
    }
  }
}

TEST(Util, StopwatchAdvances) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(sw.ElapsedMicros(), 0);
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

TEST(Util, TableRendersAligned) {
  TextTable table({"n", "time", "note"});
  table.AddRow({TextTable::Cell(size_t{10}), TextTable::Cell(1.5),
                "fast"});
  table.AddRow({TextTable::Cell(size_t{1000}), TextTable::Cell(22.125),
                "slower"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("n"), std::string::npos);
  EXPECT_NE(out.find("1000"), std::string::npos);
  EXPECT_NE(out.find("22.125"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Util, TablePadsShortRows) {
  TextTable table({"a", "b"});
  table.AddRow({"only-a"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("only-a"), std::string::npos);
}

}  // namespace
}  // namespace dxrec

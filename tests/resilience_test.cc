// The robustness ladder (docs/ROBUSTNESS.md): deadlines, cancellation,
// fault injection, and graceful degradation through the engine facade.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/certain.h"
#include "core/engine.h"
#include "core/recovery.h"
#include "core/tractable.h"
#include "datagen/scenarios.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "obs/progress.h"
#include "resilience/degraded.h"
#include "resilience/execution_context.h"
#include "resilience/fault_injection.h"

namespace dxrec {
namespace {

UnionQuery U(const char* text) {
  Result<UnionQuery> parsed = ParseUnionQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

// The warehouse mapping + target from examples/data (inlined so the test
// does not depend on the data dir).
DependencySet WarehouseSigma() {
  Result<DependencySet> sigma = ParseTgdSet(
      "Order(id, cust, item) -> Ledger(cust, id), Shipment(id, item); "
      "Stock(item, wh) -> Available(item)");
  EXPECT_TRUE(sigma.ok()) << sigma.status().ToString();
  return std::move(*sigma);
}

Instance WarehouseTarget() {
  Result<Instance> j = ParseInstance(
      "{Ledger(ann, o1), Shipment(o1, tea), Available(tea)}");
  EXPECT_TRUE(j.ok()) << j.status().ToString();
  return std::move(*j);
}

class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { dxrec::testing::FaultInjector::Global().Reset(); }
};

// --- ExecutionContext / CancelToken units ---------------------------

TEST_F(ResilienceTest, ContextInactiveByDefault) {
  resilience::ExecutionContext ctx;
  EXPECT_FALSE(ctx.active());
  EXPECT_EQ(ctx.Check(), resilience::StopCause::kNone);
  EXPECT_EQ(ctx.deadline_micros(), 0);
}

TEST_F(ResilienceTest, ExpiredDeadlineTripsAndSticks) {
  resilience::ExecutionContext ctx;
  ctx.SetDeadlineAfter(0);  // already expired
  EXPECT_TRUE(ctx.active());
  EXPECT_EQ(ctx.Check(), resilience::StopCause::kDeadline);
  EXPECT_EQ(ctx.stop_cause(), resilience::StopCause::kDeadline);
  EXPECT_EQ(ctx.Check(), resilience::StopCause::kDeadline);  // latched

  Status status = resilience::StopStatusFor(
      ctx, resilience::StopCause::kDeadline, "verify");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  ASSERT_NE(status.budget_info(), nullptr);
  EXPECT_EQ(status.budget_info()->budget, "resilience.deadline");
  EXPECT_EQ(status.budget_info()->phase, "verify");
}

TEST_F(ResilienceTest, CancelTokenTripsContext) {
  auto token = std::make_shared<resilience::CancelToken>();
  resilience::ExecutionContext ctx;
  ctx.SetCancelToken(token);
  EXPECT_TRUE(ctx.active());
  EXPECT_EQ(ctx.Check(), resilience::StopCause::kNone);
  token->Cancel();
  EXPECT_EQ(ctx.Check(), resilience::StopCause::kCancelled);

  Status status = resilience::StopStatusFor(
      ctx, resilience::StopCause::kCancelled, "cover_enum");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  ASSERT_NE(status.budget_info(), nullptr);
  EXPECT_EQ(status.budget_info()->budget, "resilience.cancelled");
}

TEST_F(ResilienceTest, CheckPointIsNullSafe) {
  EXPECT_TRUE(resilience::CheckPoint(nullptr, "some.site", "phase").ok());
  resilience::ExecutionContext ctx;  // active but untripped
  ctx.SetDeadlineAfter(3600);
  EXPECT_TRUE(resilience::CheckPoint(&ctx, "some.site", "phase").ok());
}

// --- FaultInjector units --------------------------------------------

TEST_F(ResilienceTest, InjectorFiresExactlyOncePerArm) {
  auto& injector = dxrec::testing::FaultInjector::Global();
  dxrec::testing::FaultPlan plan;
  plan.site = "unit.site";
  plan.seed = 0;
  injector.Arm(plan);
  ASSERT_TRUE(dxrec::testing::FaultInjectionActive());

  Status first = injector.OnSite("unit.site", "unit_phase");
  EXPECT_EQ(first.code(), StatusCode::kResourceExhausted);
  ASSERT_NE(first.budget_info(), nullptr);
  EXPECT_EQ(first.budget_info()->budget, "unit.site");
  EXPECT_EQ(first.budget_info()->phase, "unit_phase");
  EXPECT_TRUE(injector.fired());
  // At most once per Arm.
  EXPECT_TRUE(injector.OnSite("unit.site", "unit_phase").ok());
  EXPECT_TRUE(injector.OnSite("other.site", "unit_phase").ok());
}

TEST_F(ResilienceTest, InjectorSeedSelectsHit) {
  auto& injector = dxrec::testing::FaultInjector::Global();
  dxrec::testing::FaultPlan plan;
  plan.site = "unit.site";
  plan.seed = 2;  // fires on the third hit
  injector.Arm(plan);
  EXPECT_TRUE(injector.OnSite("unit.site", "p").ok());
  EXPECT_TRUE(injector.OnSite("unit.site", "p").ok());
  EXPECT_FALSE(injector.OnSite("unit.site", "p").ok());
}

TEST_F(ResilienceTest, RecordingTalliesWithoutFiring) {
  auto& injector = dxrec::testing::FaultInjector::Global();
  injector.StartRecording();
  EXPECT_TRUE(injector.OnSite("b.site", "p").ok());
  EXPECT_TRUE(injector.OnSite("a.site", "p").ok());
  EXPECT_TRUE(injector.OnSite("a.site", "p").ok());
  EXPECT_FALSE(injector.fired());
  EXPECT_EQ(injector.SeenSites(),
            (std::vector<std::string>{"a.site", "b.site"}));
  EXPECT_EQ(injector.hits("a.site"), 2u);
  injector.Reset();
  EXPECT_TRUE(injector.SeenSites().empty());
  EXPECT_FALSE(dxrec::testing::FaultInjectionActive());
}

// --- Deadline / cancellation through the engine ---------------------

TEST_F(ResilienceTest, CancelledCallReturnsStructuredError) {
  EngineOptions options;
  options.resilience.cancel = std::make_shared<resilience::CancelToken>();
  options.resilience.cancel->Cancel();  // cancelled before the call
  options.resilience.degrade = false;
  Engine engine(WarehouseSigma(), options);
  Result<InverseChaseResult> result = engine.Recover(WarehouseTarget());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  ASSERT_NE(result.status().budget_info(), nullptr);
  EXPECT_EQ(result.status().budget_info()->budget, "resilience.cancelled");
}

// One call's outcome with fresh null labels abstracted away: the
// structured cancellation, any other error, or a summary of the value.
template <typename T, typename Summarize>
std::string Outcome(const Result<T>& result, Summarize summarize) {
  if (result.ok()) return "ok " + summarize(*result);
  const BudgetInfo* info = result.status().budget_info();
  if (info != nullptr && info->budget == "resilience.cancelled") {
    return "cancelled";
  }
  return "error " + result.status().ToString();
}

std::string Recoveries(const InverseChaseResult& result) {
  return std::to_string(result.recoveries.size()) + " recoveries";
}

std::string Atoms(const Instance& instance) {
  return std::to_string(instance.size()) + " atoms";
}

// Characterizes the prologue every Engine entry point runs: called with
// an already-cancelled token, each call either fails with the structured
// "resilience.cancelled" trip or returns what the same call returns with
// no token (it reaches no checkpoint, or reads a stored recovery set).
TEST_F(ResilienceTest, EveryEntryPointMeetsAnAlreadyCancelledToken) {
  const Instance j = WarehouseTarget();
  const UnionQuery q = U("Q(id) :- Order(id, cust, item)");
  Result<ConjunctiveQuery> cq = ParseQuery("Q(id) :- Order(id, cust, item)");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();

  EngineOptions plain;
  plain.resilience.degrade = false;
  EngineOptions cancelled = plain;
  cancelled.resilience.cancel = std::make_shared<resilience::CancelToken>();
  cancelled.resilience.cancel->Cancel();
  Engine reference(WarehouseSigma(), plain);
  Engine engine(WarehouseSigma(), cancelled);
  RecoveryCache stored;
  ASSERT_TRUE(reference.RecoverDegraded(j, &stored).ok());

  struct EntryPoint {
    const char* name;
    bool cancels;  // false: the outcome equals the no-token call's
    std::function<std::string(const Engine&)> call;
  };
  const std::vector<EntryPoint> table = {
      {"Recover", true,
       [&](const Engine& e) { return Outcome(e.Recover(j), Recoveries); }},
      {"IsValid", true,
       [&](const Engine& e) {
         return Outcome(e.IsValid(j),
                        [](bool valid) { return std::to_string(valid); });
       }},
      {"CertainAnswers", true,
       [&](const Engine& e) {
         return Outcome(e.CertainAnswers(q, j),
                        [](const AnswerSet& a) { return ToString(a); });
       }},
      {"CertainAnswersDegraded", true,
       [&](const Engine& e) {
         return Outcome(e.CertainAnswersDegraded(q, j),
                        [](const resilience::Degraded<AnswerSet>& d) {
                          return d.info.rung + " " + ToString(d.value);
                        });
       }},
      {"CertainAnswersDegraded stored", false,
       [&](const Engine& e) {
         return Outcome(e.CertainAnswersDegraded(q, j, &stored),
                        [](const resilience::Degraded<AnswerSet>& d) {
                          return d.info.rung + " " + ToString(d.value);
                        });
       }},
      {"RecoverDegraded", true,
       [&](const Engine& e) {
         return Outcome(
             e.RecoverDegraded(j),
             [](const resilience::Degraded<InverseChaseResult>& d) {
               return d.info.rung + " " + Recoveries(d.value);
             });
       }},
      {"RecoverDegraded stored", false,
       [&](const Engine& e) {
         return Outcome(
             e.RecoverDegraded(j, &stored),
             [](const resilience::Degraded<InverseChaseResult>& d) {
               return d.info.rung + " " + Recoveries(d.value);
             });
       }},
      {"Analyze", true,
       [&](const Engine& e) {
         return Outcome(e.Analyze(j), [](const TractabilityReport& r) {
           return std::to_string(r.all_coverable) +
                  std::to_string(r.unique_cover) +
                  std::to_string(r.quasi_guarded_safe);
         });
       }},
      {"CompleteUcqRecovery", true,
       [&](const Engine& e) {
         return Outcome(e.CompleteUcqRecovery(j), Atoms);
       }},
      {"SoundUcqAnswers", false,
       [&](const Engine& e) { return ToString(e.SoundUcqAnswers(q, j)); }},
      {"SubUniversal", true,
       [&](const Engine& e) {
         return Outcome(e.SubUniversal(j), [](const SubUniversalResult& r) {
           return Atoms(r.instance);
         });
       }},
      {"SoundCqAnswers", true,
       [&](const Engine& e) {
         return Outcome(e.SoundCqAnswers(*cq, j),
                        [](const AnswerSet& a) { return ToString(a); });
       }},
      {"MaximumRecoveryMapping", true,
       [&](const Engine& e) {
         return Outcome(e.MaximumRecoveryMapping(),
                        [](const DependencySet& d) {
                          return std::to_string(d.size()) + " tgds";
                        });
       }},
      {"BaselineRecoveredSource", true,
       [&](const Engine& e) {
         return Outcome(e.BaselineRecoveredSource(j), Atoms);
       }},
      {"Repair", true,
       [&](const Engine& e) {
         return Outcome(e.Repair(j), [](const RepairResult& r) {
           return std::to_string(r.maximal_valid_subsets.size()) +
                  " subsets";
         });
       }},
      {"RepairGreedy", true,
       [&](const Engine& e) { return Outcome(e.RepairGreedy(j), Atoms); }},
  };
  for (const EntryPoint& entry : table) {
    SCOPED_TRACE(entry.name);
    const std::string expected = entry.call(reference);
    EXPECT_NE(expected, "cancelled");
    EXPECT_EQ(entry.call(engine), entry.cancels ? "cancelled" : expected);
  }
}

TEST_F(ResilienceTest, ExpiredDeadlineDegradesCertToSoundAnswers) {
  // The acceptance scenario: an unmeetable deadline on the warehouse
  // workload yields the Thm. 7 sound answers instead of a bare error.
  EngineOptions options;
  options.resilience.deadline_seconds = 1e-9;
  Engine engine(WarehouseSigma(), options);
  Instance j = WarehouseTarget();
  UnionQuery q = U("Q(id) :- Order(id, cust, item)");

  Result<resilience::Degraded<AnswerSet>> degraded =
      engine.CertainAnswersDegraded(q, j);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->info.completeness,
            resilience::Completeness::kSoundUnderApprox);
  ASSERT_FALSE(degraded->info.cause.ok());
  ASSERT_NE(degraded->info.cause.budget_info(), nullptr);
  EXPECT_EQ(degraded->info.cause.budget_info()->budget,
            "resilience.deadline");

  // The degraded set matches the direct ladder computation...
  AnswerSet expected = dxrec::internal::SoundUcqAnswers(q, engine.sigma(), j);
  if (degraded->info.rung == "sound_ucq") {
    EXPECT_EQ(degraded->value, expected);
  } else {
    EXPECT_EQ(degraded->info.rung, "sound_ucq+sound_cq");
    for (const AnswerTuple& t : expected) {
      EXPECT_TRUE(degraded->value.count(t) > 0);
    }
  }
  // ... and is sound: contained in the exact certain answers.
  Engine exact(WarehouseSigma());
  Result<AnswerSet> cert = exact.CertainAnswers(q, j);
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  for (const AnswerTuple& t : degraded->value) {
    EXPECT_TRUE(cert->count(t) > 0) << "unsound degraded answer";
  }
}

// --- Degradation ladder under budget exhaustion ---------------------

// Per scenario: starve the cover budget, ask for degraded certain
// answers, and check the result equals the direct rung computation and
// stays inside the exact answers.
void CheckLadder(DependencySet sigma, const Instance& j,
                 const UnionQuery& q) {
  EngineOptions tight;
  tight.budgets.max_cover_nodes = 2;
  Engine engine(DependencySet(sigma), tight);
  Result<resilience::Degraded<AnswerSet>> degraded =
      engine.CertainAnswersDegraded(q, j);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_EQ(degraded->info.completeness,
            resilience::Completeness::kSoundUnderApprox);
  ASSERT_NE(degraded->info.cause.budget_info(), nullptr);
  EXPECT_EQ(degraded->info.cause.budget_info()->budget, "cover.nodes");

  AnswerSet sound_ucq = dxrec::internal::SoundUcqAnswers(q, sigma, j);
  for (const AnswerTuple& t : sound_ucq) {
    EXPECT_TRUE(degraded->value.count(t) > 0)
        << "rung-2 answer missing from degraded set";
  }
  if (degraded->info.rung == "sound_ucq") {
    EXPECT_EQ(degraded->value, sound_ucq);
  }

  Engine exact(std::move(sigma));
  Result<AnswerSet> cert = exact.CertainAnswers(q, j);
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  for (const AnswerTuple& t : degraded->value) {
    EXPECT_TRUE(cert->count(t) > 0) << "unsound degraded answer";
  }
}

TEST_F(ResilienceTest, LadderSoundOnWarehouse) {
  CheckLadder(WarehouseSigma(), WarehouseTarget(),
              U("Q(id) :- Order(id, cust, item)"));
}

TEST_F(ResilienceTest, LadderSoundOnTriangle) {
  CheckLadder(TriangleScenario::Sigma(), TriangleScenario::Target(1, 2),
              U("Q(x) :- Rt(x, x, y)"));
}

TEST_F(ResilienceTest, LadderSoundOnEmployee) {
  CheckLadder(EmployeeScenario::Sigma(),
              EmployeeScenario::Target(2, 1, 2),
              U("Q(x) :- Bnf('dept0', x)"));
}

TEST_F(ResilienceTest, SoundUcqIsSubsetOfExactCert) {
  // When the exact path succeeds, the rung-2 answers it would degrade to
  // are contained in it (Thm. 7 soundness, ladder invariant).
  Engine engine(EmployeeScenario::Sigma());
  Instance j = EmployeeScenario::Target(2, 1, 2);
  UnionQuery q = U("Q(x) :- Bnf('dept0', x)");
  Result<resilience::Degraded<AnswerSet>> degraded =
      engine.CertainAnswersDegraded(q, j);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->exact());
  EXPECT_EQ(degraded->info.rung, "exact");
  AnswerSet sound = engine.SoundUcqAnswers(q, j);
  for (const AnswerTuple& t : sound) {
    EXPECT_TRUE(degraded->value.count(t) > 0);
  }
}

TEST_F(ResilienceTest, RecoverDegradedReturnsPartialPrefix) {
  // Overlap(1, 1) has 3 recoveries; a cap of 1 trips the merge budget.
  EngineOptions options;
  options.budgets.max_recoveries = 1;
  Engine engine(OverlapScenario::Sigma(), options);
  Instance j = OverlapScenario::Target(1, 1);
  Result<resilience::Degraded<InverseChaseResult>> degraded =
      engine.RecoverDegraded(j);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_EQ(degraded->info.completeness,
            resilience::Completeness::kPartial);
  EXPECT_EQ(degraded->info.rung, "partial");
  ASSERT_NE(degraded->info.cause.budget_info(), nullptr);
  EXPECT_EQ(degraded->info.cause.budget_info()->budget,
            "inverse_chase.recoveries");
  ASSERT_EQ(degraded->value.recoveries.size(), 1u);
  // The partial prefix holds genuine recoveries.
  Result<bool> is_recovery =
      IsRecovery(engine.sigma(), degraded->value.recoveries[0], j);
  ASSERT_TRUE(is_recovery.ok());
  EXPECT_TRUE(*is_recovery);
}

TEST_F(ResilienceTest, DegradeOffPropagatesTheError) {
  EngineOptions options;
  options.budgets.max_recoveries = 1;
  options.resilience.degrade = false;
  Engine engine(OverlapScenario::Sigma(), options);
  Result<resilience::Degraded<InverseChaseResult>> degraded =
      engine.RecoverDegraded(OverlapScenario::Target(1, 1));
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.status().code(), StatusCode::kResourceExhausted);
  ASSERT_NE(degraded.status().budget_info(), nullptr);
  EXPECT_EQ(degraded.status().budget_info()->budget,
            "inverse_chase.recoveries");
}

// Satellite regression: the BudgetInfo payload survives the whole
// Result<T> plumbing from the tripped meter through Recover to the
// caller.
TEST_F(ResilienceTest, BudgetPayloadSurvivesRecoverPlumbing) {
  EngineOptions options;
  options.budgets.max_cover_nodes = 2;
  Engine engine(WarehouseSigma(), options);
  Result<InverseChaseResult> result = engine.Recover(WarehouseTarget());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  const BudgetInfo* info = result.status().budget_info();
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->budget, "cover.nodes");
  EXPECT_EQ(info->limit, 2u);
  EXPECT_GE(info->consumed, info->limit);
  EXPECT_EQ(info->phase, "cover_enum");
  // Copies keep the payload.
  Status copy = result.status();
  ASSERT_NE(copy.budget_info(), nullptr);
  EXPECT_EQ(copy.budget_info()->budget, "cover.nodes");
}

// Degradations are recorded in the bounded log (when obs is enabled).
TEST_F(ResilienceTest, DegradationLogRecordsRungAndCause) {
  obs::SetEnabled(true);
  resilience::ClearDegradationLog();
  EngineOptions tight;
  tight.budgets.max_cover_nodes = 2;
  Engine engine(WarehouseSigma(), tight);
  Result<resilience::Degraded<AnswerSet>> degraded =
      engine.CertainAnswersDegraded(U("Q(id) :- Order(id, cust, item)"),
                                    WarehouseTarget());
  ASSERT_TRUE(degraded.ok());
  std::vector<resilience::DegradationRecord> log =
      resilience::DegradationLogSnapshot();
  ASSERT_FALSE(log.empty());
  const resilience::DegradationRecord& rec = log.back();
  EXPECT_EQ(rec.operation, "certain_answers");
  EXPECT_EQ(rec.completeness, resilience::Completeness::kSoundUnderApprox);
  EXPECT_EQ(rec.cause.budget, "cover.nodes");
  resilience::ClearDegradationLog();
  obs::SetEnabled(false);
}

// --- Fault injection end to end -------------------------------------

TEST_F(ResilienceTest, InjectedBudgetFaultPropagatesWithPayload) {
  dxrec::testing::FaultPlan plan;
  plan.site = "cover.nodes";
  plan.seed = 0;
  dxrec::testing::FaultInjector::Global().Arm(plan);
  EngineOptions options;
  options.resilience.degrade = false;
  Engine engine(WarehouseSigma(), options);
  Result<InverseChaseResult> result = engine.Recover(WarehouseTarget());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  ASSERT_NE(result.status().budget_info(), nullptr);
  EXPECT_EQ(result.status().budget_info()->budget, "cover.nodes");
  EXPECT_TRUE(dxrec::testing::FaultInjector::Global().fired());
}

TEST_F(ResilienceTest, InjectedFaultDegradesLikeARealTrip) {
  dxrec::testing::FaultPlan plan;
  plan.site = "cover.nodes";
  plan.seed = 0;
  dxrec::testing::FaultInjector::Global().Arm(plan);
  Engine engine(WarehouseSigma());
  Instance j = WarehouseTarget();
  UnionQuery q = U("Q(id) :- Order(id, cust, item)");
  Result<resilience::Degraded<AnswerSet>> degraded =
      engine.CertainAnswersDegraded(q, j);
  // The injector fires once; the fallback rungs run clean.
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->info.completeness,
            resilience::Completeness::kSoundUnderApprox);
}

// --- ProgressScope --------------------------------------------------

TEST_F(ResilienceTest, ProgressScopeStartsAndJoinsTheMonitor) {
  ASSERT_FALSE(obs::ProgressActive());
  {
    obs::ProgressScope scope(0.005, /*stderr_status=*/false);
    EXPECT_TRUE(scope.owns());
    EXPECT_TRUE(obs::ProgressActive());
    // Nested scopes do not steal ownership.
    obs::ProgressScope nested(0.005, /*stderr_status=*/false);
    EXPECT_FALSE(nested.owns());
  }
  EXPECT_FALSE(obs::ProgressActive());
}

TEST_F(ResilienceTest, ProgressScopeDisabledByZeroInterval) {
  obs::ProgressScope scope(0, /*stderr_status=*/false);
  EXPECT_FALSE(scope.owns());
  EXPECT_FALSE(obs::ProgressActive());
}

// The heartbeat is joined before an early-error return delivers its
// status (satellite: no heartbeat may outlive the engine call).
TEST_F(ResilienceTest, HeartbeatJoinedOnErrorReturnPaths) {
  EngineOptions options;
  options.obs.progress_seconds = 0.001;
  options.obs.progress_stderr = false;
  options.budgets.max_cover_nodes = 2;
  options.resilience.degrade = false;
  Engine engine(WarehouseSigma(), options);
  Result<InverseChaseResult> result = engine.Recover(WarehouseTarget());
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(obs::ProgressActive()) << "heartbeat outlived the call";
}

}  // namespace
}  // namespace dxrec

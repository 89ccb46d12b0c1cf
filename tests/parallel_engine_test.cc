// Determinism contract of the parallel engine (docs/PARALLELISM.md): for
// any thread count, Recover produces the same recovery set in the same
// order (byte-identical canonical forms), the same deterministic stats
// counters, and the same decision-event histogram as the sequential run.
// Also covers the per-cover truncation propagation: exact mode fails
// identically at every thread count, partial mode degrades identically.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "datagen/scenarios.h"
#include "logic/parser.h"
#include "obs/events.h"
#include "obs/trace.h"
#include "relational/instance_ops.h"
#include "resilience/degraded.h"

namespace dxrec {
namespace {

// Enables collectors + events for one run and restores the switches after
// (mirrors obs_events_test's fixture; the globals never self-disable).
class ScopedEvents {
 public:
  ScopedEvents()
      : was_enabled_(obs::Enabled()),
        were_events_enabled_(obs::EventsEnabled()) {
    obs::SetEnabled(true);
    obs::SetEventsEnabled(true);
    obs::EventSink::Global().Configure(obs::EventSink::kDefaultCapacity);
  }
  ~ScopedEvents() {
    obs::SetEnabled(was_enabled_);
    obs::SetEventsEnabled(were_events_enabled_);
  }

 private:
  bool was_enabled_;
  bool were_events_enabled_;
};

// Everything about a Recover call that the determinism contract promises
// is a function of the input alone.
struct RunSnapshot {
  std::vector<std::string> recoveries;  // canonical, in emission order
  std::map<std::string, size_t> event_counts;
  size_t num_homs = 0;
  size_t num_covers = 0;
  size_t num_covers_passing_sub = 0;
  size_t num_g_homs = 0;
  size_t num_covers_truncated = 0;
  size_t num_recoveries_before_dedup = 0;
  size_t num_candidates_rejected = 0;

  bool operator==(const RunSnapshot& other) const {
    return recoveries == other.recoveries &&
           event_counts == other.event_counts &&
           num_homs == other.num_homs && num_covers == other.num_covers &&
           num_covers_passing_sub == other.num_covers_passing_sub &&
           num_g_homs == other.num_g_homs &&
           num_covers_truncated == other.num_covers_truncated &&
           num_recoveries_before_dedup ==
               other.num_recoveries_before_dedup &&
           num_candidates_rejected == other.num_candidates_rejected;
  }
};

RunSnapshot SnapshotRecover(const DependencySet& sigma,
                            const Instance& target, size_t threads) {
  ScopedEvents events;
  EngineOptions options;
  options.parallel.threads = threads;
  Engine engine(DependencySet(sigma), options);
  Result<InverseChaseResult> result = engine.Recover(target);
  EXPECT_TRUE(result.ok()) << "threads=" << threads << ": "
                           << result.status().ToString();
  RunSnapshot out;
  if (!result.ok()) return out;
  for (const Instance& recovery : result->recoveries) {
    out.recoveries.push_back(CanonicalString(recovery));
  }
  for (const obs::Event& e : obs::EventSink::Global().Snapshot()) {
    out.event_counts[e.type]++;
  }
  out.num_homs = result->stats.num_homs;
  out.num_covers = result->stats.num_covers;
  out.num_covers_passing_sub = result->stats.num_covers_passing_sub;
  out.num_g_homs = result->stats.num_g_homs;
  out.num_covers_truncated = result->stats.num_covers_truncated;
  out.num_recoveries_before_dedup =
      result->stats.num_recoveries_before_dedup;
  out.num_candidates_rejected = result->stats.num_candidates_rejected;
  return out;
}

void ExpectThreadCountInvariant(const DependencySet& sigma,
                                const Instance& target) {
  RunSnapshot sequential = SnapshotRecover(sigma, target, 1);
  ASSERT_FALSE(sequential.recoveries.empty());
  for (size_t threads : {2u, 8u}) {
    RunSnapshot parallel = SnapshotRecover(sigma, target, threads);
    EXPECT_EQ(sequential.recoveries, parallel.recoveries)
        << "recovery set diverged at threads=" << threads;
    EXPECT_EQ(sequential.event_counts, parallel.event_counts)
        << "event histogram diverged at threads=" << threads;
    EXPECT_TRUE(sequential == parallel)
        << "stats counters diverged at threads=" << threads;
  }
}

DependencySet WarehouseSigma() {
  Result<DependencySet> sigma = ParseTgdSet(
      "Order(id, cust, item) -> Ledger(cust, id), Shipment(id, item); "
      "Stock(item, wh) -> Available(item)");
  EXPECT_TRUE(sigma.ok()) << sigma.status().ToString();
  return std::move(*sigma);
}

TEST(ParallelEngine, WarehouseByteIdenticalAcrossThreadCounts) {
  Result<Instance> j = ParseInstance(
      "{Ledger(ann, o1), Shipment(o1, tea), Ledger(bob, o2), "
      "Shipment(o2, mugs), Available(tea)}");
  ASSERT_TRUE(j.ok());
  ExpectThreadCountInvariant(WarehouseSigma(), *j);
}

TEST(ParallelEngine, TriangleByteIdenticalAcrossThreadCounts) {
  ExpectThreadCountInvariant(TriangleScenario::Sigma(),
                             TriangleScenario::Target(2, 3));
}

TEST(ParallelEngine, EmployeeByteIdenticalAcrossThreadCounts) {
  ExpectThreadCountInvariant(EmployeeScenario::Sigma(),
                             EmployeeScenario::Target(2, 2, 2));
}

// Step 7 verifies each distinct candidate once (docs/PARALLELISM.md):
// candidates are keyed in the pooled slices, representatives picked
// serially, verified in a second fan-out and assembled in g order, so
// duplicates count, reject and emit events exactly as at threads=1.
TEST(ParallelEngine, StepSevenMemoIdenticalAtOneAndFourThreads) {
  Result<DependencySet> rejecting = ParseTgdSet(
      "Rpm(x, y) -> Spm(x); Rpm(u, v) -> Tpm(v); Rpm(w, w) -> Upm(w)");
  ASSERT_TRUE(rejecting.ok());
  Result<Instance> rejecting_target =
      ParseInstance("{Spm(a), Spm(b), Tpm(a), Tpm(b), Tpm(c)}");
  ASSERT_TRUE(rejecting_target.ok());
  const std::pair<DependencySet, Instance> cases[] = {
      {BlowupScenario::Sigma(), BlowupScenario::Target(2, 4)},
      {BlowupScenario::Sigma(), BlowupScenario::Target(3, 3)},
      {std::move(*rejecting), std::move(*rejecting_target)},
  };
  for (const auto& [sigma, target] : cases) {
    SCOPED_TRACE(target.ToString());
    RunSnapshot sequential = SnapshotRecover(sigma, target, 1);
    RunSnapshot pooled = SnapshotRecover(sigma, target, 4);
    ASSERT_FALSE(sequential.recoveries.empty());
    EXPECT_GT(sequential.event_counts["recovery.deduped"], 0u);
    EXPECT_EQ(sequential.recoveries, pooled.recoveries);
    EXPECT_EQ(sequential.event_counts, pooled.event_counts);
    EXPECT_EQ(sequential.num_recoveries_before_dedup,
              pooled.num_recoveries_before_dedup);
    EXPECT_EQ(sequential.num_candidates_rejected,
              pooled.num_candidates_rejected);
    EXPECT_TRUE(sequential == pooled);
  }
}

TEST(ParallelEngine, CertainAnswersMatchAcrossThreadCounts) {
  DependencySet sigma = WarehouseSigma();
  Result<Instance> j = ParseInstance(
      "{Ledger(ann, o1), Shipment(o1, tea), Available(tea)}");
  ASSERT_TRUE(j.ok());
  Result<UnionQuery> q =
      ParseUnionQuery("Q(id) :- Order(id, cust, item)");
  ASSERT_TRUE(q.ok());

  AnswerSet sequential;
  for (size_t threads : {1u, 2u, 8u}) {
    Engine engine(DependencySet(sigma),
                  EngineOptions().WithThreads(threads));
    Result<AnswerSet> cert = engine.CertainAnswers(*q, *j);
    ASSERT_TRUE(cert.ok()) << cert.status().ToString();
    if (threads == 1) {
      sequential = *cert;
      EXPECT_FALSE(sequential.empty());
    } else {
      EXPECT_EQ(sequential, *cert) << "threads=" << threads;
    }
  }
}

// Per-cover g-homomorphism truncation (the max_results fix): exact mode
// must fail with the structured g-hom budget — never silently
// under-report — and it must do so at every thread count.
TEST(ParallelEngine, GHomTruncationFailsExactModeDeterministically) {
  DependencySet sigma = BlowupScenario::Sigma();
  Instance target = BlowupScenario::Target(2, 8);
  for (size_t threads : {1u, 4u}) {
    EngineOptions options = EngineOptions().WithThreads(threads);
    options.budgets.max_g_homs_per_cover = 4;
    Engine engine(DependencySet(sigma), options);
    Result<InverseChaseResult> result = engine.Recover(target);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status().ToString();
    const BudgetInfo* info = result.status().budget_info();
    ASSERT_NE(info, nullptr) << result.status().ToString();
    EXPECT_EQ(info->budget, "inverse_chase.g_homs") << "threads=" << threads;
    EXPECT_EQ(info->limit, 4u);
  }
}

// Partial mode keeps what was verified and reports the same interrupt.
TEST(ParallelEngine, GHomTruncationDegradesIdentically) {
  DependencySet sigma = BlowupScenario::Sigma();
  Instance target = BlowupScenario::Target(2, 8);
  std::vector<std::string> sequential;
  for (size_t threads : {1u, 4u}) {
    EngineOptions options = EngineOptions().WithThreads(threads);
    options.budgets.max_g_homs_per_cover = 4;
    Engine engine(DependencySet(sigma), options);
    Result<resilience::Degraded<InverseChaseResult>> degraded =
        engine.RecoverDegraded(target);
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    EXPECT_EQ(degraded->info.rung, "partial") << "threads=" << threads;
    ASSERT_FALSE(degraded->info.cause.ok());
    const BudgetInfo* info = degraded->info.cause.budget_info();
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->budget, "inverse_chase.g_homs");
    EXPECT_GT(degraded->value.stats.num_covers_truncated, 0u);
    std::vector<std::string> recovered;
    for (const Instance& r : degraded->value.recoveries) {
      recovered.push_back(CanonicalString(r));
    }
    if (threads == 1) {
      sequential = recovered;
      EXPECT_FALSE(sequential.empty());
    } else {
      EXPECT_EQ(sequential, recovered) << "threads=" << threads;
    }
  }
}

// The engine's long-lived pool is reused across calls and engines built
// with threads=0 size it from the hardware.
TEST(ParallelEngine, PoolLifecycle) {
  Engine sequential(WarehouseSigma());
  EXPECT_EQ(sequential.pool(), nullptr);

  Engine threaded(WarehouseSigma(), EngineOptions().WithThreads(3));
  ASSERT_NE(threaded.pool(), nullptr);
  EXPECT_EQ(threaded.pool()->num_threads(), 3u);

  Result<Instance> j = ParseInstance("{Ledger(ann, o1), Shipment(o1, t)}");
  ASSERT_TRUE(j.ok());
  for (int i = 0; i < 3; ++i) {
    Result<InverseChaseResult> result = threaded.Recover(*j);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->valid_for_recovery());
  }
}

}  // namespace
}  // namespace dxrec

// Differential harness for the columnar matcher (docs/STORAGE.md).
//
// Pipeline level: `Engine::Recover` output at threads 1 and 4 must
// reproduce the committed golden snapshots in tests/golden/pipeline.golden
// byte for byte — canonical recoveries in emission order, the seven
// deterministic InverseChaseStats counters, and the decision-event
// histogram — over the named workloads, the paper's running examples,
// and a few hundred generated scenarios. The goldens were recorded while
// a second (row-at-a-time) matcher still cross-checked every snapshot.
// Also cross-checks the semi-naive chase against the naive fixpoint and
// both against their goldens.
//
// Hom-search level: the brute-force oracle (tests/hom_oracle.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/homomorphism.h"
#include "core/engine.h"
#include "datagen/generators.h"
#include "datagen/random.h"
#include "datagen/scenarios.h"
#include "hom_oracle.h"
#include "logic/parser.h"
#include "obs/events.h"
#include "obs/stats.h"

namespace dxrec {
namespace {

DependencySet Sigma(const char* text) {
  Result<DependencySet> parsed = ParseTgdSet(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

Instance I(const char* text) {
  Result<Instance> parsed = ParseInstance(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *parsed;
}

DependencySet WarehouseSigma() {
  return Sigma(
      "Order(id, cust, item) -> Ledger(cust, id), Shipment(id, item); "
      "Stock(item, wh) -> Available(item)");
}

Instance WarehouseTarget() {
  return I(
      "{Ledger(ann, o1), Shipment(o1, tea), Ledger(bob, o2), "
      "Shipment(o2, mugs), Available(tea)}");
}

// Enables collectors + events for one run and restores the switches
// after (the globals never self-disable; see obs_events_test).
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

// Deterministic per-cover budgets for the generated sweep: trips must
// reproduce identically at every thread count (the shared cross-cover
// work pool would not — it is scheduling-dependent — so it stays off).
EngineOptions TightBudgets() {
  EngineOptions options;
  options.budgets.max_covers = 64;
  options.budgets.max_cover_nodes = 1u << 16;
  options.budgets.max_g_homs_per_cover = 128;
  options.budgets.max_recoveries = 128;
  return options;
}

// CanonicalString orders atoms by interned ids, and FreezeNulls numbers
// frozen constants from a process-wide counter, so both depend on what
// ran earlier in the process. The golden rendering depends on names only:
// frozen constants (@N<k>) are renumbered by first occurrence in
// `target`, atoms are sorted by their text with nulls masked (ties broken
// by null label), and nulls are then numbered in that order.
std::string StableString(const Instance& instance, const Instance& target) {
  std::map<Term, std::string> frozen;
  for (Term t : target.Dom()) {
    if (t.is_constant() && t.ToString().rfind("@N", 0) == 0) {
      frozen.emplace(t, "@F" + std::to_string(frozen.size()));
    }
  }
  auto name = [&frozen](Term t) {
    auto it = frozen.find(t);
    return it == frozen.end() ? t.ToString() : it->second;
  };
  std::vector<const Atom*> atoms;
  for (const Atom& a : instance.atoms()) atoms.push_back(&a);
  auto key = [&name](const Atom& a) {
    std::pair<std::string, std::vector<uint32_t>> k;
    k.first = RelationName(a.relation()) + "(";
    for (Term t : a.args()) {
      k.first += (t.is_null() ? std::string("_") : name(t)) + ",";
      if (t.is_null()) k.second.push_back(t.id());
    }
    return k;
  };
  std::sort(atoms.begin(), atoms.end(), [&key](const Atom* a, const Atom* b) {
    return key(*a) < key(*b);
  });
  std::map<Term, size_t> null_number;
  std::string out = "{";
  for (const Atom* a : atoms) {
    if (out.size() > 1) out += ", ";
    out += RelationName(a->relation()) + "(";
    for (uint32_t pos = 0; pos < a->arity(); ++pos) {
      Term t = a->arg(pos);
      if (pos > 0) out += ", ";
      if (t.is_null()) {
        auto [it, inserted] = null_number.try_emplace(t, null_number.size());
        out += "_N" + std::to_string(it->second);
      } else {
        out += name(t);
      }
    }
    out += ")";
  }
  return out + "}";
}

// Everything one Recover run promises to keep stable, rendered as the
// golden text block: a function of the input alone, never of the thread
// count.
std::string SnapshotRecover(const DependencySet& sigma,
                            const Instance& target, size_t threads,
                            EngineOptions options = EngineOptions()) {
  ScopedEvents events;
  options.parallel.threads = threads;
  Engine engine(DependencySet(sigma), options);
  Result<InverseChaseResult> result = engine.Recover(target);
  std::map<std::string, size_t> event_counts;
  for (const obs::Event& e : obs::EventSink::Global().Snapshot()) {
    event_counts[e.type]++;
  }
  std::ostringstream out;
  out << "ok " << (result.ok() ? 1 : 0) << "\n";
  if (!result.ok()) {
    out << "error " << static_cast<int>(result.status().code()) << "\n";
  } else {
    const InverseChaseStats& s = result->stats;
    out << "counters " << s.num_homs << " " << s.num_covers << " "
        << s.num_covers_passing_sub << " " << s.num_g_homs << " "
        << s.num_covers_truncated << " " << s.num_recoveries_before_dedup
        << " " << s.num_candidates_rejected << "\n";
  }
  for (const auto& [type, count] : event_counts) {
    out << "event " << type << " " << count << "\n";
  }
  if (result.ok()) {
    for (const Instance& recovery : result->recoveries) {
      out << "recovery " << StableString(recovery, target) << "\n";
    }
  }
  return out.str();
}

// tests/golden/pipeline.golden: blocks of "== <case>" followed by the
// case's snapshot lines.
const std::map<std::string, std::string>& Goldens() {
  static const std::map<std::string, std::string>& goldens = *[] {
    auto* out = new std::map<std::string, std::string>();
    std::ifstream in(std::string(DXREC_GOLDEN_DIR) + "/pipeline.golden");
    EXPECT_TRUE(in.good()) << "missing " DXREC_GOLDEN_DIR "/pipeline.golden";
    std::string line, name;
    while (std::getline(in, line)) {
      if (line.rfind("== ", 0) == 0) {
        name = line.substr(3);
        (*out)[name];
      } else {
        (*out)[name] += line + "\n";
      }
    }
    return out;
  }();
  return goldens;
}

void ExpectGolden(const std::string& name, const std::string& actual,
                  const std::string& context = "") {
  auto it = Goldens().find(name);
  ASSERT_NE(it, Goldens().end()) << "no golden for case " << name;
  EXPECT_EQ(it->second, actual) << name << " diverged from golden" << context;
}

// The core pipeline check: threads 1 and 4 both reproduce the golden.
void ExpectRecoverGolden(const std::string& name, const DependencySet& sigma,
                         const Instance& target,
                         const EngineOptions& options = EngineOptions(),
                         bool expect_recoveries = false) {
  if (expect_recoveries) {
    auto it = Goldens().find(name);
    ASSERT_NE(it, Goldens().end()) << "no golden for case " << name;
    EXPECT_NE(it->second.find("\nrecovery "), std::string::npos)
        << name << ": golden has no recoveries";
  }
  for (size_t threads : {1u, 4u}) {
    ExpectGolden(name, SnapshotRecover(sigma, target, threads, options),
                 " at threads=" + std::to_string(threads));
  }
}

// --- Named workloads -------------------------------------------------

TEST(ColumnarDiff, Warehouse) {
  ExpectRecoverGolden("warehouse", WarehouseSigma(), WarehouseTarget(),
                      EngineOptions(), /*expect_recoveries=*/true);
}

TEST(ColumnarDiff, Triangle) {
  ExpectRecoverGolden("triangle", TriangleScenario::Sigma(),
                      TriangleScenario::Target(2, 3),
                      EngineOptions(), /*expect_recoveries=*/true);
}

TEST(ColumnarDiff, Employee) {
  ExpectRecoverGolden("employee", EmployeeScenario::Sigma(),
                      EmployeeScenario::Target(2, 2, 2),
                      EngineOptions(), /*expect_recoveries=*/true);
}

// --- Paper running examples ------------------------------------------

TEST(ColumnarDiff, IntroProjection) {
  ExpectRecoverGolden("intro_projection", ProjectionScenario::Sigma(),
                      ProjectionScenario::Target(3),
                      EngineOptions(), /*expect_recoveries=*/true);
}

TEST(ColumnarDiff, IntroDiamond) {
  ExpectRecoverGolden("intro_diamond", DiamondScenario::Sigma(),
                      DiamondScenario::ValidTarget(3),
                      EngineOptions(), /*expect_recoveries=*/true);
}

TEST(ColumnarDiff, IntroSelfJoin) {
  ExpectRecoverGolden("intro_self_join", SelfJoinScenario::Sigma(),
                      SelfJoinScenario::Target(2, 2),
                      EngineOptions(), /*expect_recoveries=*/true);
}

TEST(ColumnarDiff, Example9Pair) {
  ExpectRecoverGolden("example9_pair", PairScenario::Sigma(),
                      PairScenario::Target(2, 2),
                      EngineOptions(), /*expect_recoveries=*/true);
}

TEST(ColumnarDiff, Example10Fan) {
  ExpectRecoverGolden("example10_fan", FanScenario::Sigma(),
                      FanScenario::Target(3),
                      EngineOptions(), /*expect_recoveries=*/true);
}

TEST(ColumnarDiff, Example12Overlap) {
  ExpectRecoverGolden("example12_overlap", OverlapScenario::Sigma(),
                      OverlapScenario::Target(2, 2),
                      EngineOptions(), /*expect_recoveries=*/true);
}

TEST(ColumnarDiff, BlowupOneCover) {
  ExpectRecoverGolden("blowup_one_cover", BlowupScenario::Sigma(),
                      BlowupScenario::Target(2, 2),
                      EngineOptions(), /*expect_recoveries=*/true);
}

// Targets with labeled nulls exercise the dictionary's null round-trip
// and the matcher's nulls-pinned fixed seeding (step 6 pins dom(J)).
TEST(ColumnarDiff, TargetWithNulls) {
  ExpectRecoverGolden("target_with_nulls", Sigma("R(x, y) -> S(x), P(y)"),
                      I("{S(a), P(_n1), P(_n2)}"));
}

TEST(ColumnarDiff, MixedArityRelation) {
  // The parser enforces uniform arity, but Atom::Make interns by name
  // only, so instances can mix arities within one relation. The columnar
  // store pads short rows with the no-code sentinel and the matcher must
  // filter per-row.
  Instance target;
  target.Add(Atom::Make("MixS", {Term::Constant("a"), Term::Constant("b")}));
  target.Add(Atom::Make("MixS", {Term::Constant("c")}));
  target.Add(Atom::Make("MixS", {Term::Constant("a"), Term::Constant("c")}));
  std::vector<Atom> pattern = {
      Atom::Make("MixS", {Term::Variable("x"), Term::Variable("y")})};
  std::set<std::string> columnar = oracle::MatcherHoms(pattern, target);
  EXPECT_EQ(columnar.size(), 2u);  // the arity-1 row never matches
  EXPECT_EQ(columnar, oracle::AllHoms(pattern, target));
}

// --- Generated scenarios ---------------------------------------------
// ~200 random mapping/source pairs (120 seeds x {ground, frozen-null}
// targets). Generated targets are chase images, so they are valid for
// recovery; budget trips must reproduce the golden too.

class ColumnarDiffGenerated : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarDiffGenerated, RecoverMatchesGolden) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);
  std::string tag = "cdg" + std::to_string(seed) + "_";
  MappingSpec spec;
  spec.num_tgds = 2 + rng.Index(2);
  spec.num_source_relations = 2;
  spec.num_target_relations = 2;
  spec.max_body_atoms = 2;
  spec.max_head_atoms = 2;
  DependencySet sigma = RandomMapping(spec, tag, &rng);
  SourceSpec source_spec;
  source_spec.num_tuples = 3 + rng.Index(3);
  source_spec.num_constants = 4;
  Instance source = RandomSource(sigma, source_spec, tag, &rng);
  for (bool ground : {true, false}) {
    Instance target = ChaseTarget(sigma, source, ground);
    if (target.size() == 0 || target.size() > 8) continue;  // keep cheap
    // Step 7's justification search on non-ground targets enumerates
    // substitutions over every fresh chase null — exponential and not
    // budget-tunable from EngineOptions — so cap the null count.
    if (!ground && target.TermsOfKind(TermKind::kNull).size() > 1) continue;
    ExpectRecoverGolden(
        "generated " + std::to_string(seed) + (ground ? " ground" : " nulls"),
        sigma, target, TightBudgets());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarDiffGenerated,
                         ::testing::Range<uint64_t>(1, 121));

// --- Semi-naive chase vs naive fixpoint ------------------------------
// Both must add the same atoms; s-t tgds terminate, so the fixpoints are
// directly comparable on every generated workload.

class SemiNaiveDiff : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SemiNaiveDiff, MatchesNaiveChase) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 104729 + 7);
  std::string tag = "snd" + std::to_string(seed) + "_";
  MappingSpec spec;
  spec.num_tgds = 2 + rng.Index(3);
  DependencySet sigma = RandomMapping(spec, tag, &rng);
  SourceSpec source_spec;
  source_spec.num_tuples = 4 + rng.Index(5);
  Instance source = RandomSource(sigma, source_spec, tag, &rng);
  NullSource naive_nulls;
  std::string naive =
      StableString(Chase(sigma, source, &naive_nulls), source);
  NullSource semi_nulls;
  std::string semi =
      StableString(ChaseSemiNaive(sigma, source, &semi_nulls), source);
  EXPECT_EQ(naive, semi) << "seed=" << seed;
  ExpectGolden("seminaive " + std::to_string(seed), naive + "\n");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemiNaiveDiff,
                         ::testing::Range<uint64_t>(1, 25));

// --- Stats attribution -----------------------------------------------
// The matcher must account its access paths truthfully: every candidate
// list it acquires is counted, and no list yields more matches than it
// scanned.

class ScopedStats {
 public:
  ScopedStats() : was_enabled_(obs::stats::Enabled()) {
    obs::stats::SetEnabled(true);
  }
  ~ScopedStats() { obs::stats::SetEnabled(was_enabled_); }

 private:
  bool was_enabled_;
};

TEST(ColumnarDiff, StatsAttribution) {
  ScopedStats stats;
  Engine engine(WarehouseSigma());
  Result<InverseChaseResult> result = engine.Recover(WarehouseTarget());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  obs::stats::RunStats run;
  ASSERT_TRUE(obs::stats::LastRun(&run));
  EXPECT_GT(run.hom_enum.searches, 0u);
  for (const auto& [relation, access] : run.AggregateRelations()) {
    EXPECT_GE(access.tuples_scanned, access.tuples_matched);
    EXPECT_GE(access.lists, access.indexed_lists);
  }
}

}  // namespace
}  // namespace dxrec

// dxrecd server unit tests: wire format, protocol taxonomy, admission
// queue, and a full server driven over the in-memory transport
// (docs/SERVING.md). The concurrent multi-client stress lives in
// serve_stress_test.cc.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/symbol_table.h"
#include "core/engine.h"
#include "logic/io.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/fault_injection.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/transport.h"
#include "serve/wire.h"

namespace dxrec {
namespace serve {
namespace {

// --- wire.h -----------------------------------------------------------

TEST(Wire, ParseSerializeRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,"x",true,null],"b":{"c":"q\"uote","d":-7}})";
  Result<JsonValue> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Serialize(), text);
}

TEST(Wire, UnicodeEscapesDecodeToUtf8) {
  Result<JsonValue> parsed = ParseJson(R"({"s":"éA"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("s")->AsString(), "\xc3\xa9"  "A");
}

TEST(Wire, ErrorsCarryByteOffsets) {
  Result<JsonValue> parsed = ParseJson(R"({"a": })");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("at byte"), std::string::npos);
}

TEST(Wire, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseJson(R"({"a":1} x)").ok());
}

TEST(Wire, DepthCapRejectsDeepNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(Wire, FindOnNonObjectIsNull) {
  Result<JsonValue> parsed = ParseJson("[1]");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("a"), nullptr);
}

// --- protocol.h -------------------------------------------------------

TEST(Protocol, ParseRequestFillsFields) {
  std::string id;
  Result<Request> request = ParseRequest(
      R"js({"id":"r1","op":"certain","session":"s","query":"Q(x) :- T(x)","deadline_ms":250})js",
      &id);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(id, "r1");
  EXPECT_EQ(request->op, Op::kCertain);
  EXPECT_EQ(request->session, "s");
  EXPECT_EQ(request->query, "Q(x) :- T(x)");
  EXPECT_EQ(request->deadline_ms, 250);
}

TEST(Protocol, MissingIdIsBadRequest) {
  std::string id;
  Result<Request> request = ParseRequest(R"({"op":"ping"})", &id);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(WireErrorFromRequestParse(request.status()).kind,
            ErrorKind::kBadRequest);
}

TEST(Protocol, UnknownOpMapsToUnknownOp) {
  std::string id;
  Result<Request> request =
      ParseRequest(R"({"id":"r","op":"frobnicate"})", &id);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(id, "r");  // recoverable: the error response can echo it
  EXPECT_EQ(WireErrorFromRequestParse(request.status()).kind,
            ErrorKind::kUnknownOp);
}

TEST(Protocol, StatusMappingSplitsResourceExhaustedByBudget) {
  BudgetInfo deadline;
  deadline.budget = "resilience.deadline";
  EXPECT_EQ(WireErrorFromStatus(Status::ResourceExhausted(deadline)).kind,
            ErrorKind::kDeadline);

  BudgetInfo cancelled;
  cancelled.budget = "resilience.cancelled";
  EXPECT_EQ(WireErrorFromStatus(Status::ResourceExhausted(cancelled)).kind,
            ErrorKind::kCancelled);

  BudgetInfo nodes;
  nodes.budget = "cover.nodes";
  nodes.limit = 64;
  WireError budget = WireErrorFromStatus(Status::ResourceExhausted(nodes));
  EXPECT_EQ(budget.kind, ErrorKind::kBudgetExhausted);
  ASSERT_TRUE(budget.has_budget);
  EXPECT_EQ(budget.budget.limit, 64u);

  EXPECT_EQ(WireErrorFromStatus(Status::ResourceExhausted("bare")).kind,
            ErrorKind::kBudgetExhausted);
  EXPECT_EQ(WireErrorFromStatus(Status::NotFound("s")).kind,
            ErrorKind::kUnknownSession);
  EXPECT_EQ(
      WireErrorFromStatus(Status::InvalidArgument("x"), true).kind,
      ErrorKind::kParseError);
  EXPECT_EQ(
      WireErrorFromStatus(Status::InvalidArgument("x"), false).kind,
      ErrorKind::kBadRequest);
}

TEST(Protocol, ErrorResponseCarriesTaxonomyAndBudget) {
  BudgetInfo info;
  info.budget = "cover.nodes";
  info.limit = 10;
  info.consumed = 10;
  info.phase = "cover_enum";
  WireError error = WireErrorFromStatus(Status::ResourceExhausted(info));
  Result<JsonValue> parsed = ParseJson(ErrorResponse("r9", error));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("id")->AsString(), "r9");
  EXPECT_FALSE(parsed->Find("ok")->AsBool());
  const JsonValue* e = parsed->Find("error");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->Find("kind")->AsString(), "budget_exhausted");
  ASSERT_NE(e->Find("budget"), nullptr);
  EXPECT_EQ(e->Find("budget")->Find("name")->AsString(), "cover.nodes");
  EXPECT_EQ(e->Find("budget")->Find("limit")->AsInt(), 10);
}

// --- admission.h ------------------------------------------------------

TEST(Admission, VerdictLadder) {
  AdmissionQueue<int> queue(/*capacity=*/4, /*soft_limit=*/2);
  EXPECT_EQ(queue.Offer(1), AdmissionVerdict::kAdmit);
  EXPECT_EQ(queue.Offer(2), AdmissionVerdict::kAdmit);
  EXPECT_EQ(queue.Offer(3), AdmissionVerdict::kAdmitDegraded);
  EXPECT_EQ(queue.Offer(4), AdmissionVerdict::kAdmitDegraded);
  EXPECT_EQ(queue.Offer(5), AdmissionVerdict::kShed);
  EXPECT_EQ(queue.depth(), 4u);
}

TEST(Admission, CloseShedsNewAndDrainsQueued) {
  AdmissionQueue<int> queue(4);
  ASSERT_EQ(queue.Offer(1), AdmissionVerdict::kAdmit);
  queue.Close();
  EXPECT_EQ(queue.Offer(2), AdmissionVerdict::kShed);
  std::optional<int> first = queue.Take();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 1);
  EXPECT_FALSE(queue.Take().has_value());
}

TEST(Admission, SoftLimitDefaultsToHalfCapacity) {
  AdmissionQueue<int> queue(8);
  EXPECT_EQ(queue.soft_limit(), 4u);
  AdmissionQueue<int> tiny(1);
  EXPECT_EQ(tiny.soft_limit(), 1u);
}

// --- full server over the in-memory transport -------------------------

constexpr char kSigma[] = "S1(x) -> exists y: T1(x, y)";
constexpr char kTarget[] = "{T1(a, b), T1(b, c)}";
// Queries run over the recovered *source* instances, so they name the
// source relation S1; a target-relation query has empty certain answers.
constexpr char kQuery[] = "Q(x) :- S1(x)";

std::string OpenLine(const std::string& session, const std::string& sigma,
                     const std::string& target) {
  JsonObject request;
  request["id"] = JsonValue("open");
  request["op"] = JsonValue("open_session");
  request["session"] = JsonValue(session);
  request["sigma"] = JsonValue(sigma);
  request["target"] = JsonValue(target);
  return JsonValue(std::move(request)).Serialize();
}

std::string SessionLine(const std::string& op, const std::string& session,
                        const std::string& query = "") {
  JsonObject request;
  request["id"] = JsonValue(op);
  request["op"] = JsonValue(op);
  request["session"] = JsonValue(session);
  if (!query.empty()) request["query"] = JsonValue(query);
  return JsonValue(std::move(request)).Serialize();
}

std::vector<std::string> Strings(const JsonValue* array) {
  std::vector<std::string> out;
  if (array == nullptr || !array->is_array()) return out;
  for (const JsonValue& v : array->AsArray()) out.push_back(v.AsString());
  return out;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Get();
}

// Turns on the global metrics registry for one test, so the
// serve.recovery_set_* counters count.
class ScopedObs {
 public:
  ScopedObs() : was_enabled_(obs::Enabled()) { obs::SetEnabled(true); }
  ~ScopedObs() { obs::SetEnabled(was_enabled_); }

 private:
  bool was_enabled_;
};

class ServeTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = ServerOptions()) {
    auto listener = std::make_unique<LocalListener>();
    local_ = listener.get();
    server_ = std::make_unique<Server>(std::move(options));
    ASSERT_TRUE(server_->Start(std::move(listener)).ok());
  }

  std::unique_ptr<Connection> Connect() {
    Result<std::unique_ptr<Connection>> conn = local_->Connect();
    EXPECT_TRUE(conn.ok());
    return std::move(*conn);
  }

  // One closed-loop round trip, response parsed.
  JsonValue Call(Connection& conn, const std::string& line) {
    EXPECT_TRUE(conn.WriteLine(line).ok());
    Result<std::string> reply = conn.ReadLine();
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    Result<JsonValue> parsed = ParseJson(reply.ok() ? *reply : "{}");
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    return parsed.ok() ? std::move(*parsed) : JsonValue();
  }

  void TearDown() override {
    testing::FaultInjector::Global().Reset();
    if (server_ != nullptr) server_->Drain();
  }

  LocalListener* local_ = nullptr;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, PingPongs) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  JsonValue reply = Call(*conn, R"({"id":"1","op":"ping"})");
  EXPECT_TRUE(reply.Find("ok")->AsBool());
  EXPECT_EQ(reply.Find("id")->AsString(), "1");
}

TEST_F(ServeTest, SessionLifecycleAndCertainMatchesEngine) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();

  JsonObject open;
  open["id"] = JsonValue("o");
  open["op"] = JsonValue("open_session");
  open["session"] = JsonValue("s1");
  open["sigma"] = JsonValue(kSigma);
  open["target"] = JsonValue(kTarget);
  JsonValue opened = Call(*conn, JsonValue(std::move(open)).Serialize());
  ASSERT_TRUE(opened.Find("ok")->AsBool()) << opened.Serialize();
  EXPECT_EQ(opened.Find("sigma_tgds")->AsInt(), 1);
  EXPECT_EQ(opened.Find("target_atoms")->AsInt(), 2);

  JsonObject certain;
  certain["id"] = JsonValue("c");
  certain["op"] = JsonValue("certain");
  certain["session"] = JsonValue("s1");
  certain["query"] = JsonValue(kQuery);
  JsonValue answered = Call(*conn, JsonValue(std::move(certain)).Serialize());
  ASSERT_TRUE(answered.Find("ok")->AsBool()) << answered.Serialize();
  EXPECT_EQ(answered.Find("rung")->AsString(), "exact");
  EXPECT_EQ(answered.Find("completeness")->AsString(), "exact");

  // The served answers must be byte-identical to a direct engine run.
  Engine engine(*ParseTgdSet(kSigma), EngineOptions());
  Result<AnswerSet> expected =
      engine.CertainAnswers(*ParseUnionQuery(kQuery), *ParseInstance(kTarget));
  ASSERT_TRUE(expected.ok());
  std::vector<std::string> expected_strings;
  for (const AnswerTuple& tuple : *expected) {
    expected_strings.push_back(ToString(tuple));
  }
  const JsonArray& got = answered.Find("answers")->AsArray();
  ASSERT_EQ(got.size(), expected_strings.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].AsString(), expected_strings[i]);
  }

  JsonValue closed =
      Call(*conn, R"({"id":"x","op":"close_session","session":"s1"})");
  EXPECT_TRUE(closed.Find("ok")->AsBool());
  JsonValue gone = Call(
      *conn,
      R"js({"id":"y","op":"certain","session":"s1","query":"Q(x) :- T1(x, y)"})js");
  EXPECT_FALSE(gone.Find("ok")->AsBool());
  EXPECT_EQ(gone.Find("error")->Find("kind")->AsString(), "unknown_session");
}

TEST_F(ServeTest, InlineOneShotCertain) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  JsonObject request;
  request["id"] = JsonValue("1");
  request["op"] = JsonValue("certain");
  request["sigma"] = JsonValue(kSigma);
  request["target"] = JsonValue(kTarget);
  request["query"] = JsonValue(kQuery);
  JsonValue reply = Call(*conn, JsonValue(std::move(request)).Serialize());
  ASSERT_TRUE(reply.Find("ok")->AsBool()) << reply.Serialize();
  EXPECT_EQ(reply.Find("answers")->AsArray().size(), 2u);
}

TEST_F(ServeTest, RecoverReturnsSerializedInstances) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  JsonObject request;
  request["id"] = JsonValue("1");
  request["op"] = JsonValue("recover");
  request["sigma"] = JsonValue(kSigma);
  request["target"] = JsonValue(kTarget);
  JsonValue reply = Call(*conn, JsonValue(std::move(request)).Serialize());
  ASSERT_TRUE(reply.Find("ok")->AsBool()) << reply.Serialize();
  EXPECT_TRUE(reply.Find("valid_for_recovery")->AsBool());
  EXPECT_GE(reply.Find("recoveries")->AsArray().size(), 1u);
}

TEST_F(ServeTest, ErrorTaxonomyOnTheWire) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();

  EXPECT_EQ(Call(*conn, "{not json").Find("error")->Find("kind")->AsString(),
            "bad_request");
  EXPECT_EQ(Call(*conn, R"({"id":"1","op":"warp"})")
                .Find("error")->Find("kind")->AsString(),
            "unknown_op");
  EXPECT_EQ(
      Call(*conn,
           R"js({"id":"2","op":"certain","session":"nope","query":"Q(x) :- T1(x, y)"})js")
          .Find("error")->Find("kind")->AsString(),
      "unknown_session");
  EXPECT_EQ(
      Call(*conn,
           R"js({"id":"3","op":"certain","sigma":"<<","target":"{}","query":"Q(x) :- T1(x, y)"})js")
          .Find("error")->Find("kind")->AsString(),
      "parse_error");

  JsonObject open;
  open["id"] = JsonValue("4");
  open["op"] = JsonValue("open_session");
  open["session"] = JsonValue("dup");
  open["sigma"] = JsonValue(kSigma);
  open["target"] = JsonValue(kTarget);
  const std::string line = JsonValue(std::move(open)).Serialize();
  EXPECT_TRUE(Call(*conn, line).Find("ok")->AsBool());
  EXPECT_EQ(Call(*conn, line).Find("error")->Find("kind")->AsString(),
            "session_exists");
}

TEST_F(ServeTest, StatsReportsQueueAndSessions) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  JsonValue stats = Call(*conn, R"({"id":"1","op":"stats"})");
  ASSERT_TRUE(stats.Find("ok")->AsBool());
  EXPECT_EQ(stats.Find("sessions")->AsInt(), 0);
  EXPECT_EQ(stats.Find("queue_capacity")->AsInt(), 64);
  EXPECT_FALSE(stats.Find("draining")->AsBool());
}

TEST_F(ServeTest, AcceptReapsClosedConnections) {
  StartServer();
  for (int i = 0; i < 200; ++i) {
    std::unique_ptr<Connection> conn = Connect();
    ASSERT_TRUE(Call(*conn, R"({"id":"p","op":"ping"})").Find("ok")->AsBool());
    conn->Close();
  }
  // Each accept reaps the readers that finished before it. The last
  // closed reader may still be exiting when the next accept runs, so
  // retry on a fresh connection after a pause.
  int64_t connections = -1;
  for (int attempt = 0; attempt < 100 && connections != 1; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::unique_ptr<Connection> conn = Connect();
    connections = Call(*conn, R"({"id":"s","op":"stats"})")
                      .Find("connections")->AsInt();
    conn->Close();
  }
  EXPECT_LE(connections, 1);
}

TEST_F(ServeTest, DuplicateOpenParsesNothing) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_TRUE(
      Call(*conn, OpenLine("taken", kSigma, kTarget)).Find("ok")->AsBool());
  const size_t constants = Symbols().constants.size();
  JsonValue reply = Call(
      *conn, OpenLine("taken", kSigma, "{T1(dup_open_unseen_constant, b)}"));
  ASSERT_FALSE(reply.Find("ok")->AsBool());
  EXPECT_EQ(reply.Find("error")->Find("kind")->AsString(), "session_exists");
  EXPECT_EQ(Symbols().constants.size(), constants);
}

// Two tgds into one target relation: four null-free recoveries, so the
// served recover reply can be compared byte for byte.
constexpr char kChoiceSigma[] = "S1(x) -> T1(x); S2(x) -> T1(x)";
constexpr char kChoiceTarget[] = "{T1(a), T1(b)}";

TEST_F(ServeTest, WarmSessionRequestsMatchFreshEngineAndBuildOnce) {
  ScopedObs obs_on;
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_TRUE(Call(*conn, OpenLine("warm", kChoiceSigma, kChoiceTarget))
                  .Find("ok")->AsBool());
  EXPECT_EQ(Call(*conn, R"({"id":"s","op":"stats"})")
                .Find("recovery_sets")->AsInt(),
            0)
      << "nothing is built at open";

  const std::vector<std::string> queries = {
      "Q(x) :- S1(x)", "Q(x) :- S1(x) | Q(x) :- S2(x)", "Q(x) :- S2(x)"};
  Engine fresh(*ParseTgdSet(kChoiceSigma), EngineOptions().WithThreads(1));
  const Instance target = *ParseInstance(kChoiceTarget);
  std::vector<std::vector<std::string>> want_answers;
  for (const std::string& q : queries) {
    Result<AnswerSet> answers =
        fresh.CertainAnswers(*ParseUnionQuery(q), target);
    ASSERT_TRUE(answers.ok());
    std::vector<std::string> strings;
    for (const AnswerTuple& tuple : *answers) {
      strings.push_back(ToString(tuple));
    }
    want_answers.push_back(std::move(strings));
  }
  EXPECT_EQ(want_answers[1], (std::vector<std::string>{"(a)", "(b)"}));
  Result<InverseChaseResult> recovered = fresh.Recover(target);
  ASSERT_TRUE(recovered.ok());
  std::vector<std::string> want_recoveries;
  for (const Instance& r : recovered->recoveries) {
    want_recoveries.push_back(SerializeInstance(r));
  }
  ASSERT_GT(want_recoveries.size(), 1u);

  const uint64_t builds = CounterValue("serve.recovery_set_builds");
  const uint64_t hits = CounterValue("serve.recovery_set_hits");
  size_t variables = 0;
  const int kRounds = 8;
  for (int round = 0; round <= kRounds; ++round) {
    for (size_t i = 0; i < queries.size(); ++i) {
      JsonValue reply = Call(*conn, SessionLine("certain", "warm", queries[i]));
      ASSERT_TRUE(reply.Find("ok")->AsBool()) << reply.Serialize();
      EXPECT_EQ(reply.Find("rung")->AsString(), "exact");
      EXPECT_EQ(Strings(reply.Find("answers")), want_answers[i]);
    }
    JsonValue reply = Call(*conn, SessionLine("recover", "warm"));
    ASSERT_TRUE(reply.Find("ok")->AsBool()) << reply.Serialize();
    EXPECT_EQ(reply.Find("rung")->AsString(), "exact");
    EXPECT_EQ(Strings(reply.Find("recoveries")), want_recoveries);
    // Round 0 builds the set and interns the queries' variables; warm
    // rounds rename nothing apart, so they intern nothing.
    if (round == 0) variables = Symbols().variables.size();
  }
  EXPECT_EQ(Symbols().variables.size(), variables);
  EXPECT_EQ(CounterValue("serve.recovery_set_builds") - builds, 1u);
  EXPECT_EQ(CounterValue("serve.recovery_set_hits") - hits,
            (kRounds + 1) * (queries.size() + 1) - 1);

  JsonValue stats = Call(*conn, R"({"id":"s","op":"stats"})");
  EXPECT_EQ(stats.Find("recovery_sets")->AsInt(), 1);
  size_t atoms = 0;
  for (const Instance& r : recovered->recoveries) atoms += r.size();
  EXPECT_EQ(stats.Find("recovery_set_atoms")->AsInt(),
            static_cast<int64_t>(atoms));

  // Closing the session releases its set.
  ASSERT_TRUE(Call(*conn, SessionLine("close_session", "warm"))
                  .Find("ok")->AsBool());
  stats = Call(*conn, R"({"id":"s","op":"stats"})");
  EXPECT_EQ(stats.Find("recovery_sets")->AsInt(), 0);
  EXPECT_EQ(stats.Find("recovery_set_atoms")->AsInt(), 0);
}

TEST_F(ServeTest, TrippedFirstRequestStoresNothing) {
  ScopedObs obs_on;
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_TRUE(
      Call(*conn, OpenLine("trip", kSigma, kTarget)).Find("ok")->AsBool());
  const uint64_t builds = CounterValue("serve.recovery_set_builds");

  testing::FaultPlan plan;
  plan.site = "inverse_chase.cover";
  plan.kind = testing::FaultKind::kDeadline;
  testing::FaultInjector::Global().Arm(plan);
  JsonValue tripped = Call(*conn, SessionLine("certain", "trip", kQuery));
  ASSERT_TRUE(tripped.Find("ok")->AsBool()) << tripped.Serialize();
  EXPECT_TRUE(testing::FaultInjector::Global().fired());
  EXPECT_NE(tripped.Find("rung")->AsString(), "exact");
  EXPECT_EQ(CounterValue("serve.recovery_set_builds"), builds);
  EXPECT_EQ(Call(*conn, R"({"id":"s","op":"stats"})")
                .Find("recovery_sets")->AsInt(),
            0);

  JsonValue exact = Call(*conn, SessionLine("certain", "trip", kQuery));
  ASSERT_TRUE(exact.Find("ok")->AsBool()) << exact.Serialize();
  EXPECT_EQ(exact.Find("rung")->AsString(), "exact");
  EXPECT_EQ(Strings(exact.Find("answers")),
            (std::vector<std::string>{"(a)", "(b)"}));
  EXPECT_EQ(CounterValue("serve.recovery_set_builds"), builds + 1);
  EXPECT_EQ(Call(*conn, R"({"id":"s","op":"stats"})")
                .Find("recovery_sets")->AsInt(),
            1);
}

TEST_F(ServeTest, InvalidTargetFailsEveryCertain) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  // Td(t_only) forces Rd(t_only), whose chase also yields Sd(t_only).
  ASSERT_TRUE(Call(*conn, OpenLine("invalid",
                                   "Rd(x) -> Td(x); Rd(x2) -> Sd(x2); "
                                   "Md(x3) -> Sd(x3)",
                                   "{Td(t_only)}"))
                  .Find("ok")->AsBool());
  for (int i = 0; i < 3; ++i) {
    JsonValue certain =
        Call(*conn, SessionLine("certain", "invalid", "Q(x) :- Rd(x)"));
    ASSERT_FALSE(certain.Find("ok")->AsBool());
    EXPECT_EQ(certain.Find("error")->Find("kind")->AsString(),
              "failed_precondition");
    JsonValue recover = Call(*conn, SessionLine("recover", "invalid"));
    ASSERT_TRUE(recover.Find("ok")->AsBool()) << recover.Serialize();
    EXPECT_EQ(recover.Find("rung")->AsString(), "exact");
    EXPECT_FALSE(recover.Find("valid_for_recovery")->AsBool());
  }
}

TEST_F(ServeTest, DeadlineTripDegradesToSoundRung) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();

  // Fire a deadline inside the engine: with degradation on, the server
  // must answer ok with a sound sub-exact rung, not an error.
  testing::FaultPlan plan;
  plan.site = "inverse_chase.cover";
  plan.kind = testing::FaultKind::kDeadline;
  plan.seed = 0;
  testing::FaultInjector::Global().Arm(plan);

  JsonObject request;
  request["id"] = JsonValue("1");
  request["op"] = JsonValue("certain");
  request["sigma"] = JsonValue(kSigma);
  request["target"] = JsonValue(kTarget);
  request["query"] = JsonValue(kQuery);
  JsonValue reply = Call(*conn, JsonValue(std::move(request)).Serialize());
  ASSERT_TRUE(reply.Find("ok")->AsBool()) << reply.Serialize();
  EXPECT_NE(reply.Find("rung")->AsString(), "exact");
  ASSERT_NE(reply.Find("degraded_cause"), nullptr);
  EXPECT_TRUE(testing::FaultInjector::Global().fired());
}

TEST_F(ServeTest, SessionFaultSurfacesStructuredErrorAndServerSurvives) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();

  testing::FaultPlan plan;
  plan.site = "serve.session";
  plan.kind = testing::FaultKind::kStatus;
  plan.code = StatusCode::kInternal;
  plan.message = "injected session fault";
  testing::FaultInjector::Global().Arm(plan);

  JsonObject open;
  open["id"] = JsonValue("1");
  open["op"] = JsonValue("open_session");
  open["session"] = JsonValue("s");
  open["sigma"] = JsonValue(kSigma);
  open["target"] = JsonValue(kTarget);
  JsonValue reply = Call(*conn, JsonValue(open).Serialize());
  ASSERT_FALSE(reply.Find("ok")->AsBool());
  EXPECT_EQ(reply.Find("error")->Find("kind")->AsString(), "internal");

  // The injector fires once; the same open must now succeed.
  open["id"] = JsonValue("2");
  EXPECT_TRUE(Call(*conn, JsonValue(std::move(open)).Serialize())
                  .Find("ok")->AsBool());
}

TEST_F(ServeTest, DrainRejectsNewWorkAndStops) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_TRUE(Call(*conn, R"({"id":"1","op":"ping"})").Find("ok")->AsBool());

  server_->Drain();
  EXPECT_TRUE(server_->draining());
  // The drained server closed the connection; writes may still land in
  // the pipe, but no response comes back.
  conn->WriteLine(R"({"id":"2","op":"ping"})");
  Result<std::string> reply = conn->ReadLine();
  EXPECT_FALSE(reply.ok());

  server_->Drain();  // idempotent
}

TEST_F(ServeTest, DrainWithoutStartDoesNotHang) {
  ServerOptions options;
  options.drain_timeout_seconds = 0.05;
  Server server(options);
  server.Drain();
  SUCCEED();
}

}  // namespace
}  // namespace serve
}  // namespace dxrec

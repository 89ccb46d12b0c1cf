// Concurrent multi-client stress for the dxrecd server (docs/SERVING.md):
// connection churn, interleaved requests on shared and per-client
// sessions, racing first requests on a cold session, and byte-identical
// per-session results against one-shot engine runs. Designed to run
// clean under TSan (scripts/check.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/symbol_table.h"
#include "core/engine.h"
#include "datagen/generators.h"
#include "datagen/random.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "serve/wire.h"

namespace dxrec {
namespace serve {
namespace {

struct Workload {
  std::string sigma;
  std::string target;
  std::string query;
};

// Distinct shapes so shared and per-client sessions return different
// answer sets; a cross-session mixup fails the byte comparison.
std::vector<Workload> Workloads() {
  // Queries run over the recovered *source* instances (source relations).
  return {
      {"S1(x) -> exists y: T1(x, y)", "{T1(a, b), T1(b, c), T1(c, d)}",
       "Q(x) :- S1(x)"},
      {"S2(x, y) -> T2(x, y)", "{T2(a, b), T2(b, a)}",
       "Q(x, y) :- S2(x, y)"},
      {"S3(x) -> T3(x, x)", "{T3(a, a), T3(b, b)}", "Q(x) :- S3(x)"},
  };
}

// The expected wire "answers" array for a workload, via a one-shot
// engine: the serialization contract is ToString per tuple in AnswerSet
// order (sorted, hence deterministic).
std::vector<std::string> ExpectedAnswers(const Workload& workload) {
  Engine engine(*ParseTgdSet(workload.sigma), EngineOptions());
  Result<AnswerSet> answers = engine.CertainAnswers(
      *ParseUnionQuery(workload.query), *ParseInstance(workload.target));
  EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  std::vector<std::string> out;
  if (answers.ok()) {
    for (const AnswerTuple& tuple : *answers) out.push_back(ToString(tuple));
  }
  return out;
}

std::string CertainLine(const std::string& id, const std::string& session,
                        const std::string& query) {
  JsonObject request;
  request["id"] = JsonValue(id);
  request["op"] = JsonValue("certain");
  request["session"] = JsonValue(session);
  request["query"] = JsonValue(query);
  return JsonValue(std::move(request)).Serialize();
}

std::string OpenLine(const std::string& id, const std::string& session,
                     const Workload& workload) {
  JsonObject request;
  request["id"] = JsonValue(id);
  request["op"] = JsonValue("open_session");
  request["session"] = JsonValue(session);
  request["sigma"] = JsonValue(workload.sigma);
  request["target"] = JsonValue(workload.target);
  return JsonValue(std::move(request)).Serialize();
}

// Closed-loop round trip; false on transport failure.
bool Call(Connection& conn, const std::string& line, JsonValue* reply) {
  if (!conn.WriteLine(line).ok()) return false;
  Result<std::string> raw = conn.ReadLine();
  if (!raw.ok()) return false;
  Result<JsonValue> parsed = ParseJson(*raw);
  if (!parsed.ok()) return false;
  *reply = std::move(*parsed);
  return true;
}

bool AnswersMatch(const JsonValue& reply,
                  const std::vector<std::string>& expected) {
  const JsonValue* ok = reply.Find("ok");
  if (ok == nullptr || !ok->AsBool()) return false;
  const JsonValue* answers = reply.Find("answers");
  if (answers == nullptr || !answers->is_array()) return false;
  const JsonArray& got = answers->AsArray();
  if (got.size() != expected.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].AsString() != expected[i]) return false;
  }
  return true;
}

TEST(ServeStress, ConcurrentClientsChurnSessionsStayIsolated) {
  const size_t kClients = 8;
  const size_t kIterations = 40;
  const size_t kChurnEvery = 10;  // reconnect cadence per client

  const std::vector<Workload> workloads = Workloads();
  std::vector<std::vector<std::string>> expected;
  expected.reserve(workloads.size());
  for (const Workload& w : workloads) expected.push_back(ExpectedAnswers(w));

  ServerOptions options;
  options.threads = 4;
  // Roomy queue: this test checks determinism under concurrency, not
  // shedding, so nothing should be overload-degraded.
  options.queue_capacity = 1024;
  options.queue_soft_limit = 1023;
  auto listener = std::make_unique<LocalListener>();
  LocalListener* local = listener.get();
  Server server(options);
  ASSERT_TRUE(server.Start(std::move(listener)).ok());

  // Shared sessions, opened once before the clients start.
  {
    Result<std::unique_ptr<Connection>> admin = local->Connect();
    ASSERT_TRUE(admin.ok());
    for (size_t w = 0; w < workloads.size(); ++w) {
      JsonValue reply;
      ASSERT_TRUE(Call(**admin,
                       OpenLine("admin-" + std::to_string(w),
                                "shared" + std::to_string(w), workloads[w]),
                       &reply));
      ASSERT_TRUE(reply.Find("ok")->AsBool()) << reply.Serialize();
    }
    (*admin)->Close();
  }

  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> transport_failures{0};
  std::atomic<uint64_t> completed{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const size_t own = c % workloads.size();
      const std::string own_session = "client" + std::to_string(c);
      std::unique_ptr<Connection> conn;
      bool own_open = false;
      for (size_t i = 0; i < kIterations; ++i) {
        if (conn == nullptr || i % kChurnEvery == 0) {
          // Churn: drop the connection mid-stream and reconnect. The
          // session registry is connection-independent, so the
          // per-client session stays open across reconnects.
          if (conn != nullptr) conn->Close();
          Result<std::unique_ptr<Connection>> next = local->Connect();
          if (!next.ok()) {
            ++transport_failures;
            return;
          }
          conn = std::move(*next);
        }
        if (!own_open) {
          JsonValue reply;
          if (!Call(*conn, OpenLine("open", own_session, workloads[own]),
                    &reply)) {
            ++transport_failures;
            return;
          }
          if (!reply.Find("ok")->AsBool()) {
            ++mismatches;
            return;
          }
          own_open = true;
        }

        // Interleave: own session, then a shared one.
        const size_t shared = (c + i) % workloads.size();
        JsonValue reply;
        if (!Call(*conn, CertainLine("own", own_session,
                                     workloads[own].query),
                  &reply)) {
          ++transport_failures;
          return;
        }
        if (!AnswersMatch(reply, expected[own])) ++mismatches;
        if (!Call(*conn,
                  CertainLine("shared", "shared" + std::to_string(shared),
                              workloads[shared].query),
                  &reply)) {
          ++transport_failures;
          return;
        }
        if (!AnswersMatch(reply, expected[shared])) ++mismatches;
        completed += 2;
      }
      JsonValue reply;
      Call(*conn,
           R"({"id":"bye","op":"close_session","session":")" + own_session +
               R"("})",
           &reply);
      conn->Close();
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(transport_failures.load(), 0u);
  EXPECT_EQ(completed.load(), kClients * kIterations * 2);

  server.Drain();
  EXPECT_TRUE(server.draining());
}

TEST(ServeStress, ConcurrentFirstRequestsOnColdSessionAgree) {
  // Blowup p=2, q=4: one cover and 70 recoveries, slow enough that the
  // first requests race to build the session's recovery set.
  const Workload workload{
      "Rb(x, y) -> Sb(x); Rb(u, v) -> Tb(v)",
      "{Sb(a1), Sb(a2), Tb(c1), Tb(c2), Tb(c3), Tb(c4)}",
      "Q(x) :- Rb(x, y)"};
  const Workload second_query{workload.sigma, workload.target,
                              "Q(y) :- Rb(x, y)"};
  const std::vector<std::string> expected = ExpectedAnswers(workload);
  const std::vector<std::string> expected_second =
      ExpectedAnswers(second_query);
  ASSERT_EQ(expected.size(), 2u);
  ASSERT_EQ(expected_second.size(), 4u);

  ServerOptions options;
  options.threads = 4;
  options.queue_capacity = 1024;
  options.queue_soft_limit = 1023;
  auto listener = std::make_unique<LocalListener>();
  LocalListener* local = listener.get();
  Server server(options);
  ASSERT_TRUE(server.Start(std::move(listener)).ok());
  {
    Result<std::unique_ptr<Connection>> admin = local->Connect();
    ASSERT_TRUE(admin.ok());
    JsonValue reply;
    ASSERT_TRUE(Call(**admin, OpenLine("o", "cold", workload), &reply));
    ASSERT_TRUE(reply.Find("ok")->AsBool()) << reply.Serialize();
    (*admin)->Close();
  }

  const size_t kClients = 8;
  const size_t kRequests = 6;
  std::atomic<size_t> ready{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> transport_failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<std::unique_ptr<Connection>> conn = local->Connect();
      if (!conn.ok()) {
        ++transport_failures;
        return;
      }
      // Release every client's first request together.
      ++ready;
      while (ready.load() < kClients) std::this_thread::yield();
      for (size_t i = 0; i < kRequests; ++i) {
        const bool first = (c + i) % 2 == 0;
        JsonValue reply;
        if (!Call(**conn,
                  CertainLine(std::to_string(i), "cold",
                              first ? workload.query : second_query.query),
                  &reply)) {
          ++transport_failures;
          return;
        }
        if (!AnswersMatch(reply, first ? expected : expected_second)) {
          ++mismatches;
        }
      }
      (*conn)->Close();
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(transport_failures.load(), 0u);

  Result<std::unique_ptr<Connection>> admin = local->Connect();
  ASSERT_TRUE(admin.ok());
  JsonValue stats;
  ASSERT_TRUE(Call(**admin, R"({"id":"s","op":"stats"})", &stats));
  EXPECT_EQ(stats.Find("recovery_sets")->AsInt(), 1);
  EXPECT_GT(stats.Find("recovery_set_atoms")->AsInt(), 0);
  server.Drain();
}

TEST(ServeStress, DrainUnderLoadAnswersEveryAcceptedRequest) {
  ServerOptions options;
  options.threads = 2;
  options.queue_capacity = 16;
  options.drain_timeout_seconds = 2.0;
  auto listener = std::make_unique<LocalListener>();
  LocalListener* local = listener.get();
  auto server = std::make_unique<Server>(options);
  ASSERT_TRUE(server->Start(std::move(listener)).ok());

  const Workload workload = Workloads()[0];
  const size_t kClients = 4;
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> silent_drops{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<std::unique_ptr<Connection>> conn = local->Connect();
      if (!conn.ok()) return;
      JsonValue reply;
      std::string session = "drain" + std::to_string(c);
      if (!Call(**conn, OpenLine("o", session, workload), &reply)) return;
      for (size_t i = 0; !stop.load(); ++i) {
        if (!(*conn)->WriteLine(
                CertainLine(std::to_string(i), session, workload.query))
                 .ok()) {
          break;
        }
        Result<std::string> raw = (*conn)->ReadLine();
        if (!raw.ok()) {
          // EOF during drain: the request was written but the connection
          // died before a response. The server only closes connections
          // after the dispatcher finished, so this counts as a drop only
          // if the line was accepted pre-drain — tracked loosely; the
          // assertion below is on responses received while live.
          ++silent_drops;
          break;
        }
        ++responses;
      }
    });
  }

  // Let the clients build up in-flight work, then drain concurrently.
  while (responses.load() < 20) std::this_thread::yield();
  server->Drain();
  stop.store(true);
  for (std::thread& t : clients) t.join();

  // Every response received was a complete JSON line; the server never
  // crashed or deadlocked under concurrent drain. (Responses after drain
  // began are "draining" errors, which still count as answers.)
  EXPECT_GE(responses.load(), 20u);
  server.reset();
}

// One churn shape: texts carrying kTemplateTag in every relation,
// constant and variable name, and how many variables those texts name.
struct ChurnTemplate {
  std::string sigma;
  std::string target;
  std::vector<std::string> queries;
  size_t variables = 0;
};

constexpr const char* kTemplateTag = "ctpl_";

std::string ReplaceTag(std::string text, const std::string& tag) {
  const std::string from = kTemplateTag;
  for (size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + tag.size())) {
    text.replace(at, from.size(), tag);
  }
  return text;
}

// Random mappings of the columnar_diff_test spec with ground targets of
// at most 8 atoms, keeping only shapes a threads=1 engine recovers under
// small budgets, so no cycle sets the pace.
std::vector<ChurnTemplate> ChurnTemplates(size_t count) {
  std::vector<ChurnTemplate> out;
  for (uint64_t seed = 1; out.size() < count && seed < 64 * count; ++seed) {
    Rng rng(seed);
    MappingSpec spec;
    spec.num_tgds = 2 + rng.Index(2);
    spec.num_source_relations = 2;
    spec.num_target_relations = 2;
    spec.max_body_atoms = 2;
    spec.max_head_atoms = 2;
    DependencySet sigma = RandomMapping(spec, kTemplateTag, &rng);
    SourceSpec source_spec;
    source_spec.num_tuples = 3 + rng.Index(3);
    source_spec.num_constants = 4;
    Instance source = RandomSource(sigma, source_spec, kTemplateTag, &rng);
    Instance target = ChaseTarget(sigma, source, /*ground=*/true);
    if (target.empty() || target.size() > 8) continue;
    EngineOptions small;
    small.budgets.max_covers = 8;
    small.budgets.max_g_homs_per_cover = 64;
    small.budgets.max_recoveries = 16;
    if (!Engine(sigma, small).Recover(target).ok()) continue;

    ChurnTemplate shape;
    shape.sigma = sigma.ToString();
    for (char& c : shape.sigma) {
      if (c == '\n') c = ';';
    }
    shape.target = target.ToString();
    // Each query projects a body atom of Sigma onto one of its variables,
    // so it names only Sigma's variables.
    for (const Tgd* tgd : {&sigma.tgds().front(), &sigma.tgds().back()}) {
      const Atom& atom = tgd->body().front();
      shape.queries.push_back("Q(" + atom.args().front().ToString() +
                              ") :- " + atom.ToString());
    }
    for (const Tgd& tgd : sigma.tgds()) {
      shape.variables += tgd.all_vars().size();
    }
    out.push_back(std::move(shape));
  }
  return out;
}

std::string SessionLine(const std::string& id, const std::string& op,
                        const std::string& session) {
  JsonObject request;
  request["id"] = JsonValue(id);
  request["op"] = JsonValue(op);
  request["session"] = JsonValue(session);
  return JsonValue(std::move(request)).Serialize();
}

// dxrecd's churn cycle in-process: open a session on a mapping never seen
// before, analyze, certain x2, recover, close. Everything derived from
// Sigma (SUB(Sigma), renamed tgd copies) is compiled once per session and
// renamed apart without interning, so a cycle interns no more variables
// than its own Sigma, J and query texts name (J names none). Sigma's
// variables are counted after parsing, so a collision rename counts too.
// DXREC_SOAK_CYCLES sets the cycle count (scripts/check.sh's soak stage).
TEST(ServeStress, ChurnCyclesInternOnlyTheirTextsVariables) {
  const char* soak = std::getenv("DXREC_SOAK_CYCLES");
  const size_t cycles = soak != nullptr ? std::strtoul(soak, nullptr, 10) : 200;
  const std::vector<ChurnTemplate> templates = ChurnTemplates(16);
  ASSERT_EQ(templates.size(), 16u);

  ServerOptions options;
  options.threads = 2;
  auto listener = std::make_unique<LocalListener>();
  LocalListener* local = listener.get();
  Server server(options);
  ASSERT_TRUE(server.Start(std::move(listener)).ok());
  Result<std::unique_ptr<Connection>> conn = local->Connect();
  ASSERT_TRUE(conn.ok());

  size_t interned = 0;
  size_t text_variables = 0;
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    const ChurnTemplate& shape = templates[cycle % templates.size()];
    const std::string tag = "cyc" + std::to_string(cycle) + "_";
    const std::string session = "churn" + std::to_string(cycle);
    std::vector<std::string> lines;
    {
      JsonObject open;
      open["id"] = JsonValue("open");
      open["op"] = JsonValue("open_session");
      open["session"] = JsonValue(session);
      open["sigma"] = JsonValue(ReplaceTag(shape.sigma, tag));
      open["target"] = JsonValue(ReplaceTag(shape.target, tag));
      lines.push_back(JsonValue(std::move(open)).Serialize());
    }
    lines.push_back(SessionLine("analyze", "analyze", session));
    for (const std::string& query : shape.queries) {
      lines.push_back(CertainLine("certain", session, ReplaceTag(query, tag)));
    }
    lines.push_back(SessionLine("recover", "recover", session));
    lines.push_back(SessionLine("close", "close_session", session));

    const size_t before = Symbols().variables.size();
    for (const std::string& line : lines) {
      JsonValue reply;
      ASSERT_TRUE(Call(**conn, line, &reply));
      ASSERT_TRUE(reply.Find("ok")->AsBool())
          << "cycle " << cycle << ": " << reply.Serialize();
    }
    const size_t grown = Symbols().variables.size() - before;
    ASSERT_LE(grown, shape.variables)
        << "cycle " << cycle << " interned " << grown << " variables; its "
        << "texts name " << shape.variables;
    interned += grown;
    text_variables += shape.variables;
  }
  RecordProperty("variables_per_cycle",
                 std::to_string(static_cast<double>(interned) /
                                static_cast<double>(cycles)));
  EXPECT_LE(interned, text_variables);
  (*conn)->Close();
  server.Drain();
}

}  // namespace
}  // namespace serve
}  // namespace dxrec

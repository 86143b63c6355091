// The job-server stack: registry adapters, execution budgets at the round
// barrier, the memo key discipline, and the JobServer protocol.
//
// The heavyweight claims under test:
//
//   * every roster algorithm reproduces its pinned (rounds, output digest);
//   * a budget that never triggers leaves results bit-identical to an
//     un-budgeted run;
//   * a budget stop lands on a round barrier — the partial state equals a
//     full run capped at exactly that round, never a torn hybrid;
//   * memo keys include the algorithm version but exclude
//     threads/scheduler/SIMD, and a memo hit re-emits the original
//     RunRecord byte-identically;
//   * malformed requests — unknown fields, out-of-range integers, negative
//     degrees — get an error response instead of a silently rewritten run;
//   * a cancelled job terminates with cancelled=true and is never memoized;
//   * worker slots take jobs one at a time, so a small job finishes beside
//     a long one instead of waiting for it, and jobs on parallel slots run
//     single-threaded.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <optional>
#include <unistd.h>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "local/budget.hpp"
#include "obs/run_record.hpp"
#include "serve/memo.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "store/artifact_store.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace ckp {
namespace {

// Injectable steady clock shared by the deadline tests.
std::atomic<std::int64_t> g_fake_ms{0};
SteadyTime fake_now() {
  return SteadyTime{} + std::chrono::milliseconds(g_fake_ms.load());
}

// Process-unique scratch directory: runs under different binaries (plain,
// ASan, TSan) must not see each other's memo artifacts.
std::string temp_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  std::string dir = ::testing::TempDir() + "ckp_serve_" +
                    std::to_string(::getpid()) + "_" + tag + "_" +
                    std::to_string(counter.fetch_add(1));
  return dir;
}

// One pinned adapter run: the exact (rounds, output_digest) the roster
// produces for (spec, seed 5, max_rounds). The constants were captured from
// both engine loops (packed and generic, which agreed) before the generic
// loop was retired, so they witness that every output survived the change
// bit for bit. A deliberate output change must bump the adapter's version()
// and re-pin here.
struct AdapterPin {
  const char* algo;
  GraphSpec spec;
  int max_rounds;
  bool completed;
  int rounds;
  std::uint64_t digest;
};

const std::vector<AdapterPin>& adapter_pins() {
  static const std::vector<AdapterPin> kPins = {
      {"luby", {"random_regular", 128, 4, 3}, 1 << 16, true, 5,
       0x47c7a9f74d01561eULL},
      {"ghaffari", {"random_regular", 128, 4, 3}, 1 << 16, true, 18,
       0xb95fe4bb9f497bfeULL},
      {"matching_rand", {"random_regular", 128, 4, 3}, 1 << 16, true, 7,
       0x9e4ba37ae963d1afULL},
      {"matching_det", {"random_regular", 128, 4, 3}, 1 << 16, true, 12,
       0x503fabe0058acf60ULL},
      {"plus_one", {"random_regular", 128, 4, 3}, 1 << 16, true, 12,
       0xea8ae6159d3847a2ULL},
      {"greedy", {"random_regular", 128, 4, 3}, 1 << 16, true, 9,
       0x393aff4eda68e711ULL},
      {"sinkless", {"bipartite_regular", 128, 3, 3}, 1 << 16, true, 6,
       0x17d418bcd6d4688dULL},
      // Thm 10's rake phase needs a forest: on the bipartite family it
      // runs to the cap, which pins the capped partial state instead.
      {"thm10", {"bipartite_regular", 256, 16, 3}, 300, false, 300,
       0xf425285f97d5365fULL},
      {"thm10", {"complete_tree", 2000, 16, 0}, 1 << 16, true, 24,
       0xafec28400860ab22ULL},
      {"thm11", {"bipartite_regular", 256, 16, 3}, 1 << 16, true, 10,
       0xf438e867aaa9dc33ULL},
      {"thm11", {"complete_tree", 2000, 16, 0}, 1 << 16, true, 8,
       0xa9baa69e7724a8e7ULL},
      {"thm11", {"complete_tree", 2000, 7, 0}, 1 << 16, true, 13,
       0x987e12d3981fbd70ULL},
      {"spin", {"cycle", 64, 0, 0}, 25, false, 25, 0x9d511b7ee0aa30a7ULL},
  };
  return kPins;
}

// --------------------------------------------------------------------------
// Registry

TEST(ServeRegistry, RosterRoundTripsAndRejectsUnknown) {
  for (const std::string& name : algorithm_roster()) {
    const auto algo = make_algorithm(name);
    EXPECT_EQ(algo->name(), name);
    EXPECT_GE(algo->version(), 1);
  }
  EXPECT_THROW(make_algorithm("lubby"), CheckFailure);
  EXPECT_THROW(make_algorithm(""), CheckFailure);
}

TEST(ServeRegistry, BuildGraphFamilies) {
  {
    GraphSpec spec{"cycle", 64, 0, 0};
    const BuiltGraph g = build_graph(spec);
    EXPECT_EQ(g.graph.num_nodes(), 64);
    EXPECT_TRUE(g.edge_labels.empty());
  }
  {
    GraphSpec spec{"bipartite_regular", 200, 3, 7};
    const BuiltGraph g = build_graph(spec);
    EXPECT_EQ(g.graph.num_nodes(), 200);
    EXPECT_EQ(g.edge_labels.size(),
              static_cast<std::size_t>(g.graph.num_edges()));
    EXPECT_EQ(g.num_labels, 3);
  }
  {
    // Same spec builds bit-identical topology.
    GraphSpec spec{"random_regular", 100, 4, 11};
    const BuiltGraph a = build_graph(spec);
    const BuiltGraph b = build_graph(spec);
    ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
    for (NodeId v = 0; v < a.graph.num_nodes(); ++v) {
      const auto na = a.graph.neighbors(v);
      const auto nb = b.graph.neighbors(v);
      ASSERT_EQ(std::vector<NodeId>(na.begin(), na.end()),
                std::vector<NodeId>(nb.begin(), nb.end()));
    }
  }
  EXPECT_THROW(build_graph(GraphSpec{"moebius", 10, 0, 0}), CheckFailure);
  EXPECT_THROW(build_graph(GraphSpec{"cycle", 0, 0, 0}), CheckFailure);
  EXPECT_THROW(build_graph(GraphSpec{"cycle", 10, 5, 0}), CheckFailure);
  // Negative degrees are rejected, not mapped to the family default.
  for (const char* family :
       {"bipartite_regular", "random_regular", "complete_tree", "cycle"}) {
    EXPECT_THROW(build_graph(GraphSpec{family, 64, -4, 0}), CheckFailure)
        << family;
  }
  EXPECT_THROW(build_graph(GraphSpec{"bipartite_regular", 201, 3, 0}),
               CheckFailure);
  // d = 0 resolves to the family default, idempotently; degree-free
  // families keep d = 0.
  for (const char* family :
       {"bipartite_regular", "random_regular", "complete_tree"}) {
    const GraphSpec resolved = resolve_graph_defaults({family, 64, 0, 5});
    EXPECT_EQ(resolved.d, 3) << family;
    EXPECT_EQ(resolve_graph_defaults(resolved).d, 3) << family;
    EXPECT_EQ(resolve_graph_defaults({family, 64, 4, 5}).d, 4) << family;
  }
  EXPECT_EQ(resolve_graph_defaults({"cycle", 64, 0, 0}).d, 0);
  EXPECT_EQ(resolve_graph_defaults({"path", 64, 0, 0}).d, 0);
}

TEST(ServeRegistry, AdaptersRunAndVerify) {
  std::vector<std::string> covered;
  for (const AdapterPin& pin : adapter_pins()) {
    const std::string where =
        std::string(pin.algo) + " on " + pin.spec.canonical();
    const BuiltGraph built = build_graph(pin.spec);
    const auto algo = make_algorithm(pin.algo);
    const LocalInput input = prepare_input(*algo, built, 5);
    EXPECT_EQ(input.has_ids(), !algo->randomized()) << where;
    const AlgoRun run = algo->run(input, pin.max_rounds, EngineOptions{}, {});
    EXPECT_EQ(run.completed, pin.completed) << where;
    EXPECT_EQ(run.verified, pin.completed) << where;
    EXPECT_EQ(run.rounds, pin.rounds) << where;
    EXPECT_EQ(run.output_digest, pin.digest) << where;
    covered.push_back(pin.algo);
  }
  // Every roster entry carries at least one pin.
  for (const std::string& name : algorithm_roster()) {
    EXPECT_NE(std::find(covered.begin(), covered.end(), name), covered.end())
        << name << " has no pinned run";
  }
}

TEST(ServeRegistry, SinklessNeedsEdgeLabels) {
  const auto algo = make_algorithm("sinkless");
  const BuiltGraph plain = build_graph(GraphSpec{"cycle", 32, 0, 0});
  EXPECT_THROW(prepare_input(*algo, plain, 1), CheckFailure);
  const BuiltGraph colored =
      build_graph(GraphSpec{"bipartite_regular", 64, 3, 1});
  const LocalInput input = prepare_input(*algo, colored, 1);
  EXPECT_FALSE(input.edge_labels.empty());
}

TEST(ServeRegistry, UnknownParamRejected) {
  const BuiltGraph built = build_graph(GraphSpec{"cycle", 32, 0, 0});
  const auto algo = make_algorithm("luby");
  const LocalInput input = prepare_input(*algo, built, 1);
  KV params;
  params["pallete"] = "4";
  EXPECT_THROW(algo->run(input, 100, EngineOptions{}, params), CheckFailure);
}

TEST(ServeRegistry, SpinNeverCompletes) {
  const BuiltGraph built = build_graph(GraphSpec{"cycle", 64, 0, 0});
  const auto algo = make_algorithm("spin");
  const LocalInput input = prepare_input(*algo, built, 1);
  const AlgoRun run = algo->run(input, 25, EngineOptions{}, {});
  EXPECT_EQ(run.rounds, 25);
  EXPECT_FALSE(run.completed);
  EXPECT_FALSE(run.verified);
}

// --------------------------------------------------------------------------
// Budgets in the engine

TEST(ServeBudget, ChargePriorityAndStopLatching) {
  RunBudget budget;
  EXPECT_EQ(budget.charge(10), BudgetStop::kNone);
  EXPECT_FALSE(budget.stopped());

  budget.step_limit = 15;
  budget.request_cancel();
  // Cancel outranks the step limit even though both fired.
  EXPECT_EQ(budget.charge(10), BudgetStop::kCancelled);
  EXPECT_EQ(budget.stop_reason(), BudgetStop::kCancelled);
  EXPECT_STREQ(budget_stop_name(budget.stop_reason()), "cancelled");
}

TEST(ServeBudget, DeadlineUsesInjectedSteadyTime) {
  g_fake_ms = 1000;
  RunBudget budget;
  budget.now = &fake_now;
  budget.deadline = fake_now() + std::chrono::milliseconds(500);
  EXPECT_EQ(budget.charge(0), BudgetStop::kNone);
  g_fake_ms = 1499;
  EXPECT_EQ(budget.charge(0), BudgetStop::kNone);
  g_fake_ms = 1500;
  EXPECT_EQ(budget.charge(0), BudgetStop::kDeadline);
}

// Runs "spin" on a 64-cycle with `opts` and returns (rounds, digest).
std::pair<int, std::uint64_t> run_spin(int max_rounds, EngineOptions opts) {
  const BuiltGraph built = build_graph(GraphSpec{"cycle", 64, 0, 0});
  const auto algo = make_algorithm("spin");
  const LocalInput input = prepare_input(*algo, built, 1);
  const AlgoRun run = algo->run(input, max_rounds, opts, {});
  return {run.rounds, run.output_digest};
}

TEST(ServeBudget, StepLimitStopsAtRoundBarrierUntorn) {
  // Stopping at the barrier means the partial state IS round r's state: a
  // budgeted run stopped after r rounds must match an un-budgeted run
  // capped at exactly r rounds, bit for bit.
  const auto [full_rounds, full_digest] = run_spin(3, EngineOptions{});
  ASSERT_EQ(full_rounds, 3);

  RunBudget budget;
  budget.step_limit = 3 * 64;  // spin keeps all 64 nodes active per round
  EngineOptions budgeted;
  budgeted.budget = &budget;
  const auto [rounds, digest] = run_spin(1 << 10, budgeted);
  EXPECT_EQ(rounds, 3);
  EXPECT_EQ(digest, full_digest);
  EXPECT_EQ(budget.stop_reason(), BudgetStop::kStepLimit);
  EXPECT_EQ(budget.steps.load(), 3u * 64u);
}

TEST(ServeBudget, PreTrippedBudgetRunsZeroRounds) {
  RunBudget budget;
  budget.request_cancel();
  EngineOptions opts;
  opts.budget = &budget;
  const auto [rounds, digest] = run_spin(100, opts);
  (void)digest;
  EXPECT_EQ(rounds, 0);
  EXPECT_EQ(budget.stop_reason(), BudgetStop::kCancelled);
}

TEST(ServeBudget, UntriggeredBudgetIsBitIdentical) {
  const BuiltGraph built = build_graph(GraphSpec{"random_regular", 128, 4, 3});
  const auto algo = make_algorithm("luby");
  const LocalInput input = prepare_input(*algo, built, 7);

  const AlgoRun plain = algo->run(input, 1 << 16, EngineOptions{}, {});
  ASSERT_TRUE(plain.completed);

  RunBudget budget;
  budget.step_limit = ~std::uint64_t{0};
  g_fake_ms = 0;
  budget.now = &fake_now;
  budget.deadline = fake_now() + std::chrono::hours(1);
  EngineOptions opts;
  opts.budget = &budget;
  const AlgoRun budgeted = algo->run(input, 1 << 16, opts, {});
  EXPECT_EQ(budgeted.output_digest, plain.output_digest);
  EXPECT_EQ(budgeted.rounds, plain.rounds);
  EXPECT_EQ(budget.stop_reason(), BudgetStop::kNone);
}

// --------------------------------------------------------------------------
// Memo keys

MemoFacts base_facts() {
  MemoFacts facts;
  facts.algorithm = "luby";
  facts.algo_version = 1;
  facts.graph = GraphSpec{"cycle", 64, 0, 0};
  facts.seed = 7;
  facts.max_rounds = 1 << 16;
  return facts;
}

TEST(ServeMemo, KeyCoversSemanticFactsOnly) {
  const MemoFacts base = base_facts();
  const std::string key = memo_key(base);
  EXPECT_EQ(memo_key(base_facts()), key);  // deterministic

  // Version bump invalidates: changed output for the same inputs must not
  // serve stale cache entries.
  MemoFacts bumped = base_facts();
  bumped.algo_version = 2;
  EXPECT_NE(memo_key(bumped), key);

  for (auto mutate : {+[](MemoFacts& f) { f.seed = 8; },
                      +[](MemoFacts& f) { f.max_rounds = 100; },
                      +[](MemoFacts& f) { f.graph.n = 65; },
                      +[](MemoFacts& f) { f.graph.seed = 1; },
                      +[](MemoFacts& f) { f.params["palette"] = "4"; },
                      +[](MemoFacts& f) { f.algorithm = "greedy"; }}) {
    MemoFacts changed = base_facts();
    mutate(changed);
    EXPECT_NE(memo_key(changed), key) << changed.canonical();
  }

  // The canonical string spells out every keyed fact and nothing else: no
  // execution knobs (threads/scheduler/SIMD are absent by construction:
  // canonical() is total over MemoFacts, which has no such fields), and no
  // engine-path fact, since the engine has one round loop.
  EXPECT_EQ(base.canonical(),
            "algo=luby;ver=1;family=cycle;n=64;d=0;gseed=0;seed=7;"
            "max_rounds=65536");
}

TEST(ServeMemo, RoundTripAndCorruptionIsMiss) {
  const ArtifactStore store(temp_dir("memo"));
  const ResultMemo memo(&store);
  const MemoFacts facts = base_facts();
  EXPECT_FALSE(memo.lookup(facts).has_value());

  const std::string record = "{\"bench\":\"serve\",\"rounds\":5}";
  memo.insert(facts, record);
  const auto hit = memo.lookup(facts);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, record);  // byte-identical

  // Flip a payload byte on disk: the frame checksum fails and the entry
  // degrades to a miss instead of serving corrupt bytes.
  const std::string path = store.path_for(memo_key(facts));
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -1, SEEK_END);
  std::fputc('X', f);
  std::fclose(f);
  EXPECT_FALSE(memo.lookup(facts).has_value());
}

// --------------------------------------------------------------------------
// JobServer end to end (in process)

struct LineLog {
  std::mutex mu;
  std::vector<std::string> lines;

  JobServer::Sink sink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu);
      lines.push_back(line);
    };
  }

  // Responses mentioning `id`, parsed.
  std::vector<JsonValue> responses_for(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<JsonValue> out;
    for (const std::string& line : lines) {
      const JsonValue doc = json_parse(line);
      const JsonValue* jid = doc.find("id");
      if (jid != nullptr && jid->string == id) out.push_back(doc);
    }
    return out;
  }

  // The terminal (done/error) response for `id`, if it has arrived.
  std::optional<JsonValue> find_terminal(const std::string& id) {
    for (const JsonValue& doc : responses_for(id)) {
      if (doc.find("done") != nullptr || doc.find("error") != nullptr) {
        return doc;
      }
    }
    return std::nullopt;
  }

  // The terminal response for `id`; fails the test if absent.
  JsonValue terminal_for(const std::string& id) {
    if (std::optional<JsonValue> doc = find_terminal(id)) return *doc;
    ADD_FAILURE() << "no terminal response for " << id;
    return JsonValue{};
  }
};

std::string run_job_line(const std::string& id, const std::string& algo,
                         const std::string& extra = "") {
  return "{\"op\":\"run\",\"id\":\"" + id + "\",\"algo\":\"" + algo +
         "\",\"graph\":{\"family\":\"cycle\",\"n\":512},\"seed\":7" + extra +
         "}";
}

// Polls `done` every millisecond for up to `seconds` of real time.
bool wait_until(const std::function<bool()>& done, double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (!done()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The server's op=stats document (the "stats" member of its response).
JsonValue stats_of(JobServer& server, LineLog& log) {
  server.handle_line("{\"op\":\"stats\"}");
  std::lock_guard<std::mutex> lock(log.mu);
  for (auto it = log.lines.rbegin(); it != log.lines.rend(); ++it) {
    const JsonValue doc = json_parse(*it);
    if (const JsonValue* stats = doc.find("stats")) return *stats;
  }
  ADD_FAILURE() << "no stats response";
  return JsonValue{};
}

// Samples in the stats histogram `name` (0 before its first sample).
double histogram_count(const JsonValue& stats, const std::string& name) {
  const JsonValue* h = stats.at("histograms").find(name);
  return h == nullptr ? 0.0 : h->at("count").as_number();
}

TEST(ServeServer, MixedBatchCompletesOnSharedPool) {
  LineLog log;
  ServerOptions options;
  options.workers = 3;
  options.store_dir = temp_dir("batch");
  JobServer server(options, log.sink());

  EXPECT_TRUE(server.handle_line(run_job_line("j1", "luby")));
  EXPECT_TRUE(server.handle_line(run_job_line("j2", "matching_rand")));
  EXPECT_TRUE(server.handle_line(run_job_line("j3", "plus_one")));
  server.drain();

  for (const std::string id : {"j1", "j2", "j3"}) {
    const JsonValue done = log.terminal_for(id);
    ASSERT_NE(done.find("done"), nullptr) << id;
    EXPECT_EQ(done.at("memo").as_string(), "miss") << id;
    EXPECT_FALSE(done.at("cancelled").boolean) << id;
    EXPECT_TRUE(done.at("record").at("verified").boolean) << id;
  }
  EXPECT_EQ(server.counter("serve.jobs_admitted"), 3.0);
  EXPECT_EQ(server.counter("serve.jobs_completed"), 3.0);
  EXPECT_EQ(server.counter("serve.memo_stores"), 3.0);
  EXPECT_GT(server.counter("serve.engine_rounds_total"), 0.0);
}

TEST(ServeServer, MemoHitReplaysRecordByteIdenticallyWithZeroRounds) {
  const std::string store_dir = temp_dir("replay");
  std::string first_record;
  {
    LineLog log;
    ServerOptions options;
    options.workers = 2;
    options.store_dir = store_dir;
    JobServer server(options, log.sink());
    server.handle_line(run_job_line("a", "luby"));
    server.drain();
    const JsonValue done = log.terminal_for("a");
    ASSERT_NE(done.find("done"), nullptr);
    // Recover the raw record bytes from the response line.
    std::lock_guard<std::mutex> lock(log.mu);
    for (const std::string& line : log.lines) {
      const auto pos = line.find("\"record\":");
      if (pos != std::string::npos && line.find("\"a\"") != std::string::npos) {
        first_record = line.substr(pos + 9, line.size() - pos - 9 - 1);
      }
    }
    ASSERT_FALSE(first_record.empty());
  }
  {
    // Fresh server, same store: the resubmission must be served entirely
    // from the memo — zero engine rounds — and re-emit the same bytes.
    LineLog log;
    ServerOptions options;
    options.workers = 2;
    options.store_dir = store_dir;
    JobServer server(options, log.sink());
    server.handle_line(run_job_line("a", "luby"));
    server.drain();
    const JsonValue done = log.terminal_for("a");
    EXPECT_EQ(done.at("memo").as_string(), "hit");
    EXPECT_EQ(server.counter("serve.engine_rounds_total"), 0.0);
    EXPECT_EQ(server.counter("serve.jobs_admitted"), 0.0);
    std::string second_record;
    {
      std::lock_guard<std::mutex> lock(log.mu);
      for (const std::string& line : log.lines) {
        const auto pos = line.find("\"record\":");
        if (pos != std::string::npos) {
          second_record = line.substr(pos + 9, line.size() - pos - 9 - 1);
        }
      }
    }
    EXPECT_EQ(second_record, first_record);
  }
}

TEST(ServeServer, NoMemoOptOutSkipsLookupAndInsert) {
  const std::string store_dir = temp_dir("keyed");
  ServerOptions options;
  options.workers = 1;
  options.store_dir = store_dir;
  {
    LineLog log;
    JobServer server(options, log.sink());
    server.handle_line(run_job_line("a", "luby"));
    server.drain();
  }
  {
    LineLog log;
    JobServer server(options, log.sink());
    // no_memo opts out of lookup AND insert: the stored twin of this job
    // is not served, and the run is not stored again.
    server.handle_line(run_job_line("c", "luby", ",\"no_memo\":true"));
    server.drain();
    EXPECT_EQ(log.terminal_for("c").at("memo").as_string(), "off");
    EXPECT_EQ(server.counter("serve.memo_hits"), 0.0);
    EXPECT_EQ(server.counter("serve.memo_stores"), 0.0);
    EXPECT_TRUE(log.terminal_for("c").at("record").at("verified").boolean);
  }
}

TEST(ServeServer, OmittedDegreeSharesMemoEntryWithNamedDefault) {
  // A job that leaves out d runs the family default (3), so it must record
  // delta 3 and key the same memo entry as a job naming d:3.
  LineLog log;
  ServerOptions options;
  options.workers = 1;
  options.store_dir = temp_dir("default_d");
  JobServer server(options, log.sink());
  const auto job = [](const std::string& id, const std::string& degree) {
    return "{\"op\":\"run\",\"id\":\"" + id +
           "\",\"algo\":\"luby\",\"graph\":{\"family\":"
           "\"bipartite_regular\",\"n\":128" +
           degree + ",\"gseed\":4},\"seed\":2}";
  };
  server.handle_line(job("implicit", ""));
  server.drain();
  server.handle_line(job("named", ",\"d\":3"));
  server.drain();
  const JsonValue first = log.terminal_for("implicit");
  const JsonValue second = log.terminal_for("named");
  ASSERT_NE(first.find("done"), nullptr);
  ASSERT_NE(second.find("done"), nullptr);
  EXPECT_EQ(first.at("memo").as_string(), "miss");
  EXPECT_EQ(second.at("memo").as_string(), "hit");
  EXPECT_EQ(first.at("record").at("delta").as_number(), 3.0);
  EXPECT_EQ(second.at("record").at("delta").as_number(), 3.0);
  EXPECT_EQ(server.counter("serve.memo_hits"), 1.0);
}

TEST(ServeServer, CancelMidRunFlagsRecordAndSkipsMemo) {
  const std::string store_dir = temp_dir("cancel");
  LineLog log;
  ServerOptions options;
  options.workers = 1;
  options.store_dir = store_dir;
  JobServer server(options, log.sink());

  // spin never halts: without the cancel this job would run the full
  // 1<<20 rounds (~minutes). The cancel lands either while queued (0
  // rounds) or mid-run (stop at the next round barrier); both must yield
  // cancelled=true, an uncorrupted partial record, and no memo entry.
  server.handle_line(run_job_line("s", "spin", ",\"max_rounds\":1048576"));
  server.handle_line("{\"op\":\"cancel\",\"id\":\"s\"}");
  server.drain();

  const JsonValue done = log.terminal_for("s");
  ASSERT_NE(done.find("done"), nullptr);
  EXPECT_TRUE(done.at("cancelled").boolean);
  EXPECT_EQ(done.at("stop").as_string(), "cancelled");
  const JsonValue& rec = done.at("record");
  EXPECT_EQ(rec.at("metrics").at("cancelled").as_number(), 1.0);
  EXPECT_EQ(rec.at("metrics").at("completed").as_number(), 0.0);
  EXPECT_LT(rec.at("rounds").as_number(), 1048576.0);
  EXPECT_EQ(server.counter("serve.jobs_cancelled"), 1.0);
  EXPECT_EQ(server.counter("serve.memo_stores"), 0.0);
  EXPECT_EQ(server.counter("serve.cancels_delivered"), 1.0);
}

TEST(ServeServer, DeadlineExceededJobIsCancelledAtBarrier) {
  LineLog log;
  ServerOptions options;
  options.workers = 1;
  g_fake_ms = 50'000;
  options.now = &fake_now;
  JobServer server(options, log.sink());

  // Deadline 300 simulated ms after admission. The engine's pre-loop check
  // passes (time has not advanced yet)… then the clock jumps past the
  // deadline before the job dequeues, so the first round-barrier check
  // trips. Either way the job terminates with stop=deadline.
  server.handle_line(run_job_line("d", "spin",
                                  ",\"max_rounds\":1048576,"
                                  "\"deadline_ms\":300"));
  g_fake_ms += 1000;
  server.drain();

  const JsonValue done = log.terminal_for("d");
  ASSERT_NE(done.find("done"), nullptr);
  EXPECT_TRUE(done.at("cancelled").boolean);
  EXPECT_EQ(done.at("stop").as_string(), "deadline");
  EXPECT_EQ(done.at("record").at("metrics").at("cancelled").as_number(),
            1.0);
}

TEST(ServeServer, RejectsProtocolAbuse) {
  LineLog log;
  ServerOptions options;
  options.workers = 1;
  options.queue_limit = 1;
  JobServer server(options, log.sink());

  EXPECT_TRUE(server.handle_line("this is not json"));
  EXPECT_TRUE(server.handle_line("{\"op\":\"flood\"}"));
  EXPECT_TRUE(server.handle_line(run_job_line("x", "nope")));
  EXPECT_TRUE(
      server.handle_line(run_job_line("y", "luby", ",\"typo_field\":1")));
  server.drain();
  EXPECT_GE(server.counter("serve.errors"), 4.0);

  // Requests the server must refuse rather than rewrite: the retired
  // engine-path field, a round cap or degree outside int range (which a
  // narrowing cast would wrap: 4294967301 -> 5), and a negative degree
  // (which a "non-positive means default" rule would turn into d=3 under a
  // distinct memo key). Each gets an error response naming the problem.
  const std::string graph_d = ",\"graph\":{\"family\":\"random_regular\","
                              "\"n\":64,\"d\":";
  const std::vector<std::pair<std::string, std::string>> refused = {
      {"r1", run_job_line("r1", "luby", ",\"force_generic\":true")},
      {"r2", run_job_line("r2", "luby", ",\"max_rounds\":4294967301")},
      {"r3", run_job_line("r3", "luby", ",\"max_rounds\":-4294967295")},
      {"r4", "{\"op\":\"run\",\"id\":\"r4\",\"algo\":\"luby\"" + graph_d +
                 "-4}}"},
      {"r5", "{\"op\":\"run\",\"id\":\"r5\",\"algo\":\"luby\"" + graph_d +
                 "4294967299}}"},
  };
  for (const auto& [id, line] : refused) {
    EXPECT_TRUE(server.handle_line(line));
    server.drain();
    const JsonValue reply = log.terminal_for(id);
    ASSERT_NE(reply.find("error"), nullptr) << line;
    EXPECT_EQ(reply.find("done"), nullptr) << line;
  }
  EXPECT_NE(log.terminal_for("r1").at("error").as_string().find(
                "unknown request field"),
            std::string::npos);
  EXPECT_NE(log.terminal_for("r2").at("error").as_string().find(
                "max_rounds"),
            std::string::npos);
  EXPECT_NE(log.terminal_for("r4").at("error").as_string().find("d >= 0"),
            std::string::npos);
  EXPECT_NE(log.terminal_for("r5").at("error").as_string().find("field d"),
            std::string::npos);
  EXPECT_GE(server.counter("serve.errors"), 9.0);

  // Queue backpressure: with limit 1, a burst sheds load with an error
  // response instead of buffering unboundedly.
  server.handle_line(run_job_line("q1", "spin", ",\"max_rounds\":2000"));
  server.handle_line(run_job_line("q2", "spin", ",\"max_rounds\":2000"));
  server.handle_line(run_job_line("q3", "luby"));
  server.drain();
  EXPECT_GE(server.counter("serve.jobs_rejected"), 1.0);

  // Blank lines are ignored, not errors.
  const double errors = server.counter("serve.errors");
  EXPECT_TRUE(server.handle_line("   "));
  EXPECT_EQ(server.counter("serve.errors"), errors);
}

TEST(ServeServer, MultiClientRoutesResponsesByTag) {
  // Two transport threads share ONE server (one queue, one memo, one set of
  // worker slots) and interleave submissions. Every response must come back
  // tagged with the client whose request earned it — cross-client leakage
  // would show a j* line under client 2 or a k* line under client 1.
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::string>> tagged;
  ServerOptions options;
  options.workers = 3;
  options.store_dir = temp_dir("multi");
  JobServer server(options,
                   JobServer::TaggedSink(
                       [&](const std::string& line, std::uint64_t client) {
                         std::lock_guard<std::mutex> lock(mu);
                         tagged.emplace_back(client, line);
                       }));

  auto client = [&](std::uint64_t tag, const std::string& prefix) {
    for (int i = 0; i < 4; ++i) {
      const std::string id = prefix + std::to_string(i);
      EXPECT_TRUE(server.handle_line(
          run_job_line(id, i % 2 == 0 ? "luby" : "plus_one"), tag));
    }
    EXPECT_TRUE(server.handle_line("{\"op\":\"stats\"}", tag));
  };
  std::thread c1(client, 1, "j");
  std::thread c2(client, 2, "k");
  c1.join();
  c2.join();
  server.drain();

  // Each client sees exactly its own traffic: 4 queued + 4 done + 1 stats.
  int done1 = 0, done2 = 0, stats1 = 0, stats2 = 0;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [tag, line] : tagged) {
      ASSERT_TRUE(tag == 1 || tag == 2) << line;
      const char expect_prefix = tag == 1 ? 'j' : 'k';
      const JsonValue doc = json_parse(line);
      if (doc.find("stats") != nullptr) {
        (tag == 1 ? stats1 : stats2)++;
        continue;
      }
      const JsonValue* jid = doc.find("id");
      ASSERT_NE(jid, nullptr) << line;
      EXPECT_EQ(jid->string[0], expect_prefix) << "leak: " << line;
      if (doc.find("done") != nullptr) (tag == 1 ? done1 : done2)++;
      ASSERT_EQ(doc.find("error"), nullptr) << line;
    }
  }
  EXPECT_EQ(done1, 4);
  EXPECT_EQ(done2, 4);
  EXPECT_EQ(stats1, 1);
  EXPECT_EQ(stats2, 1);
  // Both clients submit the same luby/plus_one jobs to the shared memo, so
  // a resubmission that arrives after its twin completed is answered at
  // admission as a hit instead of running; how many do is timing-dependent.
  EXPECT_EQ(server.counter("serve.jobs_completed") +
                server.counter("serve.memo_hits"),
            8.0);
}

TEST(ServeServer, SmallJobRunsBesideLongJob) {
  // A free slot takes the next queued job at once: a small job admitted
  // behind a never-halting one must finish while the long one still runs,
  // not wait for it to end.
  LineLog log;
  ServerOptions options;
  options.workers = 2;
  JobServer server(options, log.sink());

  server.handle_line(run_job_line("long", "spin", ",\"max_rounds\":1048576"));
  // The long job is on a slot before the small one is admitted.
  ASSERT_TRUE(wait_until(
      [&] {
        return histogram_count(stats_of(server, log), "serve.queue_wait_s") ==
               1.0;
      },
      60.0));
  server.handle_line(run_job_line("small", "luby", ",\"deadline_ms\":60000"));
  ASSERT_TRUE(wait_until(
      [&] { return log.find_terminal("small").has_value(); }, 60.0))
      << "small job never finished beside the long one";
  const JsonValue small = log.terminal_for("small");
  ASSERT_NE(small.find("done"), nullptr);
  EXPECT_EQ(small.at("stop").as_string(), "none");
  EXPECT_TRUE(small.at("record").at("verified").boolean);
  EXPECT_FALSE(log.find_terminal("long").has_value()) << "long job ended early";

  server.handle_line("{\"op\":\"cancel\",\"id\":\"long\"}");
  server.drain();
  EXPECT_EQ(log.terminal_for("long").at("stop").as_string(), "cancelled");
}

TEST(ServeServer, EngineThreadsNeedSingleWorkerSlot) {
  // engine_threads only means something with one slot; asking for more
  // threads beside parallel slots fails loudly instead of being ignored.
  LineLog log;
  ServerOptions options;
  options.workers = 2;
  options.engine_threads = 2;
  EXPECT_THROW(JobServer(options, log.sink()), CheckFailure);
  options.engine_threads = 1;
  EXPECT_NO_THROW(JobServer(options, log.sink()));
  options.workers = 1;
  options.engine_threads = 4;
  EXPECT_NO_THROW(JobServer(options, log.sink()));
}

TEST(ServeServer, ParallelSlotsRunJobsSingleThreaded) {
  // Under CKP_THREADS=4 a one-slot job fans its rounds out over the shared
  // pool; the same job on a two-slot server must not touch the pool.
  const char* env = std::getenv("CKP_THREADS");
  const std::optional<std::string> saved =
      env != nullptr ? std::optional<std::string>(env) : std::nullopt;
  ASSERT_EQ(setenv("CKP_THREADS", "4", 1), 0);
  // Grow the pool once up front: growing replaces it and resets its counts.
  shared_pool(4);
  const auto pool_jobs_for_one_run = [](int workers) {
    LineLog log;
    ServerOptions options;
    options.workers = workers;
    JobServer server(options, log.sink());
    const std::uint64_t before = shared_pool_stats().jobs;
    server.handle_line(run_job_line("j", "luby"));
    server.drain();
    EXPECT_TRUE(log.terminal_for("j").at("record").at("verified").boolean);
    return shared_pool_stats().jobs - before;
  };
  EXPECT_GT(pool_jobs_for_one_run(1), 0u);
  EXPECT_EQ(pool_jobs_for_one_run(2), 0u);
  if (saved) {
    ASSERT_EQ(setenv("CKP_THREADS", saved->c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("CKP_THREADS"), 0);
  }
}

TEST(ServeServer, StatsHistogramsCountComputedJobsOnly) {
  // serve.queue_wait_s and serve.exec_s get one sample per job a slot ran;
  // memo hits are answered at admission and add none.
  LineLog log;
  ServerOptions options;
  options.workers = 2;
  options.store_dir = temp_dir("histograms");
  JobServer server(options, log.sink());
  server.handle_line(run_job_line("a", "luby"));
  server.handle_line(run_job_line("b", "plus_one"));
  server.handle_line(run_job_line("c", "matching_rand"));
  server.drain();
  server.handle_line(run_job_line("a2", "luby"));
  server.handle_line(run_job_line("b2", "plus_one"));
  server.drain();
  EXPECT_EQ(server.counter("serve.memo_hits"), 2.0);

  const JsonValue stats = stats_of(server, log);
  EXPECT_EQ(histogram_count(stats, "serve.queue_wait_s"), 3.0);
  EXPECT_EQ(histogram_count(stats, "serve.exec_s"), 3.0);
}

TEST(ServeServer, ShutdownDrainsAndAnswers) {
  LineLog log;
  ServerOptions options;
  options.workers = 2;
  JobServer server(options, log.sink());
  server.handle_line(run_job_line("z", "luby"));
  EXPECT_FALSE(server.handle_line("{\"op\":\"shutdown\"}"));
  // Shutdown drained first: the job's terminal response precedes the ack.
  ASSERT_NE(log.terminal_for("z").find("done"), nullptr);
  std::lock_guard<std::mutex> lock(log.mu);
  EXPECT_NE(log.lines.back().find("\"shutdown\":true"), std::string::npos);
}

}  // namespace
}  // namespace ckp

// String-keyed algorithm registry and graph-spec builder for the job
// server.
//
// The benches bind algorithms at compile time; the server binds them by
// name at admission time: a job names an algorithm ("luby", "greedy", ...),
// a graph family, KV params, and a seed, and make_algorithm() returns the
// adapter that builds the LocalInput and runs the packed roster entry
// behind it. Every adapter carries a version stamp — part of the memo key
// (src/serve/memo.hpp), so changing an algorithm's output for a given input
// invalidates its cached results by construction.
//
// Fail-on-typo stance throughout, matching Flags: unknown algorithm names,
// unknown graph families, and unknown param keys all throw CheckFailure
// with the valid set in the message; the server turns that into an error
// response instead of a silent default.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"

namespace ckp {

// Job parameters, string-to-string (the line protocol's native currency).
// Typed reads happen in the adapters via the kv_* helpers below.
using KV = std::map<std::string, std::string>;

// A reproducible graph instance description. Canonicalized into the memo
// key, so two jobs naming the same spec share cached results.
struct GraphSpec {
  std::string family;      // see graph_family_roster()
  std::uint64_t n = 0;     // node count (total, both sides for bipartite)
  int d = 0;               // degree / branching parameter; 0 = family default
                           // (see resolve_graph_defaults)
  std::uint64_t seed = 0;  // generation seed for the random families


  // Deterministic "family=...;n=...;d=...;gseed=..." string for memo keys
  // and error messages.
  std::string canonical() const;
};

// A built instance: the topology plus the per-edge labels (a proper edge
// coloring) when the family provides one — the Δ-sinkless input contract.
struct BuiltGraph {
  Graph graph;
  std::vector<int> edge_labels;  // empty when the family has no coloring
  int num_labels = 0;
};

// `spec` with d = 0 replaced by its family's default degree: 3 for
// bipartite_regular, random_regular and complete_tree. Cycle and path have
// no degree and keep d = 0; other values pass through for build_graph to
// validate. Idempotent. The server applies it before the spec keys the memo
// or fills a record, so omitting d and naming the default are one job.
GraphSpec resolve_graph_defaults(GraphSpec spec);

// Materializes `spec` (after resolve_graph_defaults) deterministically: the
// same spec builds a bit-identical graph. Throws CheckFailure on unknown
// families or invalid parameters.
BuiltGraph build_graph(const GraphSpec& spec);
const std::vector<std::string>& graph_family_roster();

// Outcome of one algorithm execution, transport- and store-agnostic.
struct AlgoRun {
  int rounds = 0;
  bool completed = false;  // ran to its own halt (not capped or budgeted)
  bool verified = false;   // output checked by the matching LCL verifier
  std::uint64_t engine_bytes = 0;
  // FNV-1a over the canonical output bytes (MIS membership, colors,
  // matching, orientation). Two runs produced the same solution iff the
  // digests match — the determinism witness the memo differential tests
  // compare without shipping whole solutions through the protocol.
  std::uint64_t output_digest = 0;
  std::vector<std::pair<std::string, double>> metrics;  // adapter extras
};

// One registered algorithm: a stateless adapter from (input, params) to the
// packed roster entry it wraps. Budgets ride in EngineOptions::budget.
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  virtual const std::string& name() const = 0;
  // Monotone stamp keyed into the serve memo; bump whenever the algorithm's
  // output for a fixed (graph, params, seed) can change.
  virtual int version() const = 0;
  // RandLOCAL (true): input gets no IDs, seed drives private randomness.
  // DetLOCAL (false): the adapter installs sequential IDs.
  virtual bool randomized() const = 0;
  // True for algorithms that consume input.edge_labels (sinkless); the
  // graph family must provide a coloring.
  virtual bool needs_edge_labels() const = 0;

  // Runs the algorithm. `input` is fully prepared by prepare_input();
  // `params` beyond the adapter's declared keys throw CheckFailure.
  virtual AlgoRun run(const LocalInput& input, int max_rounds,
                      const EngineOptions& options, const KV& params) const = 0;
};

// Registry lookup; throws CheckFailure for unknown names, listing the
// roster. Adapters are stateless, so the returned object is shareable.
std::unique_ptr<Algorithm> make_algorithm(const std::string& name);
const std::vector<std::string>& algorithm_roster();

// Builds the LocalInput an Algorithm expects on `built`: seed always,
// sequential IDs for DetLOCAL adapters, edge labels when required (throws
// if the family provided none). `built` must outlive the returned input.
LocalInput prepare_input(const Algorithm& algo, const BuiltGraph& built,
                         std::uint64_t seed);

// Typed KV reads with the Flags parsing/rejection semantics.
std::int64_t kv_int(const KV& params, const std::string& key,
                    std::int64_t def);
bool kv_bool(const KV& params, const std::string& key, bool def);
double kv_double(const KV& params, const std::string& key, double def);

}  // namespace ckp

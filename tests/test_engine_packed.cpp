// The engine round loop (local/engine.hpp): bit-identity against the naive
// sequential oracle (tests/naive_engine.hpp) and across thread counts,
// schedulers and SIMD kernels on adversarially skewed active sets, budget
// stops at the round barrier, the allocation-free certification of the
// round loop, and the engine-side byte accounting the scale benches gate on.
//
// The per-algorithm *PackedMatchesGeneric tests assert exact (rounds, output
// digest) constants captured from the retired generic engine loop, where
// the packed and generic loops agreed; they keep guarding bit-identity now
// that the packed loop is the only one.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algo/greedy_color.hpp"
#include "algo/matching_local.hpp"
#include "algo/mis_ghaffari.hpp"
#include "algo/mis_luby.hpp"
#include "algo/plus_one_coloring.hpp"
#include "algo/sinkless_local.hpp"
#include "graph/generators.hpp"
#include "graph/regular.hpp"
#include "graph/trees.hpp"
#include "lcl/verify_coloring.hpp"
#include "lcl/verify_matching.hpp"
#include "lcl/verify_mis.hpp"
#include "local/budget.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"
#include "local/ids.hpp"
#include "naive_engine.hpp"
#include "obs/observer.hpp"
#include "obs/resource.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

// Under ASan/TSan the sanitizer runtime may own operator new, leaving the
// repo's allocation counters idle — same guard as test_obs_resource.cpp.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define CKP_SANITIZER_MAY_OWN_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CKP_SANITIZER_MAY_OWN_ALLOCATOR 1
#endif
#endif
#ifndef CKP_SANITIZER_MAY_OWN_ALLOCATOR
#define CKP_SANITIZER_MAY_OWN_ALLOCATOR 0
#endif

namespace ckp {
namespace {

// Packed DetLOCAL fixture with an adversarially skewed halt schedule: node v
// runs for lifetime(v) rounds, where most nodes die almost immediately and a
// sparse minority (every 97th node, clustered by the multiplier) lives ~30x
// longer. Under static chunking the surviving work concentrates in a few
// chunks — exactly the shape work stealing exists for — while the mixing
// term makes any cross-chunk read of a partially-updated state change the
// final words.
struct SkewedMixer {
  struct State {
    std::uint64_t acc = 0;
    std::uint32_t remaining = 0;
    std::uint32_t pad = 0;
    bool operator==(const State&) const = default;
  };

  State init(const NodeEnv& env) {
    const auto v = static_cast<std::uint32_t>(env.index);
    const std::uint32_t life = (v % 97 == 0) ? 60 + v % 13 : 1 + v % 3;
    return {0x9e3779b97f4a7c15ULL * (v + 1), life, 0};
  }

  bool step(State& self, const NodeEnv&, std::span<const State* const> nbrs) {
    std::uint64_t acc = self.acc;
    for (const State* nb : nbrs) acc ^= (nb->acc >> 7) + nb->remaining;
    self.acc = acc * 0x2545F4914F6CDD1DULL + 1;
    return --self.remaining == 0;
  }
};

// RandLOCAL variant: same skew, but lifetimes and mixing draws come from the
// per-node private stream, so any scheduler-dependent interleaving of RNG
// consumption shows up as a state diff.
struct SkewedRandMixer {
  struct State {
    std::uint64_t acc = 0;
    std::uint32_t remaining = 0;
    std::uint32_t pad = 0;
    bool operator==(const State&) const = default;
  };

  State init(const NodeEnv& env) {
    const std::uint64_t r = env.random()();
    const std::uint32_t life =
        (env.index % 89 == 0) ? 50 + r % 16 : 1 + r % 4;
    return {r, life, 0};
  }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    std::uint64_t acc = self.acc;
    for (const State* nb : nbrs) acc ^= nb->acc * 0x9e3779b97f4a7c15ULL;
    self.acc = acc + env.random()();
    return --self.remaining == 0;
  }
};

// Label-reading fixture: every step folds the port-aligned incident edge
// labels together with the matching neighbor's word, plus the node's ID
// (DetLOCAL) or a private draw (RandLOCAL). A label span misaligned with the
// ports, or taken from the wrong node, changes the final words.
struct LabelMixer {
  struct State {
    std::uint64_t acc = 0;
    std::uint32_t remaining = 0;
    std::uint32_t pad = 0;
    bool operator==(const State&) const = default;
  };

  State init(const NodeEnv& env) {
    const std::uint64_t salt = env.has_id() ? env.id : env.random()();
    const auto v = static_cast<std::uint32_t>(env.index);
    const std::uint32_t life = (v % 61 == 0) ? 40 + v % 7 : 1 + salt % 4;
    return {salt * 0x9e3779b97f4a7c15ULL, life, 0};
  }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    std::uint64_t acc = self.acc;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const auto label =
          static_cast<std::uint64_t>(env.incident_edge_labels[i]);
      acc = acc * 0x2545F4914F6CDD1DULL + (nbrs[i]->acc ^ (label << 40));
    }
    self.acc = acc + (env.has_id() ? env.id : env.random()());
    return --self.remaining == 0;
  }
};

template <typename A>
void expect_same_run(const EngineResult<A>& a, const EngineResult<A>& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.all_halted, b.all_halted);
  ASSERT_EQ(a.states.size(), b.states.size());
  for (std::size_t i = 0; i < a.states.size(); ++i) {
    ASSERT_TRUE(a.states[i] == b.states[i]) << "state mismatch at node " << i;
  }
}

std::vector<Graph> fixture_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(make_complete_tree(700, 3));
  graphs.push_back(make_cycle(389));
  Rng rng(0xFAC7);
  graphs.push_back(make_random_regular(512, 6, rng));
  return graphs;
}

class RecordingObserver : public EngineObserver {
 public:
  std::vector<std::pair<NodeId, int>> halts;
  std::vector<NodeId> active_per_round;

  void on_node_halt(NodeId v, int round) override { halts.emplace_back(v, round); }
  void on_round_end(const RoundStats& stats) override {
    active_per_round.push_back(stats.active_nodes);
  }
};

// Active nodes per round (the RoundStats::active_nodes sequence) implied by
// the oracle's halt events.
std::vector<NodeId> active_per_round(
    NodeId n, int rounds, const std::vector<std::pair<NodeId, int>>& halts) {
  std::vector<NodeId> active(static_cast<std::size_t>(rounds), n);
  for (const auto& [v, round] : halts) {
    (void)v;
    for (int r = round; r < rounds; ++r) --active[static_cast<std::size_t>(r)];
  }
  return active;
}

// Runs `in` through the naive oracle and through the engine at threads
// {1,2,8} × both schedulers × SIMD on/off, observed and unobserved. States,
// rounds, halting, per-round active counts and halt events must all match
// the oracle — halt events as the same nodes in the same rounds in the same
// order (the chunk-order merge contract), independent of who computed each
// chunk. Returns the oracle's result.
template <typename A>
EngineResult<A> check_against_oracle(const LocalInput& in, int max_rounds) {
  A oracle_algo;
  std::vector<std::pair<NodeId, int>> halts;
  const auto oracle =
      testing::run_local_naive(in, oracle_algo, max_rounds, &halts);
  const std::vector<NodeId> active =
      active_per_round(in.graph->num_nodes(), oracle.rounds, halts);
  for (const int threads : {1, 2, 8}) {
    for (const EngineSchedule schedule :
         {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
      for (const bool simd : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " stealing="
                     << (schedule == EngineSchedule::kWorkStealing)
                     << " simd=" << simd);
        EngineOptions opts;
        opts.threads = threads;
        opts.schedule = schedule;
        opts.simd = simd;
        A algo;
        RecordingObserver obs;
        expect_same_run(oracle, run_local(in, algo, max_rounds, &obs, opts));
        EXPECT_EQ(obs.halts, halts);
        EXPECT_EQ(obs.active_per_round, active);
        // The unobserved (allocation-certified) instantiation too.
        A bare_algo;
        expect_same_run(oracle,
                        run_local(in, bare_algo, max_rounds, nullptr, opts));
      }
    }
  }
  return oracle;
}

TEST(EnginePacked, DetSkewBitIdenticalAcrossThreadsAndSchedulers) {
  for (const Graph& g : fixture_graphs()) {
    LocalInput in;
    in.graph = &g;
    in.ids = sequential_ids(g.num_nodes());
    EXPECT_TRUE(check_against_oracle<SkewedMixer>(in, 200).all_halted);
  }
}

TEST(EnginePacked, RandSkewBitIdenticalAcrossThreadsAndSchedulers) {
  for (const Graph& g : fixture_graphs()) {
    LocalInput in;
    in.graph = &g;
    in.seed = 0x5EED;
    EXPECT_TRUE(check_against_oracle<SkewedRandMixer>(in, 200).all_halted);
    // Truncated: the cap lands while the long-lived nodes still run.
    EXPECT_FALSE(check_against_oracle<SkewedRandMixer>(in, 7).all_halted);
  }
}

// Per-edge labels for the label-reading fixture: arbitrary, distinct-ish
// values, so a port misalignment is visible.
std::vector<int> edge_labels_for(const Graph& g) {
  std::vector<int> labels(static_cast<std::size_t>(g.num_edges()));
  for (std::size_t e = 0; e < labels.size(); ++e) {
    labels[e] = static_cast<int>((e * 7919 + 13) % 100003);
  }
  return labels;
}

TEST(EnginePacked, MatchesNaiveOracleOnFixtures) {
  // Port-aligned labels in both modes: IDs + labels, and private streams +
  // labels (the skew fixtures above cover the label-free inputs).
  for (const Graph& g : fixture_graphs()) {
    LocalInput det;
    det.graph = &g;
    det.ids = sequential_ids(g.num_nodes());
    det.edge_labels = edge_labels_for(g);
    EXPECT_TRUE(check_against_oracle<LabelMixer>(det, 200).all_halted);

    LocalInput rand;
    rand.graph = &g;
    rand.seed = 11;
    rand.edge_labels = det.edge_labels;
    EXPECT_TRUE(check_against_oracle<LabelMixer>(rand, 200).all_halted);
  }
}

TEST(EnginePacked, StepLimitStopMatchesCappedOracle) {
  // A step-limit stop lands on the first round barrier at which the
  // cumulative active-node count reaches the limit; the partial states must
  // equal the naive oracle capped at exactly that round.
  const Graph g = make_complete_tree(700, 3);
  LocalInput in;
  in.graph = &g;
  in.seed = 0x57E9;
  in.edge_labels = edge_labels_for(g);
  LabelMixer full_algo;
  std::vector<std::pair<NodeId, int>> halts;
  const auto full = testing::run_local_naive(in, full_algo, 200, &halts);
  ASSERT_TRUE(full.all_halted);

  const std::vector<NodeId> active =
      active_per_round(g.num_nodes(), full.rounds, halts);
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  std::uint64_t total = 0;
  for (const NodeId a : active) total += static_cast<std::uint64_t>(a);
  for (const std::uint64_t limit : {n, n + 1, total / 2, total - n / 2}) {
    int stop_round = 0;
    std::uint64_t used = 0;
    while (used < limit) {
      used += static_cast<std::uint64_t>(
          active[static_cast<std::size_t>(stop_round++)]);
    }
    ASSERT_LT(stop_round, full.rounds);
    LabelMixer capped_algo;
    const auto capped = testing::run_local_naive(in, capped_algo, stop_round);
    for (const int threads : {1, 8}) {
      RunBudget budget;
      budget.step_limit = limit;
      EngineOptions opts;
      opts.threads = threads;
      opts.schedule = EngineSchedule::kWorkStealing;
      opts.budget = &budget;
      LabelMixer algo;
      const auto stopped = run_local(in, algo, 200, nullptr, opts);
      EXPECT_TRUE(stopped.interrupted) << "limit=" << limit;
      EXPECT_EQ(budget.stop_reason(), BudgetStop::kStepLimit);
      EXPECT_EQ(budget.steps.load(), used);
      expect_same_run(capped, stopped);
    }
  }
}

// ---------------------------------------------------------------------------
// The ported algorithms: outputs pinned to the retired generic loop's (see
// the file comment), verified, and within the engine-side byte budgets of
// bench_scale --assert-budget (48 B/node DetLOCAL baseline, +32 for RNG
// streams, +4Δ for port-aligned edge labels).

// bench_scale's engine-side byte budget for an algorithm run on `g`.
std::uint64_t byte_budget(const Graph& g, bool rng_streams, bool labels) {
  const std::uint64_t per_node =
      48 + (rng_streams ? 32 : 0) +
      (labels ? 4 * static_cast<std::uint64_t>(g.max_degree()) : 0);
  return per_node * static_cast<std::uint64_t>(g.num_nodes());
}

TEST(EnginePacked, LubyPackedMatchesGeneric) {
  Rng rng(0x1B1);
  const Graph g = make_random_regular(600, 5, rng);
  LocalInput in;
  in.graph = &g;
  in.seed = 3;
  const auto packed = mis_luby(in);
  // The generic loop's output, pinned (see the file comment).
  EXPECT_EQ(packed.rounds, 6);
  EXPECT_EQ(testing::bytes_digest(packed.in_set), 0xee4cfe27fc316cd1ULL);
  EXPECT_TRUE(packed.completed);
  EXPECT_TRUE(verify_mis(g, packed.in_set).ok);
  EXPECT_LE(packed.engine_bytes,
            byte_budget(g, /*rng_streams=*/true, /*labels=*/false));
}

TEST(EnginePacked, GreedyColorPackedMatchesGenericAndMeetsBudget) {
  Rng rng(0x6C);
  const Graph g = make_random_regular(1024, 4, rng);
  LocalInput in;
  in.graph = &g;
  in.ids = random_ids(g.num_nodes(), 20, rng);
  const auto packed = greedy_color_local(in, 5);
  // The generic loop's output, pinned (see the file comment).
  EXPECT_EQ(packed.rounds, 10);
  EXPECT_EQ(testing::bytes_digest(packed.colors), 0x039d473ba0054c55ULL);
  EXPECT_TRUE(packed.completed);
  EXPECT_TRUE(verify_coloring(g, packed.colors, 5).ok);
  // The scale bench's DetLOCAL budget: <= 48 engine-side bytes per node.
  EXPECT_LE(packed.engine_bytes,
            byte_budget(g, /*rng_streams=*/false, /*labels=*/false));
}

TEST(EnginePacked, SinklessPackedMatchesGenericAndVerifies) {
  Rng rng(0x51A);
  const auto inst = make_random_bipartite_regular(256, 4, rng);
  LocalInput in;
  in.graph = &inst.graph;
  in.seed = 9;
  in.edge_labels = inst.edge_color;
  const auto packed = sinkless_local(in);
  // The generic loop's output, pinned (see the file comment).
  EXPECT_EQ(packed.rounds, 6);
  EXPECT_EQ(testing::bytes_digest(packed.orient), 0xea1180f0469068e9ULL);
  EXPECT_TRUE(packed.completed);
  EXPECT_TRUE(verify_sinkless_orientation(inst.graph, packed.orient).ok);
  EXPECT_LE(packed.engine_bytes,
            byte_budget(inst.graph, /*rng_streams=*/true, /*labels=*/true));
}

TEST(EnginePacked, SinklessThreadAndScheduleInvariant) {
  Rng rng(0x51B);
  const auto inst = make_random_bipartite_regular(200, 3, rng);
  LocalInput in;
  in.graph = &inst.graph;
  in.seed = 4;
  in.edge_labels = inst.edge_color;
  const auto base = sinkless_local(in);
  for (const int threads : {2, 8}) {
    for (const EngineSchedule schedule :
         {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.schedule = schedule;
      const auto run = sinkless_local(in, 1 << 14, opts);
      EXPECT_EQ(base.rounds, run.rounds);
      EXPECT_EQ(base.orient, run.orient);
      EXPECT_EQ(base.completed, run.completed);
    }
  }
}

TEST(EnginePacked, SinklessRejectsMalformedInput) {
  Rng rng(0xBAD);
  const auto inst = make_random_bipartite_regular(32, 3, rng);
  {
    LocalInput in;  // DetLOCAL input: ids are forbidden
    in.graph = &inst.graph;
    in.ids = sequential_ids(inst.graph.num_nodes());
    in.edge_labels = inst.edge_color;
    EXPECT_THROW(sinkless_local(in), CheckFailure);
  }
  {
    LocalInput in;  // missing labels
    in.graph = &inst.graph;
    EXPECT_THROW(sinkless_local(in), CheckFailure);
  }
  {
    LocalInput in;  // improper coloring: two edges at node 0 share a color
    in.graph = &inst.graph;
    std::vector<int> bad = inst.edge_color;
    const auto incident = inst.graph.incident_edges(0);
    bad[static_cast<std::size_t>(incident[1])] =
        bad[static_cast<std::size_t>(incident[0])];
    in.edge_labels = bad;
    EXPECT_THROW(sinkless_local(in), CheckFailure);
  }
  {
    const Graph path = Graph::from_edges(2, {{0, 1}});  // degree-1 node
    LocalInput in;
    in.graph = &path;
    in.edge_labels = {0};
    EXPECT_THROW(sinkless_local(in), CheckFailure);
  }
}

TEST(EnginePacked, GhaffariPackedMatchesGenericAndVerifies) {
  Rng rng(0x6AFF);
  const Graph g = make_random_regular(800, 6, rng);
  LocalInput in;
  in.graph = &g;
  in.seed = 17;
  const auto packed = mis_ghaffari_local(in);
  // The generic loop's output, pinned (see the file comment).
  EXPECT_EQ(packed.rounds, 27);
  EXPECT_EQ(testing::bytes_digest(packed.in_set), 0x768275cb68b9a3e6ULL);
  EXPECT_TRUE(packed.completed);
  EXPECT_TRUE(verify_mis(g, packed.in_set).ok);
  EXPECT_LE(packed.engine_bytes,
            byte_budget(g, /*rng_streams=*/true, /*labels=*/false));
  // Shattering accounting is internally consistent.
  EXPECT_LE(packed.largest_residue_component, packed.residue_nodes);
  EXPECT_LE(packed.residue_nodes, g.num_nodes());
  EXPECT_LE(packed.phase1_rounds, packed.rounds);
}

TEST(EnginePacked, GhaffariThreadScheduleAndSimdInvariant) {
  Rng rng(0x6AFE);
  const Graph g = make_complete_tree(700, 3);
  LocalInput in;
  in.graph = &g;
  in.seed = 5;
  const auto base = mis_ghaffari_local(in);
  EXPECT_TRUE(base.completed);
  for (const int threads : {1, 2, 8}) {
    for (const EngineSchedule schedule :
         {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
      for (const bool simd : {false, true}) {
        EngineOptions opts;
        opts.threads = threads;
        opts.schedule = schedule;
        opts.simd = simd;
        const auto run = mis_ghaffari_local(in, 1 << 20, opts);
        EXPECT_EQ(base.rounds, run.rounds);
        EXPECT_EQ(base.in_set, run.in_set);
        EXPECT_EQ(base.residue_nodes, run.residue_nodes);
      }
    }
  }
}

TEST(EnginePacked, GhaffariRejectsMalformedInput) {
  const Graph g = make_cycle(16);
  LocalInput in;
  in.graph = &g;
  in.ids = sequential_ids(g.num_nodes());  // RandLOCAL: ids forbidden
  EXPECT_THROW(mis_ghaffari_local(in), CheckFailure);
  LocalInput rand_in;
  rand_in.graph = &g;
  GhaffariMisParams params;
  params.phase1_iterations = 300;  // exceeds the 8-bit packed counter
  EXPECT_THROW(mis_ghaffari_local(rand_in, 1 << 20, EngineOptions{}, params),
               CheckFailure);
}

TEST(EnginePacked, MatchingRandomizedPackedMatchesGenericAndVerifies) {
  Rng rng(0x3A7C);
  const Graph g = make_random_regular(600, 5, rng);
  LocalInput in;
  in.graph = &g;
  in.seed = 23;
  const auto packed = matching_randomized_local(in);
  // The generic loop's output, pinned (see the file comment).
  EXPECT_EQ(packed.rounds, 8);
  EXPECT_EQ(testing::bytes_digest(packed.in_matching), 0x6830c3a35131f3caULL);
  EXPECT_TRUE(packed.completed);
  EXPECT_TRUE(verify_maximal_matching(g, packed.in_matching).ok);
  // Stateless draws (no RNG streams) over synthesized edge labels.
  EXPECT_LE(packed.engine_bytes,
            byte_budget(g, /*rng_streams=*/false, /*labels=*/true));
}

TEST(EnginePacked, MatchingDeterministicPackedMatchesGenericAndVerifies) {
  Rng rng(0x3A7D);
  const Graph g = make_complete_tree(500, 4);
  LocalInput in;
  in.graph = &g;
  in.ids = random_ids(g.num_nodes(), 27, rng);
  const auto packed = matching_deterministic_local(in);
  // The generic loop's output, pinned (see the file comment).
  EXPECT_EQ(packed.rounds, 9);
  EXPECT_EQ(testing::bytes_digest(packed.in_matching), 0xd201fecfe7a9ee6fULL);
  EXPECT_TRUE(packed.completed);
  EXPECT_TRUE(verify_maximal_matching(g, packed.in_matching).ok);
  EXPECT_LE(packed.engine_bytes,
            byte_budget(g, /*rng_streams=*/false, /*labels=*/false));
}

TEST(EnginePacked, MatchingThreadScheduleAndSimdInvariant) {
  Rng rng(0x3A7E);
  const Graph g = make_random_regular(512, 4, rng);
  LocalInput rand_in;
  rand_in.graph = &g;
  rand_in.seed = 31;
  LocalInput det_in;
  det_in.graph = &g;
  det_in.ids = random_ids(g.num_nodes(), 26, rng);
  const auto rand_base = matching_randomized_local(rand_in);
  const auto det_base = matching_deterministic_local(det_in);
  EXPECT_TRUE(rand_base.completed);
  EXPECT_TRUE(det_base.completed);
  for (const int threads : {1, 2, 8}) {
    for (const EngineSchedule schedule :
         {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
      for (const bool simd : {false, true}) {
        EngineOptions opts;
        opts.threads = threads;
        opts.schedule = schedule;
        opts.simd = simd;
        const auto r = matching_randomized_local(rand_in, 1 << 20, opts);
        EXPECT_EQ(rand_base.rounds, r.rounds);
        EXPECT_EQ(rand_base.in_matching, r.in_matching);
        const auto d = matching_deterministic_local(det_in, 1 << 20, opts);
        EXPECT_EQ(det_base.rounds, d.rounds);
        EXPECT_EQ(det_base.in_matching, d.in_matching);
      }
    }
  }
}

TEST(EnginePacked, MatchingRejectsMalformedInput) {
  const Graph g = make_cycle(16);
  {
    LocalInput in;  // randomized: ids forbidden
    in.graph = &g;
    in.ids = sequential_ids(g.num_nodes());
    EXPECT_THROW(matching_randomized_local(in), CheckFailure);
  }
  {
    LocalInput in;  // randomized: labels are synthesized, not accepted
    in.graph = &g;
    in.edge_labels.assign(static_cast<std::size_t>(g.num_edges()), 0);
    EXPECT_THROW(matching_randomized_local(in), CheckFailure);
  }
  {
    LocalInput in;  // deterministic: ids required
    in.graph = &g;
    EXPECT_THROW(matching_deterministic_local(in), CheckFailure);
  }
  {
    LocalInput in;  // deterministic: ids must fit below 2^28 - 1
    in.graph = &g;
    in.ids = sequential_ids(g.num_nodes());
    in.ids[0] = 1ULL << 28;
    EXPECT_THROW(matching_deterministic_local(in), CheckFailure);
  }
}

TEST(EnginePacked, PlusOnePackedMatchesGenericAndVerifies) {
  Rng rng(0xA1B2);
  const Graph g = make_random_regular(700, 6, rng);
  LocalInput in;
  in.graph = &g;
  in.seed = 41;
  const auto packed = plus_one_local(in);
  // The generic loop's output, pinned (see the file comment).
  EXPECT_EQ(packed.rounds, 14);
  EXPECT_EQ(testing::bytes_digest(packed.colors), 0xea36666d8076e6c2ULL);
  EXPECT_TRUE(packed.completed);
  EXPECT_TRUE(verify_coloring(g, packed.colors, g.max_degree() + 1).ok);
  EXPECT_LE(packed.engine_bytes,
            byte_budget(g, /*rng_streams=*/true, /*labels=*/false));
}

TEST(EnginePacked, PlusOneThreadScheduleAndSimdInvariant) {
  const Graph g = make_complete_tree(600, 3);
  LocalInput in;
  in.graph = &g;
  in.seed = 43;
  const auto base = plus_one_local(in);
  EXPECT_TRUE(base.completed);
  for (const int threads : {1, 2, 8}) {
    for (const EngineSchedule schedule :
         {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
      for (const bool simd : {false, true}) {
        EngineOptions opts;
        opts.threads = threads;
        opts.schedule = schedule;
        opts.simd = simd;
        const auto run = plus_one_local(in, 0, 1 << 20, opts);
        EXPECT_EQ(base.rounds, run.rounds);
        EXPECT_EQ(base.colors, run.colors);
      }
    }
  }
}

TEST(EnginePacked, PlusOneRejectsMalformedInput) {
  const Graph g = make_cycle(16);
  {
    LocalInput in;  // RandLOCAL: ids forbidden
    in.graph = &g;
    in.ids = sequential_ids(g.num_nodes());
    EXPECT_THROW(plus_one_local(in), CheckFailure);
  }
  LocalInput in;
  in.graph = &g;
  EXPECT_THROW(plus_one_local(in, 2), CheckFailure);   // palette < Δ+1
  EXPECT_THROW(plus_one_local(in, 65), CheckFailure);  // palette > mask width
}

// ---------------------------------------------------------------------------
// The EngineOptions::simd toggle on the raw fixtures: vector and scalar
// kernels must agree bit-for-bit on skewed halt schedules at every thread
// count and on both schedulers (per-chunk compaction tails exercise the
// ragged vector-width cases).

TEST(EnginePacked, SimdToggleBitIdenticalOnSkewedFixtures) {
  for (const Graph& g : fixture_graphs()) {
    LocalInput in;
    in.graph = &g;
    in.seed = 0x51D;
    SkewedRandMixer a1;
    EngineOptions scalar_opts;
    scalar_opts.threads = 1;
    scalar_opts.simd = false;
    const auto scalar = run_local(in, a1, 200, nullptr, scalar_opts);
    EXPECT_TRUE(scalar.all_halted);
    for (const int threads : {1, 2, 8}) {
      for (const EngineSchedule schedule :
           {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
        EngineOptions opts;
        opts.threads = threads;
        opts.schedule = schedule;
        opts.simd = true;
        SkewedRandMixer a2;
        const auto vec = run_local(in, a2, 200, nullptr, opts);
        expect_same_run(scalar, vec);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The needs_rng opt-out: an algorithm declaring needs_rng = false gets no
// per-node streams (32 B/node cheaper in RandLOCAL mode) and a loud failure
// if it draws anyway.

struct NoRngPacked {
  static constexpr bool needs_rng = false;

  struct State {
    std::uint64_t x = 0;
  };

  State init(const NodeEnv& env) {
    return {static_cast<std::uint64_t>(env.index) + 1};
  }

  bool step(State& self, const NodeEnv&, std::span<const State* const> nbrs) {
    for (const State* nb : nbrs) self.x += nb->x;
    return self.x > 1000;
  }
};

struct LyingNoRngPacked {
  static constexpr bool needs_rng = false;

  struct State {
    std::uint64_t x = 0;
  };

  State init(const NodeEnv&) { return {0}; }

  bool step(State& self, const NodeEnv& env, std::span<const State* const>) {
    self.x = env.random()();  // declared needs_rng = false: must throw
    return true;
  }
};

// Twin of NoRngPacked that keeps the default needs_rng = true: the engine
// footprints of the two runs differ by exactly the per-node stream array.
struct NoRngPackedWithStreams {
  struct State {
    std::uint64_t x = 0;
  };

  State init(const NodeEnv& env) {
    return {static_cast<std::uint64_t>(env.index) + 1};
  }

  bool step(State& self, const NodeEnv&, std::span<const State* const> nbrs) {
    for (const State* nb : nbrs) self.x += nb->x;
    return self.x > 1000;
  }
};

static_assert(detail::needs_rng_v<SkewedRandMixer>);  // default is true
static_assert(!detail::needs_rng_v<NoRngPacked>);

TEST(EnginePacked, NeedsRngOptOutSkipsStreamsAndFailsLoudlyOnDraws) {
  const Graph g = make_cycle(128);
  LocalInput in;  // RandLOCAL (no ids) — would normally allocate streams
  in.graph = &g;
  NoRngPacked lean_algo;
  const auto lean = run_local(in, lean_algo, 100, nullptr, EngineOptions{});
  EXPECT_TRUE(lean.all_halted);
  NoRngPackedWithStreams full_algo;
  const auto full = run_local(in, full_algo, 100, nullptr, EngineOptions{});
  EXPECT_EQ(lean.rounds, full.rounds);
  ASSERT_EQ(lean.states.size(), full.states.size());
  for (std::size_t i = 0; i < lean.states.size(); ++i) {
    EXPECT_EQ(lean.states[i].x, full.states[i].x);
  }
  EXPECT_EQ(full.engine_bytes,
            lean.engine_bytes +
                sizeof(Rng) * static_cast<std::uint64_t>(g.num_nodes()));
  LyingNoRngPacked liar;
  EXPECT_THROW(run_local(in, liar, 10, nullptr, EngineOptions{}),
               CheckFailure);
}

// ---------------------------------------------------------------------------
// Allocation-free certification. The packed engine wraps its round loop in
// AssertNoAlloc when unobserved; a packed step that allocates must therefore
// fail loudly instead of silently degrading the hot path.

struct AllocatingPacked {
  struct State {
    std::uint64_t x = 0;
  };

  State init(const NodeEnv&) { return {1}; }

  bool step(State& self, const NodeEnv&, std::span<const State* const>) {
    std::vector<std::uint64_t> scratch(8, self.x);  // heap churn in the loop
    self.x = scratch.back() + 1;
    return self.x > 3;
  }
};

TEST(EnginePacked, AllocatingStepFailsTheNoAllocCertification) {
#if CKP_SANITIZER_MAY_OWN_ALLOCATOR
  if (!alloc_counting_active()) {
    GTEST_SKIP() << "sanitizer runtime owns operator new; allocation "
                    "counters are idle in this build";
  }
#endif
  const Graph g = make_cycle(64);
  LocalInput in;
  in.graph = &g;
  in.ids = sequential_ids(g.num_nodes());
  AllocatingPacked algo;
  EXPECT_THROW(run_local(in, algo, 10, nullptr, EngineOptions{}),
               CheckFailure);
}

TEST(EnginePacked, PortedAlgorithmsPassTheNoAllocCertification) {
  // These runs go through the guarded round loop; completing without a
  // CheckFailure is the certification. The engine only engages the guard
  // when the interposed counters are live, so skip (rather than pass
  // vacuously) when a sanitizer runtime owns the allocator.
#if CKP_SANITIZER_MAY_OWN_ALLOCATOR
  if (!alloc_counting_active()) {
    GTEST_SKIP() << "sanitizer runtime owns operator new; allocation "
                    "counters are idle in this build";
  }
#endif
  Rng rng(0xCE27);
  const auto inst = make_random_bipartite_regular(128, 3, rng);
  LocalInput rand_in;
  rand_in.graph = &inst.graph;
  rand_in.seed = 2;
  EXPECT_TRUE(mis_luby(rand_in).completed);
  EXPECT_TRUE(mis_ghaffari_local(rand_in).completed);
  EXPECT_TRUE(matching_randomized_local(rand_in).completed);
  EXPECT_TRUE(plus_one_local(rand_in).completed);
  rand_in.edge_labels = inst.edge_color;
  sinkless_local(rand_in);
  LocalInput det_in;
  det_in.graph = &inst.graph;
  det_in.ids = sequential_ids(inst.graph.num_nodes());
  EXPECT_TRUE(greedy_color_local(det_in, 4).completed);
  EXPECT_TRUE(matching_deterministic_local(det_in).completed);
}

}  // namespace
}  // namespace ckp

#include "algo/sinkless_local.hpp"

#include <array>
#include <cstdint>
#include <span>

#include "util/check.hpp"

namespace ckp {
namespace {

// Single 64-bit word per node:
//   [31:0]  payload — the claim's 32-bit coin while unsatisfied, the winning
//           round ("generation") while satisfied;
//   [39:32] the claimed / owned edge color;
//   [59:40] the node's own round counter (all nodes start at 0 and step in
//           lockstep, so this equals the engine round — it is how a node
//           stamps generations without the engine exposing a round number);
//   [60]    satisfied.
constexpr std::uint64_t kSoPayloadMask = 0xFFFFFFFFULL;
constexpr int kSoColorShift = 32;
constexpr std::uint64_t kSoColorMask = 0xFF;
constexpr int kSoRoundShift = 40;
constexpr std::uint64_t kSoRoundMask = (1ULL << 20) - 1;
constexpr std::uint64_t kSoSatBit = 1ULL << 60;

std::uint64_t color_of(std::uint64_t w) {
  return (w >> kSoColorShift) & kSoColorMask;
}

struct SinklessAlgo {
  struct State {
    std::uint64_t word = 0;
  };

  State init(const NodeEnv& env) {
    // One draw: high half picks the initial claim port uniformly, low half
    // is the claim's coin.
    const std::uint64_t r = env.random()();
    const auto port = static_cast<std::size_t>(
        (r >> 32) % static_cast<std::uint64_t>(env.degree));
    const auto color =
        static_cast<std::uint64_t>(env.incident_edge_labels[port]);
    return {(color << kSoColorShift) | (r & kSoPayloadMask)};
  }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    const std::uint64_t w = self.word;
    const std::uint64_t round = ((w >> kSoRoundShift) & kSoRoundMask) + 1;
    const std::span<const int> labels = env.incident_edge_labels;
    const std::uint64_t my_color = color_of(w);

    // The port carrying my claimed/owned color (unique: the coloring is
    // proper).
    std::size_t my_port = 0;
    while (static_cast<std::uint64_t>(labels[my_port]) != my_color) ++my_port;
    const std::uint64_t across = nbrs[my_port]->word;

    if (w & kSoSatBit) {
      // Theft check: a same-color satisfied neighbor across my out-edge with
      // a strictly newer generation stole it (strictness is sound: an edge
      // only becomes stealable after its owner was satisfied a full round,
      // so the thief's round exceeds the owner's generation).
      const bool stolen = (across & kSoSatBit) != 0 &&
                          color_of(across) == my_color &&
                          (across & kSoPayloadMask) > (w & kSoPayloadMask);
      if (!stolen) {
        std::uint64_t all_sat = kSoSatBit;
        for (const State* nb : nbrs) all_sat &= nb->word;
        if (all_sat != 0) return true;  // nobody left who could steal from me
        self.word =
            (w & ~(kSoRoundMask << kSoRoundShift)) | (round << kSoRoundShift);
        return false;
      }
      return reclaim(self, env, nbrs, round);
    }

    // Resolve my pending claim against the neighbor across it. I lose to an
    // established owner, or to a contesting claim with coin >= mine (ties
    // lose both ways, so an edge never gains two same-round winners).
    bool lose;
    if (across & kSoSatBit) {
      lose = color_of(across) == my_color;
    } else {
      lose = color_of(across) == my_color &&
             (across & kSoPayloadMask) >= (w & kSoPayloadMask);
    }
    if (!lose) {
      self.word = kSoSatBit | (round << kSoRoundShift) |
                  (my_color << kSoColorShift) | round;  // generation = round
      return false;  // stay awake to watch for theft
    }
    return reclaim(self, env, nbrs, round);
  }

 private:
  // A losing (or just-victimized) node draws one coin and claims a fresh
  // edge among the non-reserved ports; with every port reserved it is
  // deadlocked — all neighbors point at it — and steals a uniformly random
  // one instead.
  static bool reclaim(State& self, const NodeEnv& env,
                      std::span<const State* const> nbrs,
                      std::uint64_t round) {
    const std::span<const int> labels = env.incident_edge_labels;
    const std::uint64_t r = env.random()();
    const auto deg = static_cast<std::size_t>(env.degree);
    std::size_t claimable = 0;
    for (std::size_t k = 0; k < deg; ++k) {
      const std::uint64_t nb = nbrs[k]->word;
      const bool reserved =
          (nb & kSoSatBit) != 0 &&
          color_of(nb) == static_cast<std::uint64_t>(labels[k]);
      claimable += static_cast<std::size_t>(!reserved);
    }
    if (claimable == 0) {
      const auto steal = static_cast<std::size_t>(
          (r >> 32) % static_cast<std::uint64_t>(deg));
      const auto color = static_cast<std::uint64_t>(labels[steal]);
      self.word = kSoSatBit | (round << kSoRoundShift) |
                  (color << kSoColorShift) | round;
      return false;
    }
    auto pick = static_cast<std::size_t>(
        (r >> 32) % static_cast<std::uint64_t>(claimable));
    std::size_t port = 0;
    for (std::size_t k = 0; k < deg; ++k) {
      const std::uint64_t nb = nbrs[k]->word;
      const bool reserved =
          (nb & kSoSatBit) != 0 &&
          color_of(nb) == static_cast<std::uint64_t>(labels[k]);
      if (reserved) continue;
      if (pick == 0) {
        port = k;
        break;
      }
      --pick;
    }
    const auto color = static_cast<std::uint64_t>(labels[port]);
    self.word = (round << kSoRoundShift) | (color << kSoColorShift) |
                (r & kSoPayloadMask);
    return false;
  }
};

}  // namespace

SinklessLocalResult sinkless_local(const LocalInput& input, int max_rounds,
                                   const EngineOptions& options) {
  CKP_CHECK(input.graph != nullptr);
  const Graph& g = *input.graph;
  const NodeId n = g.num_nodes();
  const EdgeId m = g.num_edges();
  CKP_CHECK_MSG(!input.has_ids(), "sinkless_local is RandLOCAL: ids forbidden");
  CKP_CHECK_MSG(max_rounds >= 1 && max_rounds < (1 << 20),
                "max_rounds " << max_rounds
                              << " outside the 20-bit round counter");
  CKP_CHECK_MSG(input.edge_labels.size() == static_cast<std::size_t>(m),
                "sinkless_local needs a proper edge coloring in edge_labels");
  // Colors must fit the 8-bit field and be proper (no repeat at any node).
  std::array<std::uint64_t, 4> seen{};
  for (NodeId v = 0; v < n; ++v) {
    CKP_CHECK_MSG(g.degree(v) >= 2,
                  "sinkless orientation needs min degree >= 2; node "
                      << v << " has degree " << g.degree(v));
    seen.fill(0);
    for (EdgeId e : g.incident_edges(v)) {
      const int c = input.edge_labels[static_cast<std::size_t>(e)];
      CKP_CHECK_MSG(c >= 0 && c < 256, "edge color " << c << " outside [0,256)");
      std::uint64_t& word = seen[static_cast<std::size_t>(c) / 64];
      const std::uint64_t bit = 1ULL << (static_cast<std::size_t>(c) % 64);
      CKP_CHECK_MSG((word & bit) == 0, "edge coloring not proper at node " << v);
      word |= bit;
    }
  }

  SinklessAlgo algo;
  const auto run = run_local(input, algo, max_rounds, nullptr, options);

  SinklessLocalResult out;
  out.rounds = run.rounds;
  out.engine_bytes = run.engine_bytes;
  out.orient.assign(static_cast<std::size_t>(m), std::int8_t{1});

  // Extraction. Each satisfied node claims the incident edge of its owned
  // color; a steal that its victim never processed (the victim halted first —
  // the rare late cascade) leaves an edge with two satisfied endpoints, which
  // the newer generation wins. Nodes left without an out-edge make the run
  // incomplete; unclaimed edges keep the +1 default.
  std::vector<std::uint32_t> owner_gen(static_cast<std::size_t>(m), 0);
  std::vector<char> has_out(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> owner(static_cast<std::size_t>(m), kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t w = run.states[static_cast<std::size_t>(v)].word;
    if ((w & kSoSatBit) == 0) continue;
    const std::uint64_t c = color_of(w);
    const auto gen = static_cast<std::uint32_t>(w & kSoPayloadMask);
    for (EdgeId e : g.incident_edges(v)) {
      if (static_cast<std::uint64_t>(
              input.edge_labels[static_cast<std::size_t>(e)]) != c) {
        continue;
      }
      const std::size_t ei = static_cast<std::size_t>(e);
      // Ties are impossible (see step), but resolve them to the first
      // endpoint so extraction is total either way.
      if (owner[ei] == kInvalidNode || gen > owner_gen[ei]) {
        if (owner[ei] != kInvalidNode) {
          has_out[static_cast<std::size_t>(owner[ei])] = 0;
        }
        owner[ei] = v;
        owner_gen[ei] = gen;
        has_out[static_cast<std::size_t>(v)] = 1;
        out.orient[ei] = g.endpoints(e).first == v ? std::int8_t{1}
                                                   : std::int8_t{-1};
      }
      break;
    }
  }
  out.unsatisfied = 0;
  for (NodeId v = 0; v < n; ++v) {
    out.unsatisfied += has_out[static_cast<std::size_t>(v)] == 0 ? 1 : 0;
  }
  out.completed = run.all_halted && out.unsatisfied == 0 &&
                  verify_sinkless_orientation(g, out.orient).ok;
  return out;
}

}  // namespace ckp

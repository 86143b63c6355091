#include "algo/greedy_color.hpp"

#include <bit>
#include <cstdint>
#include <span>

#include "util/check.hpp"

namespace ckp {

void greedy_color_by_schedule(
    const Graph& g, const std::vector<int>& schedule, int schedule_palette,
    int palette, std::vector<char> active, bool respect_inactive,
    const std::function<bool(NodeId, int)>& allowed, std::vector<int>& colors,
    RoundLedger& ledger) {
  const NodeId n = g.num_nodes();
  CKP_CHECK(schedule.size() == static_cast<std::size_t>(n));
  CKP_CHECK(colors.size() == static_cast<std::size_t>(n));
  CKP_CHECK(active.size() == static_cast<std::size_t>(n));
  CKP_CHECK(palette >= 1);

  // Bucket active nodes by schedule class so each round costs only its
  // class plus neighbor scans.
  std::vector<std::vector<NodeId>> buckets(
      static_cast<std::size_t>(schedule_palette));
  for (NodeId v = 0; v < n; ++v) {
    if (!active[static_cast<std::size_t>(v)]) continue;
    const int s = schedule[static_cast<std::size_t>(v)];
    CKP_CHECK(s >= 0 && s < schedule_palette);
    buckets[static_cast<std::size_t>(s)].push_back(v);
  }
  // Participants colored in earlier rounds of this call must keep
  // constraining later rounds even though they are no longer active.
  const std::vector<char> participant = active;

  std::vector<char> used(static_cast<std::size_t>(palette), 0);
  for (int s = 0; s < schedule_palette; ++s) {
    // One synchronous round: all nodes of schedule class s decide using
    // only the colors fixed in earlier rounds (same-class nodes are
    // non-adjacent because the schedule is a proper coloring).
    for (NodeId v : buckets[static_cast<std::size_t>(s)]) {
      CKP_CHECK_MSG(colors[static_cast<std::size_t>(v)] == -1,
                    "active node " << v << " already colored");
      std::fill(used.begin(), used.end(), 0);
      for (NodeId u : g.neighbors(v)) {
        const bool counts =
            participant[static_cast<std::size_t>(u)] || respect_inactive;
        const int c = colors[static_cast<std::size_t>(u)];
        if (counts && c >= 0 && c < palette) used[static_cast<std::size_t>(c)] = 1;
      }
      int pick = -1;
      for (int c = 0; c < palette; ++c) {
        if (!used[static_cast<std::size_t>(c)] && (!allowed || allowed(v, c))) {
          pick = c;
          break;
        }
      }
      CKP_CHECK_MSG(pick >= 0, "node " << v << " has no free allowed color");
      colors[static_cast<std::size_t>(v)] = pick;
      active[static_cast<std::size_t>(v)] = 0;
    }
    ledger.charge(1);
  }
}

namespace {

// Single 64-bit word per node: [47:0] the node's ID (its priority and its
// identity to neighbors — NodeEnv carries only a node's *own* ID, so the
// priority must travel in the published state), [53:48] the chosen color
// (palette <= 64, so 6 bits and every shift below stays < 64), [63]
// decided.
constexpr std::uint64_t kGcIdMask = (1ULL << 48) - 1;
constexpr int kGcColorShift = 48;
constexpr std::uint64_t kGcColorMask = 0x3F;
constexpr std::uint64_t kGcDecidedBit = 1ULL << 63;

struct GreedyColorAlgo {
  struct State {
    std::uint64_t word = 0;
  };

  int palette = 0;  // read-only during the run

  State init(const NodeEnv& env) {
    CKP_CHECK_MSG(env.has_id(), "greedy_color_local is DetLOCAL: ids required");
    CKP_CHECK_MSG(env.id <= kGcIdMask,
                  "greedy_color_local supports ids < 2^48, got " << env.id);
    CKP_CHECK_MSG(env.degree < palette,
                  "palette " << palette << " too small for degree "
                             << env.degree);
    return {env.id};
  }

  bool step(State& self, const NodeEnv&, std::span<const State* const> nbrs) {
    if (self.word & kGcDecidedBit) return true;
    const std::uint64_t my_id = self.word & kGcIdMask;
    std::uint64_t used = 0;  // colors of decided neighbors, as a bitmask
    std::uint64_t wait = 0;  // nonzero if an undecided neighbor outranks us
    for (const State* nb : nbrs) {
      const std::uint64_t w = nb->word;
      const std::uint64_t decided = w >> 63;  // kGcDecidedBit, as 0/1
      used |= (decided << ((w >> kGcColorShift) & kGcColorMask));
      wait |= (decided ^ 1) &
              static_cast<std::uint64_t>((w & kGcIdMask) > my_id);
    }
    if (wait != 0) return false;
    // Smallest color not used by any decided neighbor: at most degree <
    // palette <= 64 bits are set, so the first zero bit is always in range.
    const int c = std::countr_one(used);
    self.word = kGcDecidedBit |
                (static_cast<std::uint64_t>(c) << kGcColorShift) | my_id;
    return true;
  }
};

}  // namespace

GreedyColorLocalResult greedy_color_local(const LocalInput& input,
                                          int palette, int max_rounds,
                                          const EngineOptions& options) {
  CKP_CHECK(input.graph != nullptr);
  const Graph& g = *input.graph;
  if (palette == 0) palette = g.max_degree() + 1;
  CKP_CHECK_MSG(palette > g.max_degree(),
                "palette " << palette << " < Δ+1 = " << g.max_degree() + 1);
  CKP_CHECK_MSG(palette <= 64, "greedy_color_local palette capped at 64");

  GreedyColorAlgo algo;
  algo.palette = palette;
  const auto run = run_local(input, algo, max_rounds, nullptr, options);

  GreedyColorLocalResult out;
  out.rounds = run.rounds;
  out.completed = run.all_halted;
  out.engine_bytes = run.engine_bytes;
  out.colors.resize(run.states.size(), -1);
  for (std::size_t i = 0; i < run.states.size(); ++i) {
    const std::uint64_t w = run.states[i].word;
    if (w & kGcDecidedBit) {
      out.colors[i] = static_cast<int>((w >> kGcColorShift) & kGcColorMask);
    }
  }
  return out;
}

}  // namespace ckp

#include "algo/mis_ghaffari.hpp"

#include <cmath>

#include "algo/mis_deterministic.hpp"
#include "graph/components.hpp"
#include "lcl/verify_mis.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace ckp {
namespace {

// Packed word for the engine port, one u64 per node:
//
//   [63:62] status (0 undecided, 1 in MIS, 2 retired)
//   [61]    phase-2 flag, sticky through halt (residue measurement)
//   [60]    mark-valid: the word carries this iteration's mark bit
//   [59]    marked
//   [57:50] phase-1 iteration counter (caps iterations at 255)
//   [49:0]  phase-2 priority   } disjoint in time: desire is phase 1,
//   [5:0]   desire exponent k  } priority is phase 2
//
// Desire levels are dyadic: desire = 2^-(k+1), k in [0, kGhMaxDesireExp],
// so "halve" is k+1, "double capped at 1/2" is max(k-1, 0), and a mark is
// drawn with exactly one RNG call by testing the top k+1 bits of a 64-bit
// draw for zero. The effective degree is summed in 2^31 fixed point
// (desire contributes 1 << (30-k); exponents past 30 contribute nothing,
// which only biases toward doubling desires that are already < 2^-31).
// Everything is integer arithmetic, so results are bit-identical across
// paths, thread counts, and schedulers.
constexpr int kGhStatusShift = 62;
constexpr std::uint64_t kGhInMis = 1;
constexpr std::uint64_t kGhRetired = 2;
constexpr std::uint64_t kGhPhase2Bit = 1ULL << 61;
constexpr std::uint64_t kGhValidBit = 1ULL << 60;
constexpr std::uint64_t kGhMarkedBit = 1ULL << 59;
constexpr int kGhIterShift = 50;
constexpr std::uint64_t kGhIterMask = 0xFF;
constexpr std::uint64_t kGhPrioMask = (1ULL << 50) - 1;
constexpr std::uint64_t kGhDesireMask = 0x3F;
constexpr std::uint64_t kGhMaxDesireExp = 40;
constexpr std::uint64_t kGhEffThreshold = 1ULL << 32;  // 2.0 in 2^31 fixed pt

struct GhaffariLocalAlgo {
  struct State {
    std::uint64_t word = 0;
  };

  // Phase-1 iteration budget; read-only config (steps must not mutate
  // shared members — engine contract).
  int iterations = 0;

  State init(const NodeEnv&) {
    // k = 0 (desire 1/2), iteration 0, no valid mark: round 1 is a mark
    // round.
    return {0};
  }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    const std::uint64_t w = self.word;
    if ((w >> kGhStatusShift) != 0) return true;
    if (w & kGhPhase2Bit) {
      // Phase-2 round: retire next to a MIS member; join on strict local
      // max priority; redraw on a tie (fixed priorities could deadlock).
      const std::uint64_t my_prio = w & kGhPrioMask;
      bool is_max = true;
      bool tied = false;
      for (const State* nb : nbrs) {
        const std::uint64_t nw = nb->word;
        if ((nw >> kGhStatusShift) == kGhInMis) {
          self.word = (kGhRetired << kGhStatusShift) | kGhPhase2Bit;
          return true;
        }
        if ((nw >> kGhStatusShift) != 0 || !(nw & kGhPhase2Bit)) continue;
        const std::uint64_t p = nw & kGhPrioMask;
        if (p > my_prio) is_max = false;
        if (p == my_prio) tied = true;
      }
      if (tied) {
        self.word = kGhPhase2Bit | (env.random()() & kGhPrioMask);
        return false;
      }
      if (is_max) {
        self.word = (kGhInMis << kGhStatusShift) | kGhPhase2Bit;
        return true;
      }
      return false;
    }
    if ((w & kGhValidBit) == 0) {
      // Mark round. React to joins of the previous resolve round first.
      for (const State* nb : nbrs) {
        if ((nb->word >> kGhStatusShift) == kGhInMis) {
          self.word = kGhRetired << kGhStatusShift;
          return true;
        }
      }
      const std::uint64_t it = (w >> kGhIterShift) & kGhIterMask;
      if (it >= static_cast<std::uint64_t>(iterations)) {
        // Phase-1 budget exhausted: this node is residue. Draw a phase-2
        // priority and hand off.
        self.word = kGhPhase2Bit | (env.random()() & kGhPrioMask);
        return false;
      }
      const std::uint64_t k = w & kGhDesireMask;
      const std::uint64_t marked =
          (env.random()() >> (63 - k)) == 0 ? kGhMarkedBit : 0;
      self.word = (it << kGhIterShift) | kGhValidBit | marked | k;
      return false;
    }
    // Resolve round: join when marked and alone; update desire from the
    // effective degree of undecided neighbors (their marks and exponents
    // were published in the mark round).
    const std::uint64_t k = w & kGhDesireMask;
    bool join = (w & kGhMarkedBit) != 0;
    std::uint64_t eff = 0;
    for (const State* nb : nbrs) {
      const std::uint64_t nw = nb->word;
      if ((nw >> kGhStatusShift) != 0 || !(nw & kGhValidBit)) continue;
      if (nw & kGhMarkedBit) join = false;
      const std::uint64_t nk = nw & kGhDesireMask;
      if (nk <= 30) eff += 1ULL << (30 - nk);
    }
    if (join) {
      self.word = kGhInMis << kGhStatusShift;
      return true;
    }
    const std::uint64_t next_k = eff >= kGhEffThreshold
                                     ? std::min(k + 1, kGhMaxDesireExp)
                                     : (k > 0 ? k - 1 : 0);
    const std::uint64_t it = ((w >> kGhIterShift) & kGhIterMask) + 1;
    self.word = (it << kGhIterShift) | next_k;
    return false;
  }
};

}  // namespace

GhaffariLocalResult mis_ghaffari_local(const LocalInput& input,
                                       int max_rounds,
                                       const EngineOptions& options,
                                       const GhaffariMisParams& params) {
  CKP_CHECK_MSG(!input.has_ids(),
                "mis_ghaffari_local is RandLOCAL: pass no IDs");
  const int delta = std::max(input.effective_delta(), 1);
  const int iterations =
      params.phase1_iterations > 0
          ? params.phase1_iterations
          : 2 * ceil_log2(static_cast<std::uint64_t>(delta) + 1) + 6;
  CKP_CHECK_MSG(iterations <= 255,
                "phase-1 iteration budget exceeds the 8-bit counter");
  GhaffariLocalAlgo algo{iterations};
  const auto run = run_local(input, algo, max_rounds, nullptr, options);

  GhaffariLocalResult out;
  out.rounds = run.rounds;
  out.completed = run.all_halted;
  out.engine_bytes = run.engine_bytes;
  // Mark round + resolve round per iteration, then the hand-off round in
  // which residue nodes drew their phase-2 priorities.
  out.phase1_rounds = std::min(run.rounds, 2 * iterations + 1);
  const NodeId n = input.graph->num_nodes();
  out.in_set.resize(static_cast<std::size_t>(n));
  std::vector<char> residue(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t w = run.states[static_cast<std::size_t>(v)].word;
    const std::uint64_t status = w >> kGhStatusShift;
    CKP_CHECK_MSG(!out.completed || status != 0,
                  "completed run left an undecided node");
    out.in_set[static_cast<std::size_t>(v)] = status == kGhInMis ? 1 : 0;
    // The phase-2 flag is sticky through halts, so the shattering residue
    // is recoverable from final states alone.
    residue[static_cast<std::size_t>(v)] = (w & kGhPhase2Bit) ? 1 : 0;
    if (residue[static_cast<std::size_t>(v)]) ++out.residue_nodes;
  }
  out.largest_residue_component =
      components_of_subset(*input.graph, residue).largest();
  if (out.completed) CKP_DCHECK(verify_mis(*input.graph, out.in_set).ok);
  return out;
}

GhaffariMisResult mis_ghaffari(const Graph& g, std::uint64_t seed,
                               RoundLedger& ledger,
                               const GhaffariMisParams& params) {
  const NodeId n = g.num_nodes();
  const int delta = std::max(g.max_degree(), 1);
  const int iterations =
      params.phase1_iterations > 0
          ? params.phase1_iterations
          : 2 * ceil_log2(static_cast<std::uint64_t>(delta) + 1) + 6;

  enum : char { kUndecided = 0, kInMis = 1, kRetired = 2 };
  std::vector<char> status(static_cast<std::size_t>(n), kUndecided);
  std::vector<double> desire(static_cast<std::size_t>(n), 0.5);
  std::vector<char> marked(static_cast<std::size_t>(n), 0);
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    rngs.push_back(node_rng(seed, static_cast<std::uint64_t>(v)));
  }

  GhaffariMisResult out;
  const int start_rounds = ledger.rounds();
  for (int it = 0; it < iterations; ++it) {
    // Sub-round A: mark.
    for (NodeId v = 0; v < n; ++v) {
      marked[static_cast<std::size_t>(v)] =
          status[static_cast<std::size_t>(v)] == kUndecided &&
          rngs[static_cast<std::size_t>(v)].next_bernoulli(
              desire[static_cast<std::size_t>(v)]);
    }
    // Sub-round B: join when marked with no marked undecided neighbor.
    std::vector<char> joins(static_cast<std::size_t>(n), 0);
    for (NodeId v = 0; v < n; ++v) {
      if (!marked[static_cast<std::size_t>(v)]) continue;
      bool alone = true;
      for (NodeId u : g.neighbors(v)) {
        if (marked[static_cast<std::size_t>(u)]) {
          alone = false;
          break;
        }
      }
      joins[static_cast<std::size_t>(v)] = alone;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (joins[static_cast<std::size_t>(v)]) {
        status[static_cast<std::size_t>(v)] = kInMis;
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (status[static_cast<std::size_t>(v)] != kUndecided) continue;
      for (NodeId u : g.neighbors(v)) {
        if (status[static_cast<std::size_t>(u)] == kInMis) {
          status[static_cast<std::size_t>(v)] = kRetired;
          break;
        }
      }
    }
    // Desire update from effective degree.
    std::vector<double> next_desire = desire;
    for (NodeId v = 0; v < n; ++v) {
      if (status[static_cast<std::size_t>(v)] != kUndecided) continue;
      double effective = 0.0;
      for (NodeId u : g.neighbors(v)) {
        if (status[static_cast<std::size_t>(u)] == kUndecided) {
          effective += desire[static_cast<std::size_t>(u)];
        }
      }
      if (effective >= 2.0) {
        next_desire[static_cast<std::size_t>(v)] =
            desire[static_cast<std::size_t>(v)] / 2.0;
      } else {
        next_desire[static_cast<std::size_t>(v)] =
            std::min(0.5, desire[static_cast<std::size_t>(v)] * 2.0);
      }
    }
    desire = std::move(next_desire);
    ledger.charge(2);  // mark exchange + join/retire exchange
  }
  out.phase1_rounds = ledger.rounds() - start_rounds;

  // Shattering measurement.
  std::vector<char> undecided(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    undecided[static_cast<std::size_t>(v)] =
        status[static_cast<std::size_t>(v)] == kUndecided;
    if (undecided[static_cast<std::size_t>(v)]) ++out.residue_nodes;
  }
  out.largest_residue_component =
      components_of_subset(g, undecided).largest();

  // Phase 2: deterministic finish on the residue with locally generated
  // random IDs (unique w.h.p.; node_rng streams are independent).
  if (out.residue_nodes > 0) {
    std::vector<std::uint64_t> ids(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      ids[static_cast<std::size_t>(v)] =
          rngs[static_cast<std::size_t>(v)]();
    }
    const auto det = mis_deterministic(g, ids, delta, ledger, undecided);
    for (NodeId v = 0; v < n; ++v) {
      if (det.in_set[static_cast<std::size_t>(v)]) {
        CKP_DCHECK(status[static_cast<std::size_t>(v)] == kUndecided);
        status[static_cast<std::size_t>(v)] = kInMis;
      }
    }
  }

  out.in_set.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    out.in_set[static_cast<std::size_t>(v)] =
        status[static_cast<std::size_t>(v)] == kInMis;
  }
  out.rounds = ledger.rounds() - start_rounds;
  CKP_DCHECK(verify_mis(g, out.in_set).ok);
  return out;
}

}  // namespace ckp

// The bookkeeping oracle for the engine round loop (local/engine.hpp).
//
// A naive sequential LOCAL loop: no active list, no halt slab, no chunks,
// no SIMD kernels, no double-buffer reuse. Each round takes a full copy of
// the previous round's states and steps every non-halted node in ascending
// order against it. It models every input the engine hands a node: the
// private stream node_rng(seed, v) (RandLOCAL inputs, unless the algorithm
// opts out with needs_rng = false), the DetLOCAL ID, and the incident edge
// labels in port order. Every engine run must equal this loop bit for bit —
// states, rounds, and halt events in (round, ascending node) order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"
#include "util/rng.hpp"

namespace ckp::testing {

template <typename A>
EngineResult<A> run_local_naive(
    const LocalInput& input, A& algo, int max_rounds,
    std::vector<std::pair<NodeId, int>>* halts = nullptr) {
  using State = typename A::State;
  input.validate();
  const Graph& g = *input.graph;
  const NodeId n = g.num_nodes();
  const bool randomized = !input.has_ids() && detail::needs_rng_v<A>;

  std::vector<Rng> rngs;
  std::vector<std::vector<int>> labels(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    if (randomized) {
      rngs.push_back(node_rng(input.seed, static_cast<std::uint64_t>(v)));
    }
    if (input.edge_labels.empty()) continue;
    for (EdgeId e : g.incident_edges(v)) {
      labels[static_cast<std::size_t>(v)].push_back(
          input.edge_labels[static_cast<std::size_t>(e)]);
    }
  }
  auto env_of = [&](NodeId v) {
    NodeEnv env;
    env.index = v;
    env.degree = g.degree(v);
    env.declared_n = input.effective_n();
    env.declared_delta = input.effective_delta();
    env.id = input.has_ids() ? input.id_of(v) : kNoId;
    env.rng = randomized ? &rngs[static_cast<std::size_t>(v)] : nullptr;
    env.incident_edge_labels = labels[static_cast<std::size_t>(v)];
    return env;
  };

  EngineResult<A> result;
  for (NodeId v = 0; v < n; ++v) result.states.push_back(algo.init(env_of(v)));
  std::vector<char> halted(static_cast<std::size_t>(n), 0);
  NodeId num_halted = 0;
  while (num_halted < n && result.rounds < max_rounds) {
    const std::vector<State> prev = result.states;
    std::vector<const State*> nbrs;
    for (NodeId v = 0; v < n; ++v) {
      if (halted[static_cast<std::size_t>(v)]) continue;
      nbrs.clear();
      for (NodeId u : g.neighbors(v)) {
        nbrs.push_back(&prev[static_cast<std::size_t>(u)]);
      }
      if (algo.step(result.states[static_cast<std::size_t>(v)], env_of(v),
                    std::span<const State* const>(nbrs))) {
        halted[static_cast<std::size_t>(v)] = 1;
        ++num_halted;
        if (halts != nullptr) halts->emplace_back(v, result.rounds + 1);
      }
    }
    ++result.rounds;
  }
  result.all_halted = (num_halted == n);
  return result;
}

}  // namespace ckp::testing

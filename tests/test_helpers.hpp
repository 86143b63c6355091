// Shared fixtures and helpers for the test suite.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/regular.hpp"
#include "graph/trees.hpp"
#include "store/binary_io.hpp"
#include "util/rng.hpp"

namespace ckp::testing {

// FNV-1a over a result vector's element bytes — the same witness as the
// serve registry's output_digest, so pinned constants read alike in both.
template <typename T>
std::uint64_t bytes_digest(const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a64(std::string_view(reinterpret_cast<const char*>(v.data()),
                                  v.size() * sizeof(T)));
}

// A labeled menagerie of small graphs covering the structural corner cases.
struct NamedGraph {
  std::string name;
  Graph graph;
};

inline std::vector<NamedGraph> small_graph_zoo() {
  Rng rng(0x500);
  std::vector<NamedGraph> zoo;
  zoo.push_back({"single", Graph::from_edges(1, {})});
  zoo.push_back({"edge", Graph::from_edges(2, {{0, 1}})});
  zoo.push_back({"path16", make_path(16)});
  zoo.push_back({"cycle9", make_cycle(9)});
  zoo.push_back({"cycle10", make_cycle(10)});
  zoo.push_back({"star17", make_star(17)});
  zoo.push_back({"k5", make_complete(5)});
  zoo.push_back({"k33", make_complete_bipartite(3, 3)});
  zoo.push_back({"grid5x7", make_grid(5, 7)});
  zoo.push_back({"hypercube4", make_hypercube(4)});
  zoo.push_back({"er64", make_er(64, 0.08, rng)});
  zoo.push_back({"tree_d3", make_complete_tree(40, 3)});
  zoo.push_back({"tree_d8", make_complete_tree(100, 8)});
  zoo.push_back({"random_tree", make_random_tree(80, 5, rng)});
  zoo.push_back({"prufer", make_prufer_tree(60, rng)});
  zoo.push_back({"caterpillar", make_caterpillar(12, 3)});
  zoo.push_back({"spider", make_spider(5, 6)});
  zoo.push_back({"moebius", make_moebius_ladder(8)});
  zoo.push_back({"regular4", make_random_regular(30, 4, rng)});
  return zoo;
}

inline std::vector<NamedGraph> tree_zoo() {
  Rng rng(0x7ee);
  std::vector<NamedGraph> zoo;
  zoo.push_back({"single", Graph::from_edges(1, {})});
  zoo.push_back({"edge", Graph::from_edges(2, {{0, 1}})});
  zoo.push_back({"path64", make_path(64)});
  zoo.push_back({"star33", make_star(33)});
  zoo.push_back({"complete_d3", make_complete_tree(200, 3)});
  zoo.push_back({"complete_d6", make_complete_tree(300, 6)});
  zoo.push_back({"random_d4", make_random_tree(250, 4, rng)});
  zoo.push_back({"prufer120", make_prufer_tree(120, rng)});
  zoo.push_back({"caterpillar", make_caterpillar(20, 4)});
  zoo.push_back({"spider", make_spider(7, 9)});
  return zoo;
}

}  // namespace ckp::testing

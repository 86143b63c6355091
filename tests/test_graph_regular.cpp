#include "graph/regular.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/components.hpp"
#include "graph/girth.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace ckp {
namespace {

class RandomRegular : public ::testing::TestWithParam<std::pair<NodeId, int>> {};

TEST_P(RandomRegular, IsSimpleAndRegular) {
  const auto [n, d] = GetParam();
  Rng rng(mix_seed(71, static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(d)));
  const Graph g = make_random_regular(n, d, rng);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_TRUE(g.is_regular(d));
  EXPECT_EQ(g.num_edges(), static_cast<EdgeId>(static_cast<std::int64_t>(n) * d / 2));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RandomRegular,
    ::testing::Values(std::pair<NodeId, int>{10, 3},
                      std::pair<NodeId, int>{50, 3},
                      std::pair<NodeId, int>{64, 4},
                      std::pair<NodeId, int>{100, 5},
                      std::pair<NodeId, int>{128, 8},
                      std::pair<NodeId, int>{41, 6}));

TEST(RandomRegular, RejectsOddProduct) {
  Rng rng(73);
  EXPECT_THROW(make_random_regular(7, 3, rng), CheckFailure);
}

class BipartiteRegular
    : public ::testing::TestWithParam<std::pair<NodeId, int>> {};

// Shape checks shared by both parameterized suites below.
void expect_regular_bipartite(const EdgeColoredGraph& inst, NodeId side,
                              int d) {
  EXPECT_EQ(inst.graph.num_nodes(), 2 * side);
  EXPECT_TRUE(inst.graph.is_regular(d));
  EXPECT_EQ(inst.num_colors, d);
  EXPECT_TRUE(is_proper_edge_coloring(inst.graph, inst.edge_color, d));
  // Bipartite: no edge within a side.
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    const auto [u, v] = inst.graph.endpoints(e);
    EXPECT_NE(u < side, v < side);
  }
}

TEST_P(BipartiteRegular, RegularBipartiteProperlyColored) {
  const auto [side, d] = GetParam();
  Rng rng(mix_seed(79, static_cast<std::uint64_t>(side), static_cast<std::uint64_t>(d)));
  expect_regular_bipartite(make_random_bipartite_regular(side, d, rng), side,
                           d);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BipartiteRegular,
    ::testing::Values(std::pair<NodeId, int>{8, 3},
                      std::pair<NodeId, int>{32, 3},
                      std::pair<NodeId, int>{64, 4},
                      std::pair<NodeId, int>{100, 6},
                      std::pair<NodeId, int>{200, 8}));

TEST(BipartiteRegular, EvenGirthAtLeastFour) {
  Rng rng(83);
  const auto inst = make_random_bipartite_regular(128, 3, rng);
  const int g = girth(inst.graph);
  EXPECT_GE(g, 4);
  EXPECT_EQ(g % 2, 0);  // bipartite graphs have even girth
}

TEST(BipartiteRegular, ShortCyclesAreRare) {
  // Substitution check (DESIGN.md): in a random Δ-regular bipartite graph
  // the expected number of 4-cycles is Θ(1) independent of n, so the local
  // girth around almost every vertex is >= 6 (and grows with n). Sample
  // vertices and check the overwhelming majority see no 4-cycle.
  Rng rng(89);
  const auto inst = make_random_bipartite_regular(1024, 3, rng);
  int long_girth = 0;
  const int samples = 64;
  for (int s = 0; s < samples; ++s) {
    const auto v = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(inst.graph.num_nodes())));
    if (shortest_cycle_through(inst.graph, v) >= 6) ++long_girth;
  }
  EXPECT_GE(long_girth, samples * 8 / 10);
}

TEST(Moebius, ThreeRegular) {
  const Graph g = make_moebius_ladder(8);
  EXPECT_EQ(g.num_nodes(), 16);
  EXPECT_TRUE(g.is_regular(3));
  EXPECT_TRUE(connected_components(g).count == 1);
}

TEST(ProperEdgeColoring, DetectsViolations) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(is_proper_edge_coloring(g, {0, 1}, 2));
  EXPECT_FALSE(is_proper_edge_coloring(g, {0, 0}, 2));   // meet at node 1
  EXPECT_FALSE(is_proper_edge_coloring(g, {0, 2}, 2));   // out of range
  EXPECT_FALSE(is_proper_edge_coloring(g, {0}, 2));      // wrong size
}

// ---------------------------------------------------------------------------
// The CSR-direct construction: degenerate and high-degree shapes, thread
// count invariance and argument validation.

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "adjacency differs at node " << v;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.endpoints(e), b.endpoints(e)) << "edge " << e;
  }
}

class StreamedBipartite
    : public ::testing::TestWithParam<std::pair<NodeId, int>> {};

TEST_P(StreamedBipartite, RegularBipartiteProperlyColored) {
  const auto [side, d] = GetParam();
  Rng rng(mix_seed(97, static_cast<std::uint64_t>(side),
                   static_cast<std::uint64_t>(d)));
  expect_regular_bipartite(make_random_bipartite_regular(side, d, rng), side,
                           d);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, StreamedBipartite,
    ::testing::Values(std::pair<NodeId, int>{2, 2},
                      std::pair<NodeId, int>{8, 3},
                      std::pair<NodeId, int>{33, 3},
                      std::pair<NodeId, int>{64, 4},
                      std::pair<NodeId, int>{100, 6},
                      std::pair<NodeId, int>{64, 16}));

TEST(StreamedBipartite, ThreadCountInvariant) {
  const auto base = [] {
    Rng rng(0xBEE);
    return make_random_bipartite_regular(64, 5, rng, 1);
  }();
  for (const int threads : {2, 8}) {
    Rng rng(0xBEE);
    const auto inst = make_random_bipartite_regular(64, 5, rng, threads);
    expect_same_graph(inst.graph, base.graph);
    EXPECT_EQ(inst.edge_color, base.edge_color) << "threads=" << threads;
  }
}

TEST(StreamedBipartite, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_THROW(make_random_bipartite_regular(0, 2, rng), CheckFailure);
  EXPECT_THROW(make_random_bipartite_regular(8, 0, rng), CheckFailure);
  EXPECT_THROW(make_random_bipartite_regular(8, 9, rng),
               CheckFailure);  // d > side forces a multi-edge
}

// ---------------------------------------------------------------------------
// Output pins. instance_digest witnesses everything a caller can observe of
// a generated instance: per-node adjacency and incident edge ids, edge
// endpoints, edge colors, and the next draw of the generator's Rng (callers
// such as bench_sinkless keep drawing from the same stream). The constants
// were captured from the retired hash-set builder and the CSR-direct
// generator, which agreed on every shape (and at side 2^19, d=3 for the
// perfbench gseeds) before the builder was retired.

std::uint64_t instance_digest(const EdgeColoredGraph& inst, Rng& rng) {
  const Graph& g = inst.graph;
  std::vector<std::uint64_t> words;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const NodeId u : g.neighbors(v)) {
      words.push_back(static_cast<std::uint64_t>(u));
    }
    for (const EdgeId e : g.incident_edges(v)) {
      words.push_back(static_cast<std::uint64_t>(e));
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    words.push_back(static_cast<std::uint64_t>(u));
    words.push_back(static_cast<std::uint64_t>(v));
  }
  for (const int c : inst.edge_color) {
    words.push_back(static_cast<std::uint64_t>(c));
  }
  words.push_back(static_cast<std::uint64_t>(inst.num_colors));
  words.push_back(rng());
  return testing::bytes_digest(words);
}

struct BipartitePin {
  NodeId side;
  int d;
  std::uint64_t gseed;
  std::uint64_t digest;
};

TEST(BipartiteRegular, OutputDigestPins) {
  const BipartitePin kPins[] = {
      {2, 2, 1, 0x6b3a852f610b7dafULL},
      {2, 2, 2, 0xbb55b8a908727f87ULL},
      {8, 3, 1, 0xfcc61b69dc311718ULL},
      {8, 3, 2, 0x12a7d913159480baULL},
      {33, 3, 1, 0x70d3f1cee11c13f4ULL},
      {33, 3, 2, 0x1e2372df03db9652ULL},
      {33, 3, 3, 0x4bde9c1eb90490a6ULL},
      {64, 4, 1, 0xc50a61b4bfb0207aULL},
      {64, 4, 2, 0xd70307b1441b2c4cULL},
      {100, 6, 1, 0x3a3e1c736bf33a34ULL},
      {100, 6, 2, 0x5288917d1dc187c6ULL},
      {64, 16, 1, 0x26ca776ae424fb25ULL},
      {64, 16, 2, 0x06f5991661047710ULL},
      {1000, 16, 1, 0x458977e5405e78a9ULL},
      {1000, 16, 2, 0x0fec25365f1cef9cULL},
      {1000, 3, 11, 0xbea5a1f57c7afd1cULL},
  };
  for (const BipartitePin& p : kPins) {
    Rng rng(mix_seed(p.gseed));
    const auto inst = make_random_bipartite_regular(p.side, p.d, rng);
    EXPECT_EQ(instance_digest(inst, rng), p.digest)
        << "side=" << p.side << " d=" << p.d << " gseed=" << p.gseed;
  }
}

TEST(FromRegularCsr, RejectsMalformedInput) {
  // A valid hand-built 1-regular instance on 2 nodes: one edge {0,1}.
  const auto ok = Graph::from_regular_csr(2, 1, {1, 0}, {0, 0}, {{0, 1}});
  EXPECT_EQ(ok.num_edges(), 1);
  EXPECT_TRUE(ok.is_regular(1));
  // Self-loop.
  EXPECT_THROW(Graph::from_regular_csr(2, 1, {0, 1}, {0, 0}, {{0, 1}}),
               CheckFailure);
  // Endpoint record disagrees with the adjacency.
  EXPECT_THROW(Graph::from_regular_csr(2, 1, {1, 0}, {0, 0}, {{0, 0}}),
               CheckFailure);
  // An edge id borrowed by an unrelated slot (edge 0 claimed by node 2).
  EXPECT_THROW(
      Graph::from_regular_csr(4, 1, {1, 0, 3, 2}, {0, 0, 0, 1}, {{0, 1}, {2, 3}}),
      CheckFailure);
}

}  // namespace
}  // namespace ckp

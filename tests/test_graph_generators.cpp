#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include "graph/components.hpp"
#include "util/check.hpp"

namespace ckp {
namespace {

TEST(Path, Structure) {
  const Graph g = make_path(5);
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(2), 2);
  EXPECT_EQ(g.degree(4), 1);
  const Graph single = make_path(1);
  EXPECT_EQ(single.num_edges(), 0);
}

TEST(Cycle, Structure) {
  const Graph g = make_cycle(7);
  EXPECT_EQ(g.num_edges(), 7);
  EXPECT_TRUE(g.is_regular(2));
  EXPECT_THROW(make_cycle(2), CheckFailure);
}

TEST(Star, Structure) {
  const Graph g = make_star(9);
  EXPECT_EQ(g.degree(0), 8);
  for (NodeId v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 1);
}

TEST(Complete, Structure) {
  const Graph g = make_complete(6);
  EXPECT_EQ(g.num_edges(), 15);
  EXPECT_TRUE(g.is_regular(5));
}

TEST(CompleteBipartite, Structure) {
  const Graph g = make_complete_bipartite(3, 4);
  EXPECT_EQ(g.num_nodes(), 7);
  EXPECT_EQ(g.num_edges(), 12);
  EXPECT_EQ(g.degree(0), 4);
  EXPECT_EQ(g.degree(3), 3);
  EXPECT_FALSE(g.has_edge(0, 1));  // same side
}

TEST(Grid, Structure) {
  const Graph g = make_grid(3, 4);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 2 * 4);
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_EQ(g.degree(0), 2);  // corner
}

TEST(Hypercube, Structure) {
  for (int d = 0; d <= 6; ++d) {
    const Graph g = make_hypercube(d);
    EXPECT_EQ(g.num_nodes(), 1 << d);
    EXPECT_TRUE(g.is_regular(d)) << d;
    EXPECT_EQ(g.num_edges(), d * (1 << d) / 2);
  }
}

TEST(ErdosRenyi, EdgeCountConcentrates) {
  Rng rng(31);
  const Graph g = make_er(200, 0.1, rng);
  const double expected = 0.1 * 200 * 199 / 2;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, expected * 0.25);
  const Graph empty = make_er(50, 0.0, rng);
  EXPECT_EQ(empty.num_edges(), 0);
  const Graph full = make_er(10, 1.0, rng);
  EXPECT_EQ(full.num_edges(), 45);
}

class GeneratorDeterminism
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorDeterminism, SameSeedSameGraph) {
  Rng a(GetParam());
  Rng b(GetParam());
  const Graph ga = make_er(60, 0.12, a);
  const Graph gb = make_er(60, 0.12, b);
  ASSERT_EQ(ga.num_edges(), gb.num_edges());
  for (EdgeId e = 0; e < ga.num_edges(); ++e) {
    EXPECT_EQ(ga.endpoints(e), gb.endpoints(e));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorDeterminism,
                         ::testing::Values(1u, 2u, 3u, 99u, 12345u));

}  // namespace
}  // namespace ckp

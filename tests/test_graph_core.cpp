
#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/line_graph.hpp"
#include "graph/subgraph.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace ckp {
namespace {

TEST(Graph, EmptyAndDefault) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.max_degree(), 0);
  const Graph h = Graph::from_edges(3, {});
  EXPECT_EQ(h.num_nodes(), 3);
  EXPECT_EQ(h.degree(1), 0);
}

TEST(Graph, TriangleBasics) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.max_degree(), 2);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_TRUE(g.is_regular(2));
  EXPECT_FALSE(g.is_regular(3));
}

TEST(Graph, NeighborsSortedAndAligned) {
  const Graph g = Graph::from_edges(5, {{3, 1}, {3, 0}, {3, 4}, {3, 2}});
  const auto nbrs = g.neighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  const auto edges = g.incident_edges(3);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    EXPECT_EQ(g.other_endpoint(edges[i], 3), nbrs[i]);
  }
}

TEST(Graph, EndpointsNormalized) {
  const Graph g = Graph::from_edges(4, {{3, 1}});
  const auto [a, b] = g.endpoints(0);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 3);
}

TEST(Graph, EdgeBetween) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.edge_between(1, 2), g.edge_between(2, 1));
  EXPECT_NE(g.edge_between(0, 1), kInvalidEdge);
  EXPECT_EQ(g.edge_between(0, 3), kInvalidEdge);
  EXPECT_EQ(g.edge_between(2, 2), kInvalidEdge);
}

TEST(Graph, RejectsBadInput) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 0}}), CheckFailure);
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), CheckFailure);
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}), CheckFailure);
}

TEST(Graph, OtherEndpointChecksMembership) {
  const Graph g = Graph::from_edges(3, {{0, 1}});
  EXPECT_EQ(g.other_endpoint(0, 0), 1);
  EXPECT_THROW(g.other_endpoint(0, 2), CheckFailure);
}

TEST(Builder, DeduplicatesAndCounts) {
  GraphBuilder b(4);
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(1, 0));
  EXPECT_TRUE(b.add_edge(2, 3));
  EXPECT_EQ(b.num_edges(), 2u);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Builder, RejectsSelfLoop) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1), CheckFailure);
}

TEST(Subgraph, InducedKeepsInternalEdges) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  std::vector<char> keep{1, 1, 1, 0, 0};
  const auto sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.num_nodes(), 3);
  EXPECT_EQ(sub.graph.num_edges(), 2);  // 0-1 and 1-2
  EXPECT_EQ(sub.from_original[3], kInvalidNode);
  EXPECT_EQ(sub.to_original[static_cast<std::size_t>(sub.from_original[1])], 1);
}

TEST(Subgraph, EmptySelection) {
  const Graph g = Graph::from_edges(3, {{0, 1}});
  const auto sub = induced_subgraph(g, {0, 0, 0});
  EXPECT_EQ(sub.graph.num_nodes(), 0);
}

TEST(LineGraph, PathAndStar) {
  // Line graph of P4 (3 edges) is P3.
  const Graph p4 = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph lp = line_graph(p4);
  EXPECT_EQ(lp.num_nodes(), 3);
  EXPECT_EQ(lp.num_edges(), 2);
  // Line graph of a star K_{1,4} is K4.
  const Graph star = Graph::from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const Graph ls = line_graph(star);
  EXPECT_EQ(ls.num_nodes(), 4);
  EXPECT_EQ(ls.num_edges(), 6);
}

TEST(LineGraph, DegreeBound) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    if (g.num_edges() == 0) continue;
    const Graph lg = line_graph(g);
    EXPECT_EQ(lg.num_nodes(), g.num_edges()) << name;
    EXPECT_LE(lg.max_degree(), 2 * (g.max_degree() - 1)) << name;
  }
}

}  // namespace
}  // namespace ckp

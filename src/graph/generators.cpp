#include "graph/generators.hpp"

#include <vector>

#include "graph/builder.hpp"
#include "util/check.hpp"

namespace ckp {

Graph make_path(NodeId n) {
  CKP_CHECK(n >= 1);
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph make_cycle(NodeId n) {
  CKP_CHECK(n >= 3);
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

Graph make_star(NodeId n) {
  CKP_CHECK(n >= 1);
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) b.add_edge(0, v);
  return b.build();
}

Graph make_complete(NodeId n) {
  CKP_CHECK(n >= 1);
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  return b.build();
}

Graph make_complete_bipartite(NodeId a, NodeId b_count) {
  CKP_CHECK(a >= 1 && b_count >= 1);
  GraphBuilder b(a + b_count);
  for (NodeId u = 0; u < a; ++u) {
    for (NodeId v = 0; v < b_count; ++v) b.add_edge(u, a + v);
  }
  return b.build();
}

Graph make_grid(NodeId rows, NodeId cols) {
  CKP_CHECK(rows >= 1 && cols >= 1);
  GraphBuilder b(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return b.build();
}

Graph make_hypercube(int d) {
  CKP_CHECK(d >= 0 && d <= 20);
  const NodeId n = static_cast<NodeId>(1) << d;
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    for (int bit = 0; bit < d; ++bit) {
      const NodeId u = v ^ (static_cast<NodeId>(1) << bit);
      if (v < u) b.add_edge(v, u);
    }
  }
  return b.build();
}

Graph make_er(NodeId n, double p, Rng& rng) {
  CKP_CHECK(n >= 0);
  CKP_CHECK(p >= 0.0 && p <= 1.0);
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.next_bernoulli(p)) b.add_edge(u, v);
    }
  }
  return b.build();
}

Graph make_margulis(NodeId m) {
  CKP_CHECK(m >= 2);
  const NodeId n = m * m;
  GraphBuilder b(n);
  auto id = [m](NodeId x, NodeId y) {
    return ((x % m) + m) % m * m + ((y % m) + m) % m;
  };
  for (NodeId x = 0; x < m; ++x) {
    for (NodeId y = 0; y < m; ++y) {
      const NodeId v = id(x, y);
      for (const NodeId u : {id(x + y, y), id(x - y, y), id(x + y + 1, y),
                             id(x - y - 1, y), id(x, y + x), id(x, y - x),
                             id(x, y + x + 1), id(x, y - x - 1)}) {
        if (u != v) b.add_edge(std::min(u, v), std::max(u, v));
      }
    }
  }
  return b.build();
}

}  // namespace ckp

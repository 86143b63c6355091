#include "graph/builder.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ckp {

GraphBuilder::GraphBuilder(NodeId n) : n_(n) { CKP_CHECK(n >= 0); }

std::uint64_t GraphBuilder::key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

bool GraphBuilder::add_edge(NodeId u, NodeId v) {
  CKP_CHECK_MSG(u >= 0 && u < n_ && v >= 0 && v < n_,
                "endpoint out of range: {" << u << "," << v << "}");
  CKP_CHECK_MSG(u != v, "self-loop at node " << u);
  if (!seen_.insert(key(u, v)).second) return false;
  edges_.emplace_back(std::min(u, v), std::max(u, v));
  return true;
}

Graph GraphBuilder::build() const { return Graph::from_edges(n_, edges_); }

}  // namespace ckp

// Oracle for weak components: repeated BFS over the symmetrized graph, an
// implementation that shares nothing with the library's union-find kernels.
// Labels come out in the canonical smallest-member order, so they compare
// bitwise with algo::WeaklyConnectedComponents.
#pragma once

#include <cstdint>
#include <deque>

#include "algorithms/connected_components.h"
#include "common/result.h"
#include "graph/csr_graph.h"

namespace ubigraph::oracle {

/// Fails with InvalidArgument on a directed graph without the in-edge index.
inline Result<algo::ComponentResult> ConnectedComponentsBfs(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  UG_RETURN_NOT_OK(g.RequireInEdges("ConnectedComponentsBfs"));
  algo::ComponentResult out;
  out.label.assign(n, UINT32_MAX);
  uint32_t next = 0;
  std::deque<VertexId> queue;
  for (VertexId root = 0; root < n; ++root) {
    if (out.label[root] != UINT32_MAX) continue;
    uint32_t comp = next++;
    out.label[root] = comp;
    queue.push_back(root);
    while (!queue.empty()) {
      VertexId u = queue.front();
      queue.pop_front();
      auto relax = [&](VertexId v) {
        if (out.label[v] == UINT32_MAX) {
          out.label[v] = comp;
          queue.push_back(v);
        }
      };
      for (VertexId v : g.OutNeighbors(u)) relax(v);
      if (g.directed()) {
        for (VertexId v : g.InNeighbors(u)) relax(v);
      }
    }
  }
  out.num_components = next;
  return out;
}

}  // namespace ubigraph::oracle

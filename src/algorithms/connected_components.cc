#include "algorithms/connected_components.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/parallel.h"
#include "graph/compressed_csr.h"
#include "graph/frontier.h"
#include "graph/graph_traits.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ubigraph::algo {

UnionFind::UnionFind(size_t n) : parent_(n), rank_(n, 0), num_sets_(n) {
  std::iota(parent_.begin(), parent_.end(), 0u);
}

size_t UnionFind::Find(size_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::Union(size_t a, size_t b) {
  size_t ra = Find(a), rb = Find(b);
  if (ra == rb) return false;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  --num_sets_;
  return true;
}

std::vector<uint64_t> ComponentResult::ComponentSizes() const {
  std::vector<uint64_t> sizes(num_components, 0);
  for (uint32_t l : label) ++sizes[l];
  return sizes;
}

uint32_t ComponentResult::LargestComponent() const {
  std::vector<uint64_t> sizes = ComponentSizes();
  return static_cast<uint32_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
}

namespace {

/// Renumbers arbitrary representative ids to dense labels ordered by first
/// appearance (i.e. by smallest member vertex).
ComponentResult Relabel(const std::vector<uint32_t>& rep, VertexId n) {
  ComponentResult out;
  out.label.assign(n, 0);
  std::vector<uint32_t> dense(n, UINT32_MAX);
  uint32_t next = 0;
  for (VertexId v = 0; v < n; ++v) {
    uint32_t r = rep[v];
    if (dense[r] == UINT32_MAX) dense[r] = next++;
    out.label[v] = dense[r];
  }
  out.num_components = next;
  return out;
}

template <NeighborRangeGraph G>
ComponentResult WeaklyConnectedComponentsImpl(const G& g) {
  const VertexId n = g.num_vertices();
  UnionFind uf(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.OutNeighbors(u)) uf.Union(u, v);
  }
  std::vector<uint32_t> rep(n);
  for (VertexId v = 0; v < n; ++v) rep[v] = static_cast<uint32_t>(uf.Find(v));
  return Relabel(rep, n);
}

}  // namespace

ComponentResult WeaklyConnectedComponents(const CsrGraph& g) {
  return WeaklyConnectedComponentsImpl(g);
}

ComponentResult WeaklyConnectedComponents(const CompressedCsrGraph& g) {
  return WeaklyConnectedComponentsImpl(g);
}

Result<ComponentResult> ConnectedComponentsBfs(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  UG_RETURN_NOT_OK(g.RequireInEdges("ConnectedComponentsBfs"));
  ComponentResult out;
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

namespace {

template <NeighborRangeGraph G>
Result<ComponentResult> ConnectedComponentsLabelPropImpl(
    const G& g, ComponentsOptions options) {
  obs::ScopedTrace span("ConnectedComponentsLabelProp");
  const VertexId n = g.num_vertices();
  UG_RETURN_NOT_OK(g.RequireInEdges("ConnectedComponentsLabelProp"));
  std::vector<uint32_t> cur(n), next(n);
  std::iota(cur.begin(), cur.end(), 0u);
  uint64_t rounds = 0;
  // Machine-independent work: vertices evaluated per round (the full-sweep
  // variant touches all n every round, the frontier variant only the active
  // set). Deterministic at any thread count, so BENCH.json can report it as
  // a rate-normalizing work counter.
  uint64_t activations = 0;

  const unsigned threads = ResolveNumThreads(options.num_threads);
  const bool parallel = threads > 1;
  auto any = [](bool a, bool b) { return a || b; };

  if (!options.use_frontier) {
    // One Jacobi round over [b, e): reads only `cur`, writes only next[b..e),
    // so concurrent chunks never conflict. Returns whether any label changed.
    auto round = [&](uint64_t b, uint64_t e) {
      bool changed = false;
      for (uint64_t i = b; i < e; ++i) {
        VertexId v = static_cast<VertexId>(i);
        uint32_t best = cur[v];
        best = std::min(best, cur[best]);  // pointer jumping
        for (VertexId u : g.OutNeighbors(v)) best = std::min(best, cur[u]);
        if (g.directed()) {
          for (VertexId u : g.InNeighbors(v)) best = std::min(best, cur[u]);
        }
        next[v] = best;
        changed |= best != cur[v];
      }
      return changed;
    };
    for (;;) {
      ++rounds;
      activations += n;
      bool changed =
          parallel ? ParallelReduce(threads, 0, n, false, round, any) : round(0, n);
      cur.swap(next);
      if (!changed) break;
    }
  } else {
    // Frontier variant: a vertex is re-evaluated only while some neighbor's
    // label is still moving; everyone else carries cur[v] forward for O(1).
    // A label can only drop when a neighbor's label dropped last round, so
    // the fixpoint is the same min-label-per-component as the full sweep.
    // (Pointer jumping is dropped: cur[v] is not a graph neighbor, so a
    // jumped-to representative could never re-activate v.)
    Frontier active(n), changed(n), next_active(n);
    active.SetAll();
    // The sweep only flags vertices whose label dropped (O(1) per vertex);
    // their neighbors are activated after the round, and while most of the
    // graph is still moving the activation scatter is skipped entirely
    // (everyone stays active), keeping early rounds at full-sweep cost.
    auto round = [&](uint64_t b, uint64_t e) {
      bool any_changed = false;
      for (uint64_t i = b; i < e; ++i) {
        VertexId v = static_cast<VertexId>(i);
        if (!active.Test(v)) {
          next[v] = cur[v];
          continue;
        }
        uint32_t best = cur[v];
        for (VertexId u : g.OutNeighbors(v)) best = std::min(best, cur[u]);
        if (g.directed()) {
          for (VertexId u : g.InNeighbors(v)) best = std::min(best, cur[u]);
        }
        next[v] = best;
        if (best != cur[v]) {
          any_changed = true;
          if (parallel) {
            changed.AtomicTestAndSet(v);
          } else {
            changed.Set(v);
          }
        }
      }
      return any_changed;
    };
    for (;;) {
      ++rounds;
      activations += active.size();
      changed.ClearDense();
      bool any_changed =
          parallel ? ParallelReduce(threads, 0, n, false, round, any) : round(0, n);
      cur.swap(next);
      if (!any_changed) break;
      changed.RecountDense();
      if (changed.size() > n / 8) {
        active.SetAll();
      } else {
        changed.ToSparse();
        next_active.ClearDense();
        uint64_t marked = 0;
        auto wake = [&](VertexId u) {
          marked += next_active.AtomicTestAndSet(u) ? 1 : 0;
        };
        for (VertexId v : changed.Vertices()) {
          for (VertexId u : g.OutNeighbors(v)) wake(u);
          if (g.directed()) {
            for (VertexId u : g.InNeighbors(v)) wake(u);
          }
        }
        next_active.SetCount(marked);
        std::swap(active, next_active);
      }
    }
  }
  ComponentResult result = Relabel(cur, n);
  obs::AddCounter("cc.labelprop.runs", 1);
  obs::AddCounter(options.use_frontier ? "cc.labelprop.frontier_runs"
                                       : "cc.labelprop.full_sweep_runs",
                  1);
  obs::AddCounter("cc.labelprop.rounds", static_cast<int64_t>(rounds));
  obs::AddCounter("cc.labelprop.vertices_activated",
                  static_cast<int64_t>(activations));
  obs::AddCounter("cc.labelprop.components", result.num_components);
  return result;
}

}  // namespace

Result<ComponentResult> ConnectedComponentsLabelProp(const CsrGraph& g,
                                                     ComponentsOptions options) {
  return ConnectedComponentsLabelPropImpl(g, options);
}

Result<ComponentResult> ConnectedComponentsLabelProp(const CompressedCsrGraph& g,
                                                     ComponentsOptions options) {
  return ConnectedComponentsLabelPropImpl(g, options);
}

ComponentResult StronglyConnectedComponents(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  constexpr uint32_t kUnset = UINT32_MAX;
  std::vector<uint32_t> index(n, kUnset);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<VertexId> scc_stack;
  std::vector<uint32_t> rep(n, kUnset);
  uint32_t next_index = 0;
  uint32_t next_comp = 0;

  // Explicit DFS stack frames: (vertex, next neighbor offset).
  std::vector<std::pair<VertexId, uint64_t>> frames;
  for (VertexId start = 0; start < n; ++start) {
    if (index[start] != kUnset) continue;
    frames.emplace_back(start, 0);
    index[start] = lowlink[start] = next_index++;
    scc_stack.push_back(start);
    on_stack[start] = true;
    while (!frames.empty()) {
      auto& [u, i] = frames.back();
      auto nbrs = g.OutNeighbors(u);
      if (i < nbrs.size()) {
        VertexId v = nbrs[i++];
        if (index[v] == kUnset) {
          index[v] = lowlink[v] = next_index++;
          scc_stack.push_back(v);
          on_stack[v] = true;
          frames.emplace_back(v, 0);
        } else if (on_stack[v]) {
          lowlink[u] = std::min(lowlink[u], index[v]);
        }
      } else {
        VertexId u_done = u;
        frames.pop_back();
        if (!frames.empty()) {
          VertexId parent = frames.back().first;
          lowlink[parent] = std::min(lowlink[parent], lowlink[u_done]);
        }
        if (lowlink[u_done] == index[u_done]) {
          // u_done is an SCC root: pop its component.
          uint32_t comp = next_comp++;
          while (true) {
            VertexId w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = false;
            rep[w] = comp;
            if (w == u_done) break;
          }
        }
      }
    }
  }

  ComponentResult out;
  out.label = std::move(rep);
  out.num_components = next_comp;
  return out;
}

std::vector<VertexId> SingletonVertices(const CsrGraph& g) {
  ComponentResult cc = WeaklyConnectedComponents(g);
  std::vector<uint64_t> sizes = cc.ComponentSizes();
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (sizes[cc.label[v]] == 1) out.push_back(v);
  }
  return out;
}

}  // namespace ubigraph::algo

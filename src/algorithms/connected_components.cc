#include "algorithms/connected_components.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <unordered_map>

#include "common/parallel.h"
#include "common/random.h"
#include "graph/compressed_csr.h"
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

ComponentResult UnionFind::Components() {
  std::vector<uint32_t> root(size());
  for (size_t v = 0; v < root.size(); ++v) root[v] = static_cast<uint32_t>(Find(v));
  return CanonicalComponents(root);
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

ComponentResult CanonicalComponents(std::span<const uint32_t> raw) {
  // First appearance in ascending vertex order: a component's smallest
  // vertex is the first of its members scanned.
  ComponentResult out;
  out.label.resize(raw.size());
  const auto top = std::max_element(raw.begin(), raw.end());
  std::vector<uint32_t> dense(top == raw.end() ? 0 : *top + size_t{1}, UINT32_MAX);
  uint32_t next = 0;  // a local: stores to label[] could alias a member
  for (size_t v = 0; v < raw.size(); ++v) {
    // d = fresh ? next : d as a mask: whether a label is new is data-dependent, and
    // the branch compilers emit even for a ternary here ran 3x slower on RMAT-20.
    uint32_t& d = dense[raw[v]];
    const uint32_t fresh = d == UINT32_MAX;
    d ^= (d ^ next) & (0u - fresh);
    next += fresh;
    out.label[v] = d;
  }
  out.num_components = next;
  return out;
}

namespace {

template <NeighborRangeGraph G>
ComponentResult WeaklyConnectedComponentsImpl(const G& g) {
  const VertexId n = g.num_vertices();
  UnionFind uf(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.OutNeighbors(u)) uf.Union(u, v);
  }
  return uf.Components();
}

}  // namespace

ComponentResult WeaklyConnectedComponents(const CsrGraph& g) {
  return WeaklyConnectedComponentsImpl(g);
}

ComponentResult WeaklyConnectedComponents(const CompressedCsrGraph& g) {
  return WeaklyConnectedComponentsImpl(g);
}

// Every parent is at most its child (hooks and path splits only ever point a vertex
// at a smaller ancestor), so trees never cycle and each root is its tree's minimum.
// The forest carries no other data, so relaxed order is enough: each step needs only
// the atomicity of the one slot it touches.
ConcurrentUnionFind::ConcurrentUnionFind(VertexId n) : parent_(n) {
  std::iota(parent_.begin(), parent_.end(), 0u);
}

VertexId ConcurrentUnionFind::Find(VertexId x) {
  for (;;) {
    const VertexId p = Slot(x).load(std::memory_order_relaxed);
    const VertexId gp = Slot(p).load(std::memory_order_relaxed);
    if (p == gp) return p;
    // p was not a root, so neither is x: the store never unhooks a root, and
    // if it overwrites a racing split's pointer, gp is still an ancestor.
    Slot(x).store(gp, std::memory_order_relaxed);
    x = p;
  }
}

void ConcurrentUnionFind::Link(VertexId u, VertexId v) {
  for (;;) {
    u = Find(u);
    v = Find(v);
    if (u == v) return;
    if (u < v) std::swap(u, v);
    // Fails only if another thread hooked u first; then retry from the roots.
    uint32_t root = u;
    if (Slot(u).compare_exchange_strong(root, v, std::memory_order_relaxed)) return;
  }
}

void ConcurrentUnionFind::Compress(unsigned workers) {
  // A read-only walk, unlike Find: a split racing this pass could overwrite
  // a vertex's finished root pointer with a stale ancestor.
  ParallelForChunks(workers, 0, parent_.size(), [&](uint64_t b, uint64_t e) {
    for (uint64_t v = b; v < e; ++v) {
      uint32_t r = static_cast<uint32_t>(v), p;
      while ((p = Slot(r).load(std::memory_order_relaxed)) != r) r = p;
      Slot(v).store(r, std::memory_order_relaxed);
    }
  });
}

namespace {

/// Out-neighbours each vertex links in Afforest's first pass.
constexpr uint64_t kFirstNeighbors = 2;

/// The most frequent root among a fixed-seed sample of vertices of a
/// compressed forest (the first to reach the top count wins a tie): the
/// giant component's root.
VertexId SampleGiantRoot(std::span<const uint32_t> root) {
  Rng rng(0x5eed);
  std::unordered_map<uint32_t, uint32_t> count;
  VertexId giant = 0;
  uint32_t best = 0;
  for (int i = 0; i < 1024; ++i) {
    const uint32_t r = root[rng.NextBounded(root.size())];
    if (++count[r] > best) {
      best = count[r];
      giant = r;
    }
  }
  return giant;
}

template <NeighborRangeGraph G>
Result<ComponentResult> ConnectedComponentsLabelPropImpl(
    const G& g, ComponentsOptions options) {
  obs::ScopedTrace span("ConnectedComponentsLabelProp");
  UG_RETURN_NOT_OK(g.RequireInEdges("ConnectedComponentsLabelProp"));
  const VertexId n = g.num_vertices();
  if (n == 0) return ComponentResult{};
  const unsigned workers =
      g.num_edges() < kSerialPassArcs ? 1 : ResolveNumThreads(options.num_threads);
  ConcurrentUnionFind uf(n);
  // Links, for every vertex u that `visit(u)` admits, its out-arcs at positions
  // [first, last) and, with `in_arcs`, all its in-arcs. Returns the arcs linked.
  auto link_pass = [&](auto visit, uint64_t first, uint64_t last, bool in_arcs) {
    auto map = [&](uint64_t b, uint64_t e) {
      uint64_t arcs = 0;
      for (uint64_t u = b; u < e; ++u) {
        if (!visit(u)) continue;
        uint64_t i = 0;
        for (VertexId v : g.OutNeighbors(u)) {
          if (i == last) break;
          if (i++ < first) continue;
          uf.Link(u, v);
          ++arcs;
        }
        if (!in_arcs) continue;
        for (VertexId v : g.InNeighbors(u)) {
          uf.Link(u, v);
          ++arcs;
        }
      }
      return arcs;
    };
    return ParallelReduce(workers, 0, n, uint64_t{0}, map, std::plus<>());
  };

  uint64_t linked = link_pass([](uint64_t) { return true; }, 0, kFirstNeighbors, false);
  uf.Compress(workers);
  // The giant component is snapshotted before the finish pass: its links move roots,
  // and a live test would make the skipped set (and cc.arcs_linked) depend on the
  // interleaving.
  const std::span<const uint32_t> root = uf.parents();
  const VertexId giant = SampleGiantRoot(root);
  std::vector<uint8_t> outside(n);
  ParallelForChunks(workers, 0, n, [&](uint64_t b, uint64_t e) {
    for (uint64_t v = b; v < e; ++v) outside[v] = root[v] != giant;
  });
  // Undirected in-arcs alias the out-arcs.
  linked += link_pass([&](uint64_t u) { return outside[u] != 0; },
                      kFirstNeighbors, UINT64_MAX, g.directed());
  uf.Compress(workers);
  obs::AddCounter("cc.arcs_linked", static_cast<int64_t>(linked));
  return CanonicalComponents(uf.parents());
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

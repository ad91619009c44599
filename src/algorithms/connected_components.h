// Connected components — the survey's most-used graph computation (Table 9,
// 55/89 participants). Weak components via a serial union-find (the oracle) or a
// concurrent one (the parallel kernel); strong components via iterative Tarjan.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"

namespace ubigraph {
class CompressedCsrGraph;
}

namespace ubigraph::algo {

/// Component labeling: label[v] in [0, num_components), labels assigned in
/// order of the smallest vertex in each component.
struct ComponentResult {
  std::vector<uint32_t> label;
  uint32_t num_components = 0;

  /// Size of each component.
  std::vector<uint64_t> ComponentSizes() const;
  /// Index of the largest component.
  uint32_t LargestComponent() const;
};

/// Renumbers raw component labels (any representative per component, e.g. a
/// union-find root) to the canonical dense form: labels assigned in order of
/// each component's smallest vertex. Two labelings of one partition compare
/// equal after this.
ComponentResult CanonicalComponents(std::span<const uint32_t> raw);

/// Disjoint-set forest with union by rank and path halving.
class UnionFind {
 public:
  explicit UnionFind(size_t n);

  size_t Find(size_t x);
  /// Returns true if the two sets were merged (false if already joined).
  bool Union(size_t a, size_t b);
  size_t num_sets() const { return num_sets_; }
  size_t size() const { return parent_.size(); }
  /// The sets as canonical component labels (see CanonicalComponents).
  ComponentResult Components();

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint8_t> rank_;
  size_t num_sets_;
};

/// Weakly connected components (edge direction ignored) via union-find.
/// Works on directed or undirected CSR without needing the in-edge index.
/// The CompressedCsrGraph overload shares the implementation through the
/// NeighborRangeGraph seam and yields identical labels.
ComponentResult WeaklyConnectedComponents(const CsrGraph& g);
ComponentResult WeaklyConnectedComponents(const CompressedCsrGraph& g);

/// Disjoint-set forest that any number of threads may Link into at once. Link only
/// ever hooks the larger of two roots under the smaller, so every root is the smallest
/// vertex of its tree: once the links are done, Compress points every vertex at its
/// component's smallest vertex however the threads interleaved.
class ConcurrentUnionFind {
 public:
  /// n singleton sets.
  explicit ConcurrentUnionFind(VertexId n);

  /// Joins the sets of u and v. Safe to call concurrently with other Links.
  void Link(VertexId u, VertexId v);
  /// Points every vertex straight at its root. No Link may run meanwhile.
  void Compress(unsigned workers);
  /// Parent per vertex; after Compress, its component's smallest vertex.
  /// Read only while no Link runs.
  std::span<const uint32_t> parents() const { return parent_; }

 private:
  /// Root of x's tree, re-pointing each vertex on the way at its grandparent
  /// (path splitting).
  VertexId Find(VertexId x);
  std::atomic_ref<uint32_t> Slot(VertexId v) { return std::atomic_ref(parent_[v]); }

  /// Accessed through Slot while threads link.
  std::vector<uint32_t> parent_;
};

/// Graphs with fewer arcs than this run the parallel components kernels
/// (ConnectedComponentsLabelProp, shard::ShardedComponents) on the calling
/// thread: below it a fork costs more than the links it spreads.
inline constexpr uint64_t kSerialLinkArcs = uint64_t{1} << 17;

struct ComponentsOptions {
  /// 0 = hardware_concurrency, 1 = exact serial path (default), >= 2 = that
  /// many workers. Labels are identical at every setting.
  uint32_t num_threads = 1;
};

/// Weak components by the concurrent union-find, driven as Afforest (Sutton, Ben-Nun
/// and Barak, IPDPS 2018): link every vertex to its first two out-neighbours, sample
/// the giant component, then link the other arcs of every vertex outside it — on a
/// directed graph its in-arcs too, so an arc out of a skipped giant vertex is still
/// linked. Labels match WeaklyConnectedComponents exactly, and cc.arcs_linked (arcs
/// handed to Link) is the same at every thread count. No labels propagate; the name
/// is kept for callers.
/// Fails with InvalidArgument on a directed graph without the in-edge index.
Result<ComponentResult> ConnectedComponentsLabelProp(
    const CsrGraph& g, ComponentsOptions options = {});
Result<ComponentResult> ConnectedComponentsLabelProp(
    const CompressedCsrGraph& g, ComponentsOptions options = {});

/// Strongly connected components (Tarjan, iterative). Labels are assigned in
/// reverse topological order of the condensation (standard Tarjan order).
ComponentResult StronglyConnectedComponents(const CsrGraph& g);

/// Vertices in components of size 1 — the survey's "remove singleton
/// vertices" cleaning step (§4.1).
std::vector<VertexId> SingletonVertices(const CsrGraph& g);

}  // namespace ubigraph::algo

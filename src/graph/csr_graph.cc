#include "graph/csr_graph.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "common/parallel.h"
#include "obs/metrics.h"

namespace ubigraph {

namespace {

/// Inclusive prefix sum over `a`, block-parallel on more than one worker:
/// per-block partial sums, a serial scan of the block totals, then a
/// parallel add-back of each block's base. Integer sums are
/// order-independent, so the result matches the serial scan exactly.
void InclusiveScan(std::vector<uint64_t>& a, unsigned workers) {
  const uint64_t n = a.size();
  if (workers <= 1 || n < (1u << 14)) {
    std::partial_sum(a.begin(), a.end(), a.begin());
    return;
  }
  const uint64_t per = (n + workers - 1) / workers;
  std::vector<uint64_t> base(workers + 1, 0);
  ForkJoin(workers, [&](unsigned b) {
    const uint64_t lo = std::min<uint64_t>(b * per, n);
    const uint64_t hi = std::min<uint64_t>(lo + per, n);
    uint64_t sum = 0;
    for (uint64_t i = lo; i < hi; ++i) {
      sum += a[i];
      a[i] = sum;
    }
    base[b + 1] = sum;
  });
  std::partial_sum(base.begin(), base.end(), base.begin());
  ForkJoin(workers, [&](unsigned b) {
    const uint64_t add = base[b];
    if (add == 0) return;  // block 0, or an all-zero prefix
    const uint64_t lo = std::min<uint64_t>(b * per, n);
    const uint64_t hi = std::min<uint64_t>(lo + per, n);
    for (uint64_t i = lo; i < hi; ++i) a[i] += add;
  });
}

/// Stable scatter behind BuildIndex: chunk c, a contiguous slice of the
/// edge list, counts its arcs per vertex into row c of a chunks x V block,
/// the rows sum to the offsets and become per-chunk cursors, and each chunk
/// scatters into its own slots without atomics. Every adjacency range thus
/// holds its arcs in edge-list order at any chunk count, an undirected
/// edge's reverse arc right after its forward twin. Cursors are absolute arc
/// positions, so `Cursor` must hold the arc count.
template <typename Cursor>
void ScatterArcs(std::span<const Edge> es, VertexId n, bool sym, bool reverse,
                 unsigned workers, std::vector<uint64_t>& offsets,
                 std::vector<VertexId>& targets, std::vector<double>* weights) {
  const size_t m = es.size();
  auto key = [reverse](const Edge& e) { return reverse ? e.dst : e.src; };
  auto val = [reverse](const Edge& e) { return reverse ? e.src : e.dst; };

  // The outputs are allocated before the cursor block so that the
  // short-lived block sits above them in the heap; a block below them
  // leaves a hole that grew the steady-state heap by ~5 MB on the road
  // lattice. An undirected edge adds a reverse arc unless it is a loop.
  const uint64_t total =
      sym ? 2 * m - std::count_if(es.begin(), es.end(),
                                  [](const Edge& e) { return e.src == e.dst; })
          : m;
  offsets.assign(static_cast<size_t>(n) + 1, 0);
  targets.resize(total);
  if (weights != nullptr) weights->resize(total);

  const unsigned chunks = std::max(workers, 1u);
  const uint64_t per = (m + chunks - 1) / chunks;
  // One block, allocated here rather than per worker: worker-allocated rows
  // would land in (and stay in) the workers' malloc arenas.
  auto block = std::make_unique_for_overwrite<Cursor[]>(uint64_t{chunks} * n);
  auto row = [&](unsigned c) { return block.get() + uint64_t{c} * n; };
  ForkJoin(chunks, [&](unsigned c) {
    Cursor* count = row(c);
    std::fill_n(count, n, 0);
    const uint64_t lo = std::min<uint64_t>(c * per, m);
    const uint64_t hi = std::min<uint64_t>(lo + per, m);
    for (uint64_t i = lo; i < hi; ++i) {
      ++count[key(es[i])];
      if (sym && es[i].src != es[i].dst) ++count[es[i].dst];
    }
  });
  ParallelFor(workers, 0, n, [&](uint64_t v) {
    uint64_t degree = 0;
    for (unsigned c = 0; c < chunks; ++c) degree += row(c)[v];
    offsets[v + 1] = degree;
  });
  InclusiveScan(offsets, workers);
  assert(offsets[n] == total);
  // Turn counts into absolute cursors: chunk c starts where chunk c-1's
  // share of each vertex's range ends.
  ParallelFor(workers, 0, n, [&](uint64_t v) {
    uint64_t run = offsets[v];
    for (unsigned c = 0; c < chunks; ++c) {
      const uint64_t cnt = row(c)[v];
      row(c)[v] = static_cast<Cursor>(run);
      run += cnt;
    }
  });

  auto place = [&](uint64_t pos, VertexId t, double w) {
    targets[pos] = t;
    if (weights != nullptr) (*weights)[pos] = w;
  };
  ForkJoin(chunks, [&](unsigned c) {
    Cursor* cursor = row(c);
    const uint64_t lo = std::min<uint64_t>(c * per, m);
    const uint64_t hi = std::min<uint64_t>(lo + per, m);
    for (uint64_t i = lo; i < hi; ++i) {
      const Edge& ed = es[i];
      place(cursor[key(ed)]++, val(ed), ed.weight);
      if (sym && ed.src != ed.dst) place(cursor[ed.dst]++, ed.src, ed.weight);
    }
  });
}

/// Shared CSR index builder. Scatters `es` into (offsets, targets[, weights])
/// keyed on src (or dst when `reverse`); `sym` additionally scatters the
/// reverse arc of every non-loop edge, which is how undirected graphs are
/// built without materializing a doubled edge list first. The arrays are
/// bitwise-identical at any `workers`.
void BuildIndex(std::span<const Edge> es, VertexId n, bool sym, bool reverse,
                bool sort_lists, unsigned workers,
                std::vector<uint64_t>& offsets, std::vector<VertexId>& targets,
                std::vector<double>* weights) {
  assert(!(sym && reverse) && "undirected graphs alias the out index");
  // 32-bit cursors halve the chunks x V block for every graph under 2^32
  // arcs; on the road lattice that block is the build's largest transient.
  if ((sym ? 2 : 1) * uint64_t{es.size()} <= UINT32_MAX) {
    ScatterArcs<uint32_t>(es, n, sym, reverse, workers, offsets, targets, weights);
  } else {
    ScatterArcs<uint64_t>(es, n, sym, reverse, workers, offsets, targets, weights);
  }
  const uint64_t total = offsets[n];

  if (!sort_lists) return;

  // Per-vertex neighbor sort. Without a weight array (unit weights), or when
  // every weight is identical, the target ranges sort directly; otherwise
  // (dst, weight) pairs sort through a per-worker scratch buffer reused
  // across vertices instead of a fresh allocation per vertex.
  bool uniform_weights = true;
  if (weights != nullptr && total > 0) {
    const double w0 = (*weights)[0];
    for (uint64_t i = 1; i < total && uniform_weights; ++i) {
      uniform_weights = (*weights)[i] == w0;
    }
  }
  auto sort_range = [&](VertexId v,
                        std::vector<std::pair<VertexId, double>>& scratch) {
    const uint64_t lo = offsets[v], hi = offsets[v + 1];
    if (hi - lo < 2) return;
    if (weights == nullptr || uniform_weights) {
      std::sort(targets.begin() + static_cast<ptrdiff_t>(lo),
                targets.begin() + static_cast<ptrdiff_t>(hi));
      return;
    }
    scratch.clear();
    for (uint64_t i = lo; i < hi; ++i) {
      scratch.emplace_back(targets[i], (*weights)[i]);
    }
    std::sort(scratch.begin(), scratch.end());
    for (uint64_t i = lo; i < hi; ++i) {
      targets[i] = scratch[i - lo].first;
      (*weights)[i] = scratch[i - lo].second;
    }
  };
  // Dynamic chunks load-balance the skewed per-vertex sort cost.
  ParallelForChunks(
      workers, 0, n,
      [&](uint64_t b, uint64_t e) {
        std::vector<std::pair<VertexId, double>> scratch;
        for (uint64_t v = b; v < e; ++v) {
          sort_range(static_cast<VertexId>(v), scratch);
        }
      },
      Schedule::kDynamic);
}

}  // namespace

Result<CsrGraph> CsrGraph::FromEdges(EdgeList edges, CsrOptions options) {
  bool unit_weights = false;
  UG_RETURN_NOT_OK(edges.Validate(&unit_weights));
  if (options.remove_self_loops) edges.RemoveSelfLoops();
  if (options.deduplicate) edges.Deduplicate();

  CsrGraph g;
  g.num_vertices_ = edges.num_vertices();
  g.directed_ = options.directed;
  g.sorted_ = options.sort_neighbors;

  unsigned threads = ResolveNumThreads(options.num_threads);
  // More chunks pay off only on inputs large enough to amortize the fork and
  // the chunks x V cursor block, and never on a single-core host;
  // min_parallel_edges == 0 opts out of the cutoff (tests/benches that must
  // exercise multi-chunk builds on small inputs).
  if (threads > 1 && options.min_parallel_edges != 0 &&
      (std::thread::hardware_concurrency() < 2 ||
       edges.edges().size() < options.min_parallel_edges)) {
    threads = 1;
  }
  obs::AddCounter(
      threads > 1 ? "csr.build.path.parallel" : "csr.build.path.serial", 1);

  // Undirected graphs scatter both arc directions straight from the
  // half-edge list instead of materializing a doubled copy first. Unit
  // weights are not scattered: OutWeights reads them from one row of ones.
  const std::span<const Edge> es(edges.edges());
  BuildIndex(es, g.num_vertices_, /*sym=*/!options.directed, /*reverse=*/false,
             options.sort_neighbors, threads, g.offsets_, g.dst_,
             unit_weights ? nullptr : &g.weights_);
  if (unit_weights) g.unit_row_.assign(g.MaxOutDegree(), 1.0);
  if (options.directed && options.build_in_edges) {
    BuildIndex(es, g.num_vertices_, /*sym=*/false, /*reverse=*/true,
               options.sort_neighbors, threads, g.in_offsets_, g.in_src_,
               /*weights=*/nullptr);
  }
  return g;
}

Result<CsrGraph> CsrGraph::FromPairs(
    VertexId num_vertices, const std::vector<std::pair<VertexId, VertexId>>& pairs,
    CsrOptions options) {
  // Build the edge vector directly and move it into the list (one reserve,
  // no per-edge vertex-count bookkeeping) before handing it off by move.
  std::vector<Edge> edges;
  edges.reserve(pairs.size());
  VertexId hi = num_vertices;
  for (const auto& [s, d] : pairs) {
    edges.push_back(Edge{s, d, 1.0});
    hi = std::max({hi, static_cast<VertexId>(s + 1), static_cast<VertexId>(d + 1)});
  }
  return FromEdges(EdgeList(hi, std::move(edges)), options);
}

uint64_t CsrGraph::InDegree(VertexId v) const {
  if (!directed_) return OutDegree(v);
  assert(!in_offsets_.empty() && "build_in_edges was not requested");
  return in_offsets_[v + 1] - in_offsets_[v];
}

std::span<const VertexId> CsrGraph::InNeighbors(VertexId v) const {
  if (!directed_) return OutNeighbors(v);
  assert(!in_offsets_.empty() && "build_in_edges was not requested");
  return {in_src_.data() + in_offsets_[v], in_src_.data() + in_offsets_[v + 1]};
}

Status CsrGraph::RequireInEdges(std::string_view caller) const {
  if (!directed_ || !in_offsets_.empty()) return Status::OK();
  return Status::Invalid(
      std::string(caller) +
      " requires the in-edge index on directed graphs; rebuild the CsrGraph "
      "with CsrOptions::build_in_edges = true, or force a push-only mode");
}

bool CsrGraph::HasEdge(VertexId src, VertexId dst) const {
  auto nbrs = OutNeighbors(src);
  if (sorted_) return std::binary_search(nbrs.begin(), nbrs.end(), dst);
  return std::find(nbrs.begin(), nbrs.end(), dst) != nbrs.end();
}

uint64_t CsrGraph::MaxOutDegree() const {
  uint64_t best = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) best = std::max(best, OutDegree(v));
  return best;
}

double CsrGraph::OutWeightSum(VertexId v) const {
  double sum = 0.0;
  for (double w : OutWeights(v)) sum += w;
  return sum;
}

Result<PermutedCsr> CsrGraph::Permute(std::span<const VertexId> perm,
                                      PermuteOptions options) const {
  const VertexId n = num_vertices_;
  if (perm.size() != n) {
    return Status::Invalid("Permute: permutation size does not match num_vertices");
  }
  // Build the inverse while checking bijectivity in one pass.
  std::vector<VertexId> new_to_old(n);
  std::vector<uint8_t> seen(n, 0);
  for (VertexId ov = 0; ov < n; ++ov) {
    const VertexId nv = perm[ov];
    if (nv >= n || seen[nv]) {
      return Status::Invalid("Permute: permutation is not a bijection on [0, num_vertices)");
    }
    seen[nv] = 1;
    new_to_old[nv] = ov;
  }

  const unsigned threads = ResolveNumThreads(options.num_threads);

  PermutedCsr out;
  CsrGraph& g = out.graph;
  g.num_vertices_ = n;
  g.directed_ = directed_;
  g.sorted_ = options.sort_neighbors;

  // Relabels one CSR index: new vertex nv inherits old vertex
  // new_to_old[nv]'s adjacency with every target rewritten through perm. The
  // per-vertex copy preserves relative neighbor order (the bitwise-
  // reproducibility contract in the header) unless a re-sort was requested.
  auto relabel_index = [&](const std::vector<uint64_t>& src_off,
                           const std::vector<VertexId>& src_tgt,
                           const std::vector<double>* src_w,
                           std::vector<uint64_t>& off,
                           std::vector<VertexId>& tgt, std::vector<double>* w) {
    off.assign(static_cast<size_t>(n) + 1, 0);
    for (VertexId nv = 0; nv < n; ++nv) {
      const VertexId ov = new_to_old[nv];
      off[nv + 1] = src_off[ov + 1] - src_off[ov];
    }
    InclusiveScan(off, threads);
    tgt.resize(src_tgt.size());
    if (w != nullptr) w->resize(src_w->size());
    auto copy_rows = [&](uint64_t b, uint64_t e) {
      std::vector<std::pair<VertexId, double>> scratch;
      for (uint64_t nv = b; nv < e; ++nv) {
        const VertexId ov = new_to_old[nv];
        const uint64_t lo = off[nv];
        uint64_t dpos = lo;
        for (uint64_t i = src_off[ov]; i < src_off[ov + 1]; ++i, ++dpos) {
          tgt[dpos] = perm[src_tgt[i]];
          if (w != nullptr) (*w)[dpos] = (*src_w)[i];
        }
        if (!options.sort_neighbors || dpos - lo < 2) continue;
        if (w == nullptr) {
          std::sort(tgt.begin() + static_cast<ptrdiff_t>(lo),
                    tgt.begin() + static_cast<ptrdiff_t>(dpos));
          continue;
        }
        scratch.clear();
        for (uint64_t i = lo; i < dpos; ++i) scratch.emplace_back(tgt[i], (*w)[i]);
        std::sort(scratch.begin(), scratch.end());
        for (uint64_t i = lo; i < dpos; ++i) {
          tgt[i] = scratch[i - lo].first;
          (*w)[i] = scratch[i - lo].second;
        }
      }
    };
    // Dynamic chunks load-balance the skewed per-vertex copy cost.
    ParallelForChunks(threads, 0, n, copy_rows, Schedule::kDynamic);
  };

  const bool unit_weights = weights_.empty();
  relabel_index(offsets_, dst_, unit_weights ? nullptr : &weights_, g.offsets_,
                g.dst_, unit_weights ? nullptr : &g.weights_);
  g.unit_row_ = unit_row_;
  if (directed_ && !in_offsets_.empty()) {
    relabel_index(in_offsets_, in_src_, /*src_w=*/nullptr, g.in_offsets_,
                  g.in_src_, /*w=*/nullptr);
  }
  out.new_to_old = std::move(new_to_old);
  return out;
}

EdgeList CsrGraph::ToEdgeList() const {
  EdgeList out(num_vertices_);
  out.Reserve(dst_.size());
  for (VertexId v = 0; v < num_vertices_; ++v) {
    for (uint64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      out.Add(v, dst_[i], weights_.empty() ? 1.0 : weights_[i]);
    }
  }
  out.EnsureVertices(num_vertices_);
  return out;
}

}  // namespace ubigraph

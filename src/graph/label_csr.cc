#include "graph/label_csr.h"

#include <algorithm>

#include "obs/metrics.h"

namespace ubigraph {

double LabelCsrView::Stats::LabelCount(uint32_t label_id) const {
  if (label_id == LabelCsrView::kAnyLabel) {
    return static_cast<double>(num_vertices);
  }
  if (label_id >= label_counts.size()) return 0.0;
  return static_cast<double>(label_counts[label_id]);
}

double LabelCsrView::Stats::AvgDegree(uint32_t label_id, uint32_t type_id,
                                      bool out) const {
  const double denom = LabelCount(label_id);
  if (denom <= 0.0) return 0.0;
  uint64_t arcs = 0;
  if (type_id == LabelCsrView::kAnyType) {
    if (label_id == LabelCsrView::kAnyLabel) {
      arcs = total_arcs;
    } else {
      const auto& by_label = out ? out_arcs_by_label : in_arcs_by_label;
      arcs = label_id < by_label.size() ? by_label[label_id] : 0;
    }
  } else {
    const auto& by_type = out ? out_arcs_by_type_label : in_arcs_by_type_label;
    if (type_id >= by_type.size()) return 0.0;
    if (label_id == LabelCsrView::kAnyLabel) {
      arcs = type_id < arcs_by_type.size() ? arcs_by_type[type_id] : 0;
    } else {
      arcs = label_id < by_type[type_id].size() ? by_type[type_id][label_id] : 0;
    }
  }
  return static_cast<double>(arcs) / denom;
}

void LabelCsrView::Absorb(Adjacency* adj, VertexId n,
                          std::span<const Arc> fresh) {
  // Counting-sort the fresh arcs by source, then sort each fresh row. The
  // offsets are shifted one slot so the scatter leaves fresh_offsets[v] at
  // the start of row v.
  std::vector<uint64_t> fresh_offsets(size_t{n} + 2, 0);
  for (const auto& [src, dst] : fresh) ++fresh_offsets[size_t{src} + 2];
  for (size_t i = 2; i < fresh_offsets.size(); ++i) {
    fresh_offsets[i] += fresh_offsets[i - 1];
  }
  std::vector<VertexId> fresh_targets(fresh.size());
  for (const auto& [src, dst] : fresh) {
    fresh_targets[fresh_offsets[size_t{src} + 1]++] = dst;
  }
  for (VertexId v = 0; v < n; ++v) {
    if (fresh_offsets[v + 1] - fresh_offsets[v] > 1) {
      std::sort(fresh_targets.begin() + fresh_offsets[v],
                fresh_targets.begin() + fresh_offsets[v + 1]);
    }
  }

  // Merge each fresh row into the old sorted row, dropping repeats. Rows past
  // the old vertex count (or of a type seen for the first time) start empty.
  const VertexId old_n =
      adj->out_offsets.empty() ? 0 : static_cast<VertexId>(adj->out_offsets.size() - 1);
  std::vector<uint64_t> out_offsets(size_t{n} + 1);
  std::vector<VertexId> out_targets(adj->out_targets.size() + fresh.size());
  VertexId* const base = out_targets.data();
  VertexId* w = base;
  for (VertexId v = 0; v < n; ++v) {
    out_offsets[v] = w - base;
    const VertexId* a = adj->out_targets.data();
    const VertexId* a_end = a;
    if (v < old_n) {
      a += adj->out_offsets[v];
      a_end += adj->out_offsets[v + 1];
    }
    const VertexId* b = fresh_targets.data() + fresh_offsets[v];
    const VertexId* b_end = fresh_targets.data() + fresh_offsets[v + 1];
    if (b == b_end) {
      w = std::copy(a, a_end, w);
      continue;
    }
    VertexId* const row = w;
    while (a != a_end || b != b_end) {
      const VertexId x = (b == b_end || (a != a_end && *a <= *b)) ? *a++ : *b++;
      if (w == row || w[-1] != x) *w++ = x;
    }
  }
  out_offsets[n] = w - base;
  out_targets.resize(out_offsets[n]);

  // Rebuild the in rows by scattering the merged rows in source order, so
  // each in row comes out sorted and distinct.
  std::vector<uint64_t> in_offsets(size_t{n} + 2, 0);
  for (const VertexId dst : out_targets) ++in_offsets[size_t{dst} + 2];
  for (size_t i = 2; i < in_offsets.size(); ++i) in_offsets[i] += in_offsets[i - 1];
  std::vector<VertexId> in_sources(out_targets.size());
  for (VertexId v = 0; v < n; ++v) {
    for (uint64_t i = out_offsets[v]; i < out_offsets[v + 1]; ++i) {
      in_sources[in_offsets[size_t{out_targets[i]} + 1]++] = v;
    }
  }
  in_offsets.pop_back();

  adj->out_offsets = std::move(out_offsets);
  adj->out_targets = std::move(out_targets);
  adj->in_offsets = std::move(in_offsets);
  adj->in_sources = std::move(in_sources);
}

LabelCsrView LabelCsrView::Build(const PropertyGraph& graph) {
  LabelCsrView view;
  view.CatchUp(graph);
  return view;
}

void LabelCsrView::CatchUp(const PropertyGraph& graph) {
  const VertexId n = graph.num_vertices();
  const uint64_t m = graph.num_edges();
  const size_t dict = graph.labels().size();
  const bool first = all_.out_offsets.empty();
  built_version_ = graph.version();
  if (!first && n == num_vertices_ && m == num_edges_) return;  // properties only

  by_label_.resize(dict);
  for (VertexId v = num_vertices_; v < n; ++v) {
    by_label_[graph.VertexLabelId(v)].push_back(v);
  }

  // Counting-sort the new edges by type: type t's new arcs are
  // arcs[type_start[t], type_start[t + 1]).
  std::vector<uint64_t> type_start(dict + 1, 0);
  for (EdgeId e = num_edges_; e < m; ++e) ++type_start[graph.EdgeTypeId(e) + 1];
  for (size_t t = 0; t < dict; ++t) type_start[t + 1] += type_start[t];
  std::vector<Arc> arcs(m - num_edges_);
  {
    std::vector<uint64_t> cursor(type_start.begin(), type_start.end() - 1);
    for (EdgeId e = num_edges_; e < m; ++e) {
      arcs[cursor[graph.EdgeTypeId(e)]++] = {graph.EdgeSrc(e), graph.EdgeDst(e)};
    }
  }

  // Types that gained arcs merge them; the others only grow their offsets
  // over the new vertices, whose rows are empty.
  const auto grow = [n](Adjacency* adj) {
    adj->out_offsets.resize(size_t{n} + 1, uint64_t{adj->out_offsets.back()});
    adj->in_offsets.resize(size_t{n} + 1, uint64_t{adj->in_offsets.back()});
  };
  by_type_.resize(dict);
  for (size_t t = 0; t < dict; ++t) {
    const std::span<const Arc> fresh(arcs.data() + type_start[t],
                                     arcs.data() + type_start[t + 1]);
    Adjacency& adj = by_type_[t];
    if (!fresh.empty()) {
      Absorb(&adj, n, fresh);
    } else if (!adj.out_offsets.empty()) {
      grow(&adj);
    }
  }
  if (!arcs.empty() || first) {
    Absorb(&all_, n, arcs);
  } else {
    grow(&all_);
  }

  obs::AddCounter("query.view.arcs_merged", static_cast<int64_t>(arcs.size()));
  num_vertices_ = n;
  num_edges_ = m;
  RefreshStats();
}

void LabelCsrView::RefreshStats() {
  // Read the dedup'd row lengths straight off the rows, grouped by the
  // label lists, so the estimates match the expand operators' actual work.
  const size_t dict = by_label_.size();
  const auto sum_by_label = [&](const std::vector<uint64_t>& offsets,
                                std::vector<uint64_t>* by_label) {
    for (size_t l = 0; l < dict; ++l) {
      for (const VertexId v : by_label_[l]) {
        (*by_label)[l] += offsets[v + 1] - offsets[v];
      }
    }
  };
  Stats& st = stats_;
  st.num_vertices = num_vertices_;
  st.label_counts.assign(dict, 0);
  for (size_t l = 0; l < dict; ++l) st.label_counts[l] = by_label_[l].size();
  st.out_arcs_by_type_label.assign(dict, std::vector<uint64_t>(dict, 0));
  st.in_arcs_by_type_label.assign(dict, std::vector<uint64_t>(dict, 0));
  st.arcs_by_type.assign(dict, 0);
  for (size_t t = 0; t < dict; ++t) {
    const Adjacency& adj = by_type_[t];
    if (adj.out_offsets.empty()) continue;
    sum_by_label(adj.out_offsets, &st.out_arcs_by_type_label[t]);
    sum_by_label(adj.in_offsets, &st.in_arcs_by_type_label[t]);
    st.arcs_by_type[t] = adj.out_targets.size();
  }
  st.out_arcs_by_label.assign(dict, 0);
  st.in_arcs_by_label.assign(dict, 0);
  sum_by_label(all_.out_offsets, &st.out_arcs_by_label);
  sum_by_label(all_.in_offsets, &st.in_arcs_by_label);
  st.total_arcs = all_.out_targets.size();
}

const LabelCsrView::Adjacency* LabelCsrView::AdjacencyFor(uint32_t type_id) const {
  if (type_id == kAnyType) return &all_;
  if (type_id >= by_type_.size()) return nullptr;
  const Adjacency& adj = by_type_[type_id];
  return adj.out_offsets.empty() ? nullptr : &adj;
}

std::span<const VertexId> LabelCsrView::OutNeighbors(VertexId v,
                                                     uint32_t type_id) const {
  const Adjacency* adj = AdjacencyFor(type_id);
  if (adj == nullptr || v >= num_vertices_) return {};
  return {adj->out_targets.data() + adj->out_offsets[v],
          adj->out_targets.data() + adj->out_offsets[v + 1]};
}

std::span<const VertexId> LabelCsrView::InNeighbors(VertexId v,
                                                    uint32_t type_id) const {
  const Adjacency* adj = AdjacencyFor(type_id);
  if (adj == nullptr || v >= num_vertices_) return {};
  return {adj->in_sources.data() + adj->in_offsets[v],
          adj->in_sources.data() + adj->in_offsets[v + 1]};
}

bool LabelCsrView::HasArc(VertexId from, VertexId to, uint32_t type_id) const {
  const auto nbrs = OutNeighbors(from, type_id);
  return std::binary_search(nbrs.begin(), nbrs.end(), to);
}

const std::vector<VertexId>& LabelCsrView::VerticesWithLabel(
    uint32_t label_id) const {
  if (label_id >= by_label_.size()) return no_vertices_;
  return by_label_[label_id];
}

}  // namespace ubigraph

#include "stream/incremental.h"

#include <string>

#include "algorithms/connected_components.h"
#include "obs/metrics.h"

namespace ubigraph::stream {

void FlushIncrementalWork(std::string_view kernel, const IncrementalWork& work) {
  if (!obs::Enabled()) return;
  const std::string prefix = "stream.incremental." + std::string(kernel);
  obs::AddCounter(prefix + ".batches", 1);
  obs::AddCounter(prefix + ".vertices_reactivated",
                  static_cast<int64_t>(work.vertices_reactivated));
  obs::AddCounter(prefix + ".edges_rerelaxed",
                  static_cast<int64_t>(work.edges_rerelaxed));
  obs::AddCounter(prefix + ".rebuilds", static_cast<int64_t>(work.rebuilds));
}

std::vector<uint32_t> CanonicalComponentLabels(std::span<const uint32_t> labels) {
  return algo::CanonicalComponents(labels).label;
}

Status ValidateDeltaEndpoints(std::span<const GraphDelta> deltas,
                              VertexId num_vertices) {
  for (size_t i = 0; i < deltas.size(); ++i) {
    const GraphDelta& d = deltas[i];
    if (d.src >= num_vertices || d.dst >= num_vertices) {
      return Status::OutOfRange(
          "delta " + std::to_string(i) + " endpoint (" + std::to_string(d.src) +
          ", " + std::to_string(d.dst) + ") outside universe of " +
          std::to_string(num_vertices) + " vertices");
    }
  }
  return Status::OK();
}

}  // namespace ubigraph::stream

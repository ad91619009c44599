// Storage-format serialization/parsing (Table 17 formats). Binary should
// dominate the text formats — the shape the survey's scalability complaints
// about "inefficient loading" predict.
#include <benchmark/benchmark.h>

#include <string>

#include "common/random.h"
#include "gen/generators.h"
#include "io/binary_io.h"
#include "io/csv_io.h"
#include "io/edge_list_io.h"
#include "io/gml_io.h"
#include "io/graphml_io.h"
#include "io/json_io.h"
#include "io/mmio.h"
#include "perf_common.h"
#include "perf_obs.h"

namespace ubigraph {
namespace {

EdgeList BenchEdges() {
  Rng rng(11);
  return gen::ErdosRenyi(1 << 12, 8 << 12, &rng).ValueOrDie();
}

void BM_WriteEdgeListText(benchmark::State& state) {
  EdgeList el = BenchEdges();
  for (auto _ : state) benchmark::DoNotOptimize(io::WriteEdgeListText(el));
}
BENCHMARK(BM_WriteEdgeListText);

// Args = {scale, edges per vertex}: RMAT text, whose skewed ids and line
// lengths match the ingest_rmat end-to-end workload (scale 17 there). A
// parse is one pass over the text, so work_items is the input byte count.
template <typename WriteFn, typename ParseFn>
void RmatTextParseBench(benchmark::State& state, const char* format, WriteFn write,
                        ParseFn parse) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  Rng rng(scale * 7919ULL + 5);
  const std::string text = write(
      gen::Rmat(scale, static_cast<uint64_t>(state.range(1)) << scale, &rng)
          .ValueOrDie());
  for (auto _ : state) benchmark::DoNotOptimize(parse(text));
  state.SetBytesProcessed(state.iterations() * text.size());
  bench::SetWorkItems(state, static_cast<double>(text.size()));
  state.SetLabel(std::string("kernel=parse mode=") + format + " graph=rmat" +
                 std::to_string(scale));
}

void BM_ParseEdgeListText(benchmark::State& state) {
  RmatTextParseBench(state, "edge_list", io::WriteEdgeListText,
                     io::ParseEdgeListText);
}
void BM_ParseMatrixMarket(benchmark::State& state) {
  RmatTextParseBench(
      state, "mmio", [](const EdgeList& el) { return io::WriteMatrixMarket(el); },
      io::ParseMatrixMarket);
}
void BM_ParseTsvTriples(benchmark::State& state) {
  RmatTextParseBench(state, "tsv", io::WriteTsvTriples, io::ParseTsvTriples);
}
BENCHMARK(BM_ParseEdgeListText)->Args({12, 8})->Args({17, 8});
BENCHMARK(BM_ParseMatrixMarket)->Args({12, 8});
BENCHMARK(BM_ParseTsvTriples)->Args({12, 8});

void BM_ParseCsv(benchmark::State& state) {
  std::string text = io::WriteCsvEdges(BenchEdges());
  for (auto _ : state) benchmark::DoNotOptimize(io::ParseCsvEdges(text));
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_ParseCsv);

void BM_ParseGraphMl(benchmark::State& state) {
  std::string text = io::WriteGraphMl(BenchEdges());
  for (auto _ : state) benchmark::DoNotOptimize(io::ParseGraphMl(text));
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_ParseGraphMl);

void BM_ParseGml(benchmark::State& state) {
  std::string text = io::WriteGml(BenchEdges());
  for (auto _ : state) benchmark::DoNotOptimize(io::ParseGml(text));
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_ParseGml);

void BM_ParseJson(benchmark::State& state) {
  std::string text = io::WriteJsonGraph(BenchEdges());
  for (auto _ : state) benchmark::DoNotOptimize(io::ParseJsonGraph(text));
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_ParseJson);

void BM_ParseBinary(benchmark::State& state) {
  std::string data = io::WriteBinaryGraph(BenchEdges());
  for (auto _ : state) benchmark::DoNotOptimize(io::ParseBinaryGraph(data));
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_ParseBinary);

void BM_WriteBinary(benchmark::State& state) {
  EdgeList el = BenchEdges();
  for (auto _ : state) benchmark::DoNotOptimize(io::WriteBinaryGraph(el));
}
BENCHMARK(BM_WriteBinary);

}  // namespace
}  // namespace ubigraph

UBIGRAPH_BENCHMARK_MAIN_WITH_OBS();

// Storage-format serialization/parsing (Table 17 formats). Binary should
// dominate the text formats — the shape the survey's scalability complaints
// about "inefficient loading" predict.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "common/parallel.h"
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
template <typename WriteFn>
std::string RmatText(const benchmark::State& state, WriteFn write) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  Rng rng(scale * 7919ULL + 5);
  return write(gen::Rmat(scale, static_cast<uint64_t>(state.range(1)) << scale, &rng)
                   .ValueOrDie());
}

/// Edge-list input of a parse chunk or more parses on the whole team.
unsigned EdgeListParseThreads(size_t bytes) {
  return bytes >= io::kParseChunkBytes ? TeamSize() : 1;
}

template <typename WriteFn, typename ParseFn>
void RmatTextParseBench(benchmark::State& state, const char* format, WriteFn write,
                        ParseFn parse, bool chunked = false) {
  const std::string text = RmatText(state, write);
  for (auto _ : state) benchmark::DoNotOptimize(parse(text));
  state.SetBytesProcessed(state.iterations() * text.size());
  bench::SetWorkItems(state, static_cast<double>(text.size()));
  state.SetLabel(std::string("kernel=parse mode=") + format + " graph=rmat" +
                 std::to_string(state.range(0)));
  state.counters["threads"] = chunked ? EdgeListParseThreads(text.size()) : 1;
}

void BM_ParseEdgeListText(benchmark::State& state) {
  RmatTextParseBench(state, "edge_list", io::WriteEdgeListText,
                     io::ParseEdgeListText, /*chunked=*/true);
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

// The read ingest_rmat makes: an RMAT edge-list file into an EdgeList, the
// file streamed through per-thread windows rather than read whole.
void BM_ReadEdgeListFile(benchmark::State& state) {
  const std::string text = RmatText(state, io::WriteEdgeListText);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ubigraph_perf_io_rmat.el").string();
  io::WriteStringToFile(text, path).Abort();
  for (auto _ : state) benchmark::DoNotOptimize(io::ReadEdgeListFile(path));
  std::filesystem::remove(path);
  state.SetBytesProcessed(state.iterations() * text.size());
  bench::SetWorkItems(state, static_cast<double>(text.size()));
  const unsigned threads = EdgeListParseThreads(text.size());
  state.SetLabel("kernel=read mode=edge_list graph=rmat" +
                 std::to_string(state.range(0)) + " team=" + std::to_string(threads));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_ReadEdgeListFile)->Args({17, 8});

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

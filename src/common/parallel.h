// Shared-memory parallel runtime: the substrate for the "software that can
// process larger graphs" challenge (§6.1, the survey's #1 reported problem).
// One process-wide fork-join team runs every parallel loop: ParallelFor with
// static and dynamic chunked scheduling over vertex/edge ranges, ForkJoin for
// per-worker loops, and a deterministic tree ParallelReduce whose
// floating-point result is bitwise-identical at any thread count (chunk
// boundaries depend only on the grain, and partials are combined in a fixed
// binary-tree order).
//
// Convention used by every kernel option struct in src/algorithms:
//   num_threads == 0  -> std::thread::hardware_concurrency()
//   num_threads == 1  -> the exact serial code path (the default)
//   num_threads >= 2  -> the parallel path, decomposed for that many workers
//
// Every entry point below takes that resolved count as `workers`. It decides
// the decomposition (kStatic blocks, ForkJoin slots) and caps the fork width;
// the team (TeamSize() threads, the caller included) decides only which
// thread runs which piece. So workers = 8 on a 4-core host runs eight slots
// on four threads and returns what eight cores would.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace ubigraph {

/// Resolves a user-facing `num_threads` option: 0 means hardware concurrency
/// (at least 1), anything else is used as-is.
unsigned ResolveNumThreads(unsigned requested);

/// Threads in the process-wide fork-join team: hardware concurrency (at least
/// 1), counting the calling thread, which always takes part in its own fork.
/// The team's hardware_concurrency() - 1 workers start on the first fork
/// that needs them, spin briefly after each job, then park until the next.
unsigned TeamSize();

/// How ParallelFor distributes a range over workers.
enum class Schedule : uint8_t {
  /// One contiguous block per worker, decided up front. Lowest overhead;
  /// best when per-index cost is uniform.
  kStatic,
  /// Grain-sized chunks claimed from an atomic counter. Load-balances
  /// skewed per-index cost (power-law degree distributions).
  kDynamic,
};

/// Default indices per dynamically-scheduled chunk and per reduce chunk.
inline constexpr uint64_t kDefaultGrain = 1024;

/// The per-round cutoff of the round-synchronous traversals (hybrid BFS push
/// rounds, delta-stepping buckets): a round whose frontier has fewer
/// out-arcs than this runs on the caller even on the parallel path. A fork
/// costs more than a few thousand arc visits, and on high-diameter graphs
/// (road networks) every round is that small.
inline constexpr uint64_t kSerialRoundArcs = uint64_t{1} << 14;

namespace internal {

using TaskFn = void (*)(void* ctx, uint64_t task);

/// The one fork-join primitive: runs fn(ctx, t) for every t in [0, tasks),
/// claimed from a shared counter by min(workers, tasks, TeamSize()) threads,
/// and returns when all are done, rethrowing the first exception a task
/// threw (no task starts after it). workers <= 1 is the serial path: a plain
/// loop on the caller. A fork that finds the team busy — a nested call from
/// inside a task, or a second application thread — runs its tasks inline on
/// the caller, in order, with identical results.
void RunTasks(unsigned workers, uint64_t tasks, TaskFn fn, void* ctx);

template <typename Fn>
void RunTasks(unsigned workers, uint64_t tasks, Fn& fn) {
  RunTasks(
      workers, tasks,
      [](void* ctx, uint64_t t) { (*static_cast<Fn*>(ctx))(t); }, &fn);
}

}  // namespace internal

/// Runs fn(slot) once for every slot in [0, max(workers, 1)): the per-worker
/// loop (private accumulators, owned shard blocks). State keyed on the slot
/// keeps results a function of `workers` alone.
template <typename Fn>
void ForkJoin(unsigned workers, Fn fn) {
  auto task = [&fn](uint64_t slot) { fn(static_cast<unsigned>(slot)); };
  internal::RunTasks(workers, std::max(workers, 1u), task);
}

/// Number of grain-sized chunks covering [begin, end).
inline uint64_t NumChunks(uint64_t begin, uint64_t end, uint64_t grain) {
  if (end <= begin || grain == 0) return 0;
  return (end - begin + grain - 1) / grain;
}

/// Runs fn(chunk_begin, chunk_end) over disjoint chunks that exactly cover
/// [begin, end). kStatic cuts one contiguous block per worker; kDynamic cuts
/// grain-sized chunks. Either way no more threads join than there are
/// chunks, so a single-chunk loop runs on the caller alone.
template <typename Fn>
void ParallelForChunks(unsigned workers, uint64_t begin, uint64_t end, Fn fn,
                       Schedule schedule = Schedule::kStatic,
                       uint64_t grain = kDefaultGrain) {
  if (end <= begin) return;
  if (schedule == Schedule::kStatic) {
    const uint64_t n = end - begin;
    const uint64_t blocks = std::min<uint64_t>(std::max(workers, 1u), n);
    const uint64_t per = n / blocks, extra = n % blocks;
    auto task = [&](uint64_t w) {
      const uint64_t b = begin + w * per + std::min(w, extra);
      fn(b, b + per + (w < extra ? 1 : 0));
    };
    internal::RunTasks(workers, blocks, task);
  } else {
    auto task = [&](uint64_t c) {
      const uint64_t b = begin + c * grain;
      fn(b, std::min(b + grain, end));
    };
    internal::RunTasks(workers, NumChunks(begin, end, grain), task);
  }
}

/// Runs fn(i) for every i in [begin, end), scheduled per ParallelForChunks.
template <typename Fn>
void ParallelFor(unsigned workers, uint64_t begin, uint64_t end, Fn fn,
                 Schedule schedule = Schedule::kStatic,
                 uint64_t grain = kDefaultGrain) {
  ParallelForChunks(
      workers, begin, end,
      [&fn](uint64_t b, uint64_t e) {
        for (uint64_t i = b; i < e; ++i) fn(i);
      },
      schedule, grain);
}

/// Deterministic chunked tree reduction. The range is split into grain-sized
/// chunks (independently of the worker count); `map(chunk_begin, chunk_end)`
/// produces each chunk's partial serially, and partials are folded pairwise
/// in a fixed binary tree. Floating-point results are therefore
/// bitwise-identical for any `workers` given the same grain — workers <= 1
/// is the same decomposition run inline, the serial path of kernels whose
/// parallel path is a reduce.
///
/// Partials live in a plain T[] rather than std::vector<T>: the
/// vector<bool> specialization bit-packs neighbors into one word, which
/// turns independent per-chunk writes into a data race (found by TSan).
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(unsigned workers, uint64_t begin, uint64_t end, T identity,
                 MapFn map, CombineFn combine, uint64_t grain = kDefaultGrain) {
  const uint64_t chunks = NumChunks(begin, end, grain);
  if (chunks == 0) return identity;
  auto partials = std::make_unique<T[]>(chunks);
  T* slots = partials.get();
  auto task = [&](uint64_t c) {
    const uint64_t b = begin + c * grain;
    slots[c] = map(b, std::min(b + grain, end));
  };
  internal::RunTasks(workers, chunks, task);
  // Fixed pairwise tree over chunk partials: stride 1 folds (0,1)(2,3)...,
  // stride 2 folds (0,2)(4,6)..., and so on up to the root at slot 0.
  for (uint64_t stride = 1; stride < chunks; stride *= 2) {
    for (uint64_t i = 0; i + stride < chunks; i += 2 * stride) {
      slots[i] = combine(std::move(slots[i]), std::move(slots[i + stride]));
    }
  }
  return std::move(slots[0]);
}

}  // namespace ubigraph

#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "obs/metrics.h"

namespace ubigraph {

unsigned ResolveNumThreads(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned TeamSize() {
  static const unsigned size = ResolveNumThreads(0);
  return size;
}

namespace {

using internal::TaskFn;

/// Polls a waiting thread makes before parking on a futex: ~85 us on a
/// 4-core Xeon, where one `pause` takes ~21 ns. That covers the serial gap
/// between the rounds of a BFS or delta-stepping loop, so back-to-back forks
/// pay no wake-up syscall, while a thread left idle parks within 0.1 ms.
constexpr int kSpinPolls = 1 << 12;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins, then parks, until done(word) holds; returns the satisfying value.
template <typename Done>
uint32_t SpinThenPark(const std::atomic<uint32_t>& word, Done done) {
  uint32_t v;
  for (int i = 0; i < kSpinPolls; ++i) {
    if (done(v = word.load(std::memory_order_acquire))) return v;
    CpuRelax();
  }
  while (!done(v = word.load(std::memory_order_acquire))) {
    word.wait(v, std::memory_order_acquire);
  }
  return v;
}

/// The pool.* counters perfbench reads (global registry; see
/// src/obs/metrics.h). A task is one thread's share of one fork, so
/// tasks_completed counts fork width, and busy_ns — sharded per thread, and
/// team threads live for the whole process — is each thread's time inside
/// its shares, the caller's own included.
struct PoolCounters {
  obs::Counter* submitted;
  obs::Counter* completed;
  obs::Counter* busy_ns;

  static PoolCounters& Get() {
    static PoolCounters c = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return PoolCounters{reg.GetCounter("pool.tasks_submitted"),
                          reg.GetCounter("pool.tasks_completed"),
                          reg.GetCounter("pool.busy_ns")};
    }();
    return c;
  }
};

/// Records one thread's share of a fork on scope exit (thrown or not).
class ShareTimer {
 public:
  ShareTimer() : record_(obs::Enabled()) {
    if (record_) start_ = Clock::now();
  }
  ~ShareTimer() {
    if (!record_) return;
    PoolCounters& c = PoolCounters::Get();
    c.busy_ns->Add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - start_)
                       .count());
    c.completed->Increment();
  }
  ShareTimer(const ShareTimer&) = delete;
  ShareTimer& operator=(const ShareTimer&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  bool record_;
  Clock::time_point start_;
};

void CountSubmitted(unsigned width) {
  if (obs::Enabled()) PoolCounters::Get().submitted->Add(width);
}

/// The process-wide team. Thread 0 is whichever thread forks; workers
/// 1..size-1 each wait on their own epoch word, so a fork of width w wakes
/// exactly w - 1 of them. Created on first use; destroyed with the other
/// statics at exit, which stops and joins the workers.
class Team {
 public:
  static Team& Get() {
    static Team team(TeamSize());
    return team;
  }

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  ~Team() { Stop(); }

  /// Claims the team for one fork. Fails while another fork holds it — a
  /// nested call from one of its tasks, or another application thread — and
  /// that caller then runs inline instead of waiting.
  bool TryAcquire() { return !busy_.exchange(true, std::memory_order_acquire); }

  /// Runs a fork of `width` threads (2 <= width <= size), the caller as
  /// thread 0, then releases the team and rethrows the first task exception.
  void Run(unsigned width, uint64_t tasks, TaskFn fn, void* ctx) {
    fn_ = fn;
    ctx_ = ctx;
    tasks_ = tasks;
    next_.store(0, std::memory_order_relaxed);
    pending_.store(width - 1, std::memory_order_relaxed);
    CountSubmitted(width);
    for (unsigned s = 1; s < width; ++s) Wake(s);
    RunShare();
    // Acquire on the last decrement makes every worker's writes visible.
    SpinThenPark(pending_, [](uint32_t p) { return p == 0; });
    std::exception_ptr error = std::exchange(error_, nullptr);
    failed_.store(false, std::memory_order_relaxed);
    busy_.store(false, std::memory_order_release);
    if (error) std::rethrow_exception(error);
  }

 private:
  struct alignas(64) Epoch {
    std::atomic<uint32_t> value{0};
  };

  explicit Team(unsigned size) : epochs_(new Epoch[size]) {
    try {
      for (unsigned s = 1; s < size; ++s) {
        workers_.emplace_back([this, s] { WorkerLoop(s); });
      }
    } catch (...) {
      Stop();  // a thread failed to start: join the ones that did
      throw;
    }
  }

  void Stop() {
    stopping_.store(true, std::memory_order_relaxed);
    for (unsigned s = 1; s <= workers_.size(); ++s) Wake(s);
    for (std::thread& t : workers_) t.join();
  }

  /// The release bump publishes the job fields (or stopping_) to worker s.
  void Wake(unsigned s) {
    epochs_[s].value.fetch_add(1, std::memory_order_release);
    epochs_[s].value.notify_one();
  }

  void WorkerLoop(unsigned s) {
    uint32_t seen = 0;
    for (;;) {
      seen = SpinThenPark(epochs_[s].value,
                          [seen](uint32_t e) { return e != seen; });
      if (stopping_.load(std::memory_order_relaxed)) return;
      RunShare();
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pending_.notify_one();
      }
    }
  }

  /// Claims and runs tasks until none are left. The first exception wins;
  /// it also drains the counter so no further task starts.
  void RunShare() {
    ShareTimer timer;
    try {
      for (uint64_t t; (t = next_.fetch_add(1, std::memory_order_relaxed)) < tasks_;) {
        fn_(ctx_, t);
      }
    } catch (...) {
      if (!failed_.exchange(true, std::memory_order_relaxed)) {
        error_ = std::current_exception();
      }
      next_.store(tasks_, std::memory_order_relaxed);
    }
  }

  const std::unique_ptr<Epoch[]> epochs_;  // [0] unused: the caller
  // The current job: written by the forking thread, read-only to workers
  // between their epoch bump and their pending_ decrement.
  TaskFn fn_ = nullptr;
  void* ctx_ = nullptr;
  uint64_t tasks_ = 0;
  std::exception_ptr error_;  // written only by the failed_ winner
  alignas(64) std::atomic<uint64_t> next_{0};
  alignas(64) std::atomic<uint32_t> pending_{0};
  std::atomic<bool> failed_{false};
  alignas(64) std::atomic<bool> busy_{false};
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;  // last: they use every member above
};

}  // namespace

namespace internal {

void RunTasks(unsigned workers, uint64_t tasks, TaskFn fn, void* ctx) {
  if (workers > 1 && tasks > 0) {
    const unsigned width = static_cast<unsigned>(
        std::min<uint64_t>({workers, tasks, TeamSize()}));
    if (width > 1) {
      Team& team = Team::Get();
      if (team.TryAcquire()) {
        team.Run(width, tasks, fn, ctx);
        return;
      }
    }
    // Width one, nested, or concurrent: the caller is the whole fork.
    CountSubmitted(1);
    ShareTimer timer;
    for (uint64_t t = 0; t < tasks; ++t) fn(ctx, t);
    return;
  }
  for (uint64_t t = 0; t < tasks; ++t) fn(ctx, t);
}

}  // namespace internal

}  // namespace ubigraph

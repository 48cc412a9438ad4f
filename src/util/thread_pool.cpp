#include "util/thread_pool.hpp"

#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sm::util {
namespace {

/// One parallel_for call: per-worker index deques plus first-error
/// bookkeeping. Lives on the caller's stack; every worker is joined before
/// the call returns.
struct Batch {
  Batch(std::size_t workers, std::size_t n,
        const std::function<void(std::size_t)>& task)
      : queues(workers), locks(workers), fn(task) {
    // Contiguous slices: neighbouring grid tasks usually share a benchmark.
    const std::size_t chunk = (n + workers - 1) / workers;
    for (std::size_t i = 0; i < n; ++i) queues[i / chunk].push_back(i);
  }

  std::vector<std::deque<std::size_t>> queues;
  std::vector<std::mutex> locks;
  const std::function<void(std::size_t)>& fn;

  std::mutex err_mutex;
  std::exception_ptr error;
  std::size_t error_index = 0;

  /// Next index for worker `self`: own front first, then steal from the
  /// back of the nearest non-empty victim.
  bool pop(std::size_t self, std::size_t& out) {
    for (std::size_t k = 0; k < queues.size(); ++k) {
      const std::size_t victim = (self + k) % queues.size();
      std::lock_guard<std::mutex> g(locks[victim]);
      auto& q = queues[victim];
      if (q.empty()) continue;
      if (k == 0) {
        out = q.front();
        q.pop_front();
      } else {
        out = q.back();
        q.pop_back();
      }
      return true;
    }
    return false;
  }

  void drain(std::size_t self) {
    std::size_t i = 0;
    while (pop(self, i)) {
      try {
        fn(i);
      } catch (...) {
        // Keep only the lowest-index failure: a deterministic rethrow.
        std::lock_guard<std::mutex> g(err_mutex);
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
    }
  }
};

}  // namespace

std::size_t resolve_jobs(std::size_t jobs, std::size_t n) {
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  if (n == 0) n = 1;
  return jobs < n ? jobs : n;
}

void parallel_for(std::size_t jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  jobs = resolve_jobs(jobs, n);
  Batch b(jobs, n, fn);
  {
    // jthreads join on scope exit, so a failed spawn cannot leave a running
    // helper behind.
    std::vector<std::jthread> helpers;
    helpers.reserve(jobs - 1);
    for (std::size_t t = 1; t < jobs; ++t)
      helpers.emplace_back([&b, t] { b.drain(t); });
    b.drain(0);
  }
  if (b.error) std::rethrow_exception(b.error);
}

}  // namespace sm::util

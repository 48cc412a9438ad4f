// One-shot work-stealing parallel loop for the embarrassingly parallel
// sweeps (sweep::run and the table benches).
//
// Determinism contract: parallel_for(jobs, n, fn) calls fn(i) exactly once
// for every i in [0, n), with no ordering guarantee *between* indices but a
// hard guarantee that which-thread-ran-what never leaks into results: fn
// receives only the task index, so any task that derives its randomness from
// the index (see util::task_seed) produces bit-identical output for every
// jobs value. Callers keep results in index-addressed storage and reduce in
// index order after the join; nothing else is needed for N-thread == 1-thread
// reproducibility.
//
// Scheduling: each worker owns a deque seeded with a contiguous slice of the
// index range (cheap locality for neighbouring tasks) and pops from its
// front; an idle worker steals from the back of a victim's deque. Our tasks
// are whole place/route/attack pipelines — milliseconds to minutes each —
// so a thread spawn per call and mutex-guarded deques are well below the
// noise floor and keep the implementation obviously correct.
#pragma once

#include <cstddef>
#include <functional>

namespace sm::util {

/// The worker count parallel_for(jobs, n, fn) will actually use: 0 resolves
/// to hardware concurrency, then clamps to [1, max(n, 1)].
std::size_t resolve_jobs(std::size_t jobs, std::size_t n);

/// Run fn(i) for every i in [0, n) over resolve_jobs(jobs, n) threads, the
/// calling thread among them; blocks until all tasks finished. A resolved
/// count of 1 runs every index on the calling thread, in index order. If
/// any task throws, every remaining task still runs, then the exception of
/// the *lowest* failing index is rethrown (deterministic choice).
void parallel_for(std::size_t jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace sm::util

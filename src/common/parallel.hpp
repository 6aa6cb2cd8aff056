// Shared compute thread pool and parallel_for.
//
// The model-fitting pipeline fans out coarse work that is embarrassingly
// parallel and CPU-bound, each task a whole forward selection or more:
// cross-validation folds, the per-pair baseline fits of Figs. 9/10, the
// family prefetch across boards and the mix bench's configurations.  One
// selection itself runs serially.  This pool serves exactly that kind of
// work; it is distinct from the serve request worker pool
// (src/serve/server.hpp), which owns request lifecycles and blocking
// queues.
//
// Determinism contract: parallel_for runs body(i) for every i in [0, n)
// exactly once, with no ordering guarantee.  Callers keep results
// deterministic by writing each iteration's output into a slot owned by that
// iteration (a preallocated array indexed by i) and reducing serially
// afterwards — every user in this codebase follows that pattern, so results
// are bit-identical to the serial loop regardless of thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>

namespace gppm {

/// Worker-thread budget of the shared pool: parse_thread_budget of the
/// GPPM_THREADS environment variable if that is nonzero, else
/// hardware_concurrency, else 1.  A budget of 1 makes every parallel_for
/// run serially in the caller.
std::size_t parallel_threads();

/// The budget a GPPM_THREADS value asks for: its decimal value clamped to
/// at most 256 (a value past size_t included), or 0 when the text is not
/// one or more ASCII digits and nothing else (a sign, a space, a suffix or
/// the empty string) or is zero.
std::size_t parse_thread_budget(std::string_view text);

/// Run body(i) for every i in [0, n), possibly concurrently on the shared
/// pool; the calling thread participates.  Runs serially when n < 2, when
/// the thread budget is 1, or when called from inside a pool worker, so a
/// nested parallel_for (say, inside a parallel cross-validation fold)
/// cannot deadlock the pool.  If any body throws, the first exception is
/// rethrown in the caller after all in-flight iterations finish (remaining
/// iterations are abandoned).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace gppm

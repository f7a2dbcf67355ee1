// parallel_for: the harness's one parallel primitive.
//
// The experiment harness runs thousands of independent (scenario, trial,
// heuristic) simulations; they parallelize embarrassingly. On a single-core
// host the loop degrades gracefully to sequential execution.
#pragma once

#include <cstddef>
#include <functional>

namespace tcgrid::util {

/// Run fn(i) for i in [0, n) on up to `threads` workers (0 →
/// hardware_concurrency); blocks until all complete. With `threads == 1`
/// (or n <= 1) this is a plain sequential loop, which keeps single-core
/// runs deterministic and overhead-free. Workers claim `chunk` CONSECUTIVE
/// aligned indices per dispatch (default 1 = the plain dynamic schedule):
/// callers whose consecutive indices share expensive state — Session::run's
/// trials of one scenario sharing a cached estimator — pass the group size
/// so a whole group lands on one worker. fn must not throw (an escaping
/// exception terminates the process): harness tasks report failures through
/// their result slots instead.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0, std::size_t chunk = 1);

}  // namespace tcgrid::util

// Fan-out/fan-in over independent tasks: the sweep engine evaluates its
// (cell, scheme) tasks in parallel with run_parallel.
//
// The discrete-event simulator itself stays single-threaded for determinism;
// parallelism lives strictly at the granularity of independent simulations.
#pragma once

#include <functional>
#include <vector>

namespace sdpm {

/// Run every task on min(`threads`, tasks.size()) worker threads, which
/// claim task indices from one shared counter, and return once all have
/// finished.  A task that throws does not stop the others: after every task
/// has run, the first exception a task threw is rethrown (later ones are
/// dropped).  `threads` must be at least 1.
void run_parallel(std::vector<std::function<void()>> tasks, unsigned threads);

/// Worker count used when the sweep engine (or a Session or daemon) is
/// created with `jobs == 0`: the last set_default_jobs() value if nonzero,
/// else the SDPM_JOBS environment variable, else
/// std::thread::hardware_concurrency.
unsigned default_jobs();

/// Override default_jobs() process-wide (0 restores automatic detection).
/// Used by the CLI's --jobs flag.
void set_default_jobs(unsigned jobs);

}  // namespace sdpm

// Lock-order drill: exercises every locked module of the serving stack in
// one process so the lockdep registry observes the system's real lock
// graph, then captures it for validation.
//
// The drill is the dynamic half of the concurrency contract (the static
// half is the Clang thread-safety annotations in common/sync.hpp). It
// builds the full production stack — thread pool, online tuner, selection
// service with fallback, persistent store over a temp journal, trace
// session, a (zero-probability) fault plan so the injector's plan lock is
// exercised — and drives it from several threads mixing select(),
// select_batch(), select() posted to the thread pool, store
// flush/compaction and provisional refresh. Because lockdep edges are a
// function of code paths, not schedules, the resulting graph is
// deterministic; `akscheck locks` fails when it contains a cycle or a lock
// held across a condition wait that the ordering ranks in DESIGN.md do not
// sanction.
#pragma once

#include <cstddef>

#include "check/lockdep.hpp"

namespace aks::check {

struct LockDrillOptions {
  /// Worker threads issuing requests concurrently.
  std::size_t threads = 8;
  /// Requests per thread (split across the entry points).
  std::size_t requests_per_thread = 64;
  /// Distinct GEMM shapes in the request mix; collisions across threads
  /// exercise single-flight coalescing (serve.entry under serve.shard).
  std::size_t shapes = 24;
  /// Run under an active TraceSession so the trace locks join the graph.
  bool trace = true;
};

/// Runs the drill and returns the captured lock-order report. Resets the
/// lockdep registry first so the report covers exactly this drill plus
/// whatever the process already registered. The temp journal is removed
/// on exit.
[[nodiscard]] lockdep::Report run_lock_drill(const LockDrillOptions& options = {});

}  // namespace aks::check

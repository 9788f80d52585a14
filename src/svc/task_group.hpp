// The process-wide executor and its caller-runs task groups.
//
// Every parallel loop in flowsynth — the chip-size sweep's attempts, the
// asynchronous branch & bound workers, Monte Carlo trial blocks, portfolio
// race arms and the Table-1 rows — runs its tasks through a `TaskGroup` on
// one shared ThreadPool of `hardware threads - 1` helpers, started on first
// use (a 1-thread host gets none, and every task runs on its caller).
//
// `wait()` runs the group's not-yet-started tasks on the calling thread and
// blocks only on tasks another thread has already started.  A started task
// waits only on groups it created itself, so the waits follow the nesting
// (job -> race arm -> sweep attempt -> B&B workers or trial blocks) and can
// never form a cycle: groups nest to any depth without deadlock, and never
// use more threads than the callers plus the executor's helpers.
#pragma once

#include <functional>
#include <memory>

namespace fsyn::svc {

class TaskGroup {
 public:
  TaskGroup();
  /// Drops the tasks no thread has started and waits for the started ones,
  /// so no task outlives the objects its caller handed it.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Queues `task` for the executor's helpers.  It runs under the caller's
  /// trace context (obs::current_trace() at this call).  Only the thread
  /// that owns the group adds tasks to it.
  void run(std::function<void()> task);

  /// Runs every task not yet started on this thread, waits for the started
  /// ones, then rethrows the first exception a task threw.
  void wait();

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace fsyn::svc

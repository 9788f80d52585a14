// Fixed-size thread-pool executor with a bounded job queue.
//
// The pool is the substrate of the batch-synthesis service (service.hpp):
// workers pull closures from a FIFO queue whose depth is capped so a burst
// of submissions cannot grow memory without bound.  When the queue is full
// the configured overflow policy either blocks the submitter (backpressure)
// or rejects the task immediately — the service maps a rejection to a
// `JobStatus::kRejected` result so callers see it as data, not an exception.
// It is also the substrate of the process-wide executor (task_group.hpp),
// whose helpers run the task groups of every parallel loop; this file is
// the one place in the program that starts threads.
//
// Destruction drains the queue: already-accepted tasks still run, then the
// workers join.  `submit` after `shutdown` is a rejection.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fsyn::svc {

/// What `submit` does when the bounded queue is full.
enum class OverflowPolicy {
  kBlock,  ///< wait until a worker frees a slot (backpressure)
  kReject  ///< return false immediately
};

class ThreadPool {
 public:
  /// `workers` must be >= 1; `queue_capacity` 0 means unbounded.  Worker i
  /// names its trace track `<name>-<i>`.
  explicit ThreadPool(int workers, std::size_t queue_capacity = 0,
                      OverflowPolicy overflow = OverflowPolicy::kBlock,
                      const std::string& name = "svc-worker");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.  Returns false when the task was rejected (kReject
  /// policy with a full queue, or the pool is shutting down).
  bool submit(std::function<void()> task);

  /// Stops accepting tasks, runs everything already queued, joins workers.
  /// Idempotent; also called by the destructor.
  void shutdown();

  int worker_count() const { return static_cast<int>(workers_.size()); }
  std::size_t queue_depth() const;
  /// High-water mark of the queue depth since construction.
  std::size_t max_queue_depth() const;

 private:
  void worker_loop();

  const std::size_t capacity_;
  const OverflowPolicy overflow_;

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_;
  std::size_t max_depth_ = 0;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace fsyn::svc

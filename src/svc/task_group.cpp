#include "svc/task_group.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "svc/thread_pool.hpp"

namespace fsyn::svc {

namespace {

/// The executor's helpers, or nullptr on a 1-thread host.
ThreadPool* helpers() {
  static ThreadPool* const pool = []() -> ThreadPool* {
    const int helpers = static_cast<int>(std::thread::hardware_concurrency()) - 1;
    if (helpers < 1) return nullptr;
    // Helpers name their trace tracks as they start.  Constructed first,
    // the tracer is destroyed after the pool, whose destructor joins them.
    obs::Tracer::instance();
    static ThreadPool instance(helpers, /*queue_capacity=*/0, OverflowPolicy::kBlock, "executor");
    return &instance;
  }();
  return pool;
}

}  // namespace

struct TaskGroup::State {
  std::mutex mutex;
  std::condition_variable idle;
  std::deque<std::function<void()>> pending;  ///< not started by any thread
  int running = 0;
  std::exception_ptr error;

  /// Runs the oldest pending task, if any, with `lock` released.
  bool run_one(std::unique_lock<std::mutex>& lock) {
    if (pending.empty()) return false;
    std::function<void()> task = std::move(pending.front());
    pending.pop_front();
    ++running;
    lock.unlock();
    std::exception_ptr thrown;
    try {
      task();
    } catch (...) {
      thrown = std::current_exception();
    }
    lock.lock();
    if (thrown && !error) error = thrown;
    if (--running == 0) idle.notify_all();
    return true;
  }
};

TaskGroup::TaskGroup() : state_(std::make_shared<State>()) {}

TaskGroup::~TaskGroup() {
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->pending.clear();
  state_->idle.wait(lock, [this] { return state_->running == 0; });
}

void TaskGroup::run(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->pending.push_back([task = std::move(task), trace = obs::current_trace()] {
      obs::TraceContextScope scope(trace);
      task();
    });
  }
  // The helper's ticket runs whichever task of this group is still pending
  // when it comes up; the caller may have run them all by then.
  if (ThreadPool* pool = helpers()) {
    pool->submit([state = state_] {
      std::unique_lock<std::mutex> lock(state->mutex);
      state->run_one(lock);
    });
  }
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(state_->mutex);
  while (state_->run_one(lock)) {
  }
  state_->idle.wait(lock, [this] { return state_->running == 0; });
  if (state_->error) std::rethrow_exception(std::exchange(state_->error, nullptr));
}

}  // namespace fsyn::svc

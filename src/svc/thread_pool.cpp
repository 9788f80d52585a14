#include "svc/thread_pool.hpp"

#include <string>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace fsyn::svc {

ThreadPool::ThreadPool(int workers, std::size_t queue_capacity, OverflowPolicy overflow,
                       const std::string& name)
    : capacity_(queue_capacity), overflow_(overflow) {
  check_input(workers >= 1, "thread pool needs at least one worker");
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i, track = name + "-" + std::to_string(i)] {
      obs::Tracer::instance().set_thread_name(track);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

bool ThreadPool::submit(std::function<void()> task) {
  require(static_cast<bool>(task), "thread pool task must be callable");
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (capacity_ > 0 && queue_.size() >= capacity_) {
      if (overflow_ == OverflowPolicy::kReject) return false;
      not_full_.wait(lock, [this] { return stopping_ || queue_.size() < capacity_; });
    }
    if (stopping_) return false;
    queue_.push_back(std::move(task));
    max_depth_ = std::max(max_depth_, queue_.size());
  }
  not_empty_.notify_one();
  return true;
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // A second shutdown (e.g. explicit call + destructor) only needs to
      // wait for the joins below, which already happened.
      return;
    }
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t ThreadPool::max_queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_depth_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    task();  // exceptions must not escape: tasks wrap their own try/catch
  }
}

}  // namespace fsyn::svc

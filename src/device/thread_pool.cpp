#include "device/thread_pool.hpp"

#include <algorithm>

namespace bpm::device {

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0)
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(num_threads);
  for (unsigned id = 0; id < num_threads; ++id)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_tasks(unsigned count,
                           const std::function<void(unsigned)>& task) {
  if (count == 0) return;
  if (count == 1) {  // nothing to share: skip the queue entirely
    task(0);
    return;
  }
  Batch batch{&task, count, /*next=*/0, /*remaining=*/count};
  std::unique_lock lock(mutex_);
  queue_.push_back(&batch);
  work_cv_.notify_all();
  // Claim slots of our own batch until they are all taken; workers may be
  // claiming from the same batch (or from other streams' batches)
  // concurrently.
  while (batch.next < batch.count) {
    const unsigned slot = batch.next++;
    if (batch.next == batch.count)
      queue_.erase(std::find(queue_.begin(), queue_.end(), &batch));
    lock.unlock();
    (*batch.task)(slot);
    lock.lock();
    if (--batch.remaining == 0) done_cv_.notify_all();
  }
  done_cv_.wait(lock, [&] { return batch.remaining == 0; });
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    if (shutdown_) return;
    Batch* batch = queue_.front();
    const unsigned slot = batch->next++;
    if (batch->next == batch->count) queue_.pop_front();
    lock.unlock();
    (*batch->task)(slot);
    lock.lock();
    if (--batch->remaining == 0) done_cv_.notify_all();
  }
}

}  // namespace bpm::device

#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bpm::device {

/// Persistent worker pool shared by every stream of a device engine.
///
/// `run_tasks(count, task)` runs `task(slot)` for every slot in
/// `[0, count)` and blocks the caller until all of them finished — one
/// fork-join per *kernel launch* in the device model, so the pool is
/// created once per engine and reused across thousands of launches
/// (thread creation per launch would dominate small kernels, just as CUDA
/// context creation would).
///
/// Unlike a plain fork-join pool, `run_tasks` may be called from several
/// host threads at once: each call enqueues its batch on a shared task
/// queue and the workers interleave slots from all in-flight batches.
/// This is what lets N device *streams* borrow one set of workers — the
/// host-thread analogue of CUDA streams sharing the SMs.  The caller
/// participates in executing its own batch, so every batch makes progress
/// even when all workers are busy with other streams' launches.
///
/// A slot index identifies a logical partition of the launch, not a
/// physical thread: one worker may execute several slots of the same
/// batch.  Slots within a batch are claimed exactly once.
///
/// The join is an acquire/release synchronisation point: everything
/// executed during the batch happens-before the caller's return, which is
/// what gives kernel launches their bulk-synchronous barrier semantics.
class ThreadPool {
 public:
  /// Creates `num_threads` workers.  `num_threads == 0` selects
  /// `std::thread::hardware_concurrency()`.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs `task(slot)` for every slot in `[0, count)`; returns when all
  /// finished.  Safe to call concurrently from multiple threads.
  /// Exceptions thrown inside `task` terminate (kernels must not throw,
  /// mirroring the no-exceptions execution environment of GPU code).
  void run_tasks(unsigned count, const std::function<void(unsigned)>& task);

 private:
  /// One in-flight `run_tasks` call.  Lives on the caller's stack; the
  /// queue holds only batches that still have unclaimed slots.
  struct Batch {
    const std::function<void(unsigned)>* task;
    unsigned count;
    unsigned next = 0;       ///< next unclaimed slot (guarded by mutex_)
    unsigned remaining = 0;  ///< slots not yet finished (guarded by mutex_)
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: queue non-empty / shutdown
  std::condition_variable done_cv_;  ///< callers: their batch completed
  std::deque<Batch*> queue_;         ///< batches with unclaimed slots
  bool shutdown_ = false;
};

}  // namespace bpm::device

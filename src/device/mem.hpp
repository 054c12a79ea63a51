#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace bpm::device {

/// A memory cell that many device threads may read and write concurrently
/// without synchronisation — the C++ embodiment of the paper's *benign
/// races* on the µ, ψ and iA arrays.
///
/// The paper's kernels deliberately race: concurrent pushes overwrite µ(u),
/// the last writer wins, and losers are detected afterwards via
/// `µ(µ(v)) ≠ v`.  A plain C++ data race is undefined behaviour, so the
/// cell uses `std::atomic` with `memory_order_relaxed`: on mainstream ISAs
/// relaxed 32-bit load/store compiles to an ordinary `mov` — no lock
/// prefixes, no read-modify-write — exactly matching the paper's claim of
/// an "atomic- and lock-free" implementation (they avoid atomic *RMW*
/// instructions, not loads/stores).
///
/// Copy operations exist so that containers of cells are usable; they are
/// *not* atomic as a pair and must only run while no kernel is in flight
/// (i.e. host-side, between launches).
template <typename T>
class relaxed_cell {
 public:
  relaxed_cell() noexcept : value_(T{}) {}
  explicit relaxed_cell(T v) noexcept : value_(v) {}
  relaxed_cell(const relaxed_cell& other) noexcept
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  relaxed_cell& operator=(const relaxed_cell& other) noexcept {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  [[nodiscard]] T load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void store(T v) noexcept { value_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<T> value_;
};

/// Fixed-capacity array of racy cells — "device memory".  The interface is
/// deliberately narrow: size, element access, bulk fill, host snapshot.
///
/// Storage is raw aligned memory rather than `std::vector`: the cell type
/// must be trivially destructible (it is, for the trivially-copyable `T`s
/// device state uses), which keeps destruction allocation-shaped — no
/// per-cell destructor walk over gigabytes of state.
///
/// Copying/moving and the bulk operations are host-side only (no kernel in
/// flight), like every non-atomic operation on device memory here.
template <typename T>
class relaxed_vector {
  static_assert(std::is_trivially_destructible_v<relaxed_cell<T>>,
                "relaxed_vector storage relies on skipping destructors");

 public:
  relaxed_vector() = default;
  explicit relaxed_vector(std::size_t n, T init = T{})
      : relaxed_vector(Uninitialized{}, n) {
    for (std::size_t i = 0; i < n; ++i) new (cells_ + i) relaxed_cell<T>(init);
  }

  relaxed_vector(const relaxed_vector& other)
      : relaxed_vector(Uninitialized{}, other.size_) {
    for (std::size_t i = 0; i < size_; ++i)
      new (cells_ + i) relaxed_cell<T>(other.cells_[i].load());
  }
  relaxed_vector& operator=(const relaxed_vector& other) {
    if (this != &other) {
      relaxed_vector copy(other);
      swap(copy);
    }
    return *this;
  }
  relaxed_vector(relaxed_vector&& other) noexcept
      : cells_(std::exchange(other.cells_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  relaxed_vector& operator=(relaxed_vector&& other) noexcept {
    if (this != &other) {
      deallocate(cells_);
      cells_ = std::exchange(other.cells_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~relaxed_vector() { deallocate(cells_); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// O(1) buffer exchange — the Ac/Ap double-buffer swap of Algorithm 7.
  /// Host-side only (no kernel in flight).
  void swap(relaxed_vector& other) noexcept {
    std::swap(cells_, other.cells_);
    std::swap(size_, other.size_);
  }

  [[nodiscard]] T load(std::size_t i) const noexcept {
    return cells_[i].load();
  }
  void store(std::size_t i, T v) noexcept { cells_[i].store(v); }

  /// Host-side bulk operations (no kernel may be in flight).
  void fill(T v) {
    for (std::size_t i = 0; i < size_; ++i) cells_[i].store(v);
  }
  void assign_from(const std::vector<T>& host) {
    relaxed_vector fresh(Uninitialized{}, host.size());
    for (std::size_t i = 0; i < host.size(); ++i)
      new (fresh.cells_ + i) relaxed_cell<T>(host[i]);
    swap(fresh);
  }
  [[nodiscard]] std::vector<T> to_host() const {
    std::vector<T> out(size_);
    for (std::size_t i = 0; i < size_; ++i) out[i] = cells_[i].load();
    return out;
  }

 private:
  /// Allocates storage for `n` cells without constructing any; every
  /// caller constructs all `n` before the vector is used.
  struct Uninitialized {};
  relaxed_vector(Uninitialized, std::size_t n)
      : cells_(allocate(n)), size_(n) {}

  static relaxed_cell<T>* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<relaxed_cell<T>*>(::operator new(
        n * sizeof(relaxed_cell<T>), std::align_val_t{kAlignment}));
  }
  static void deallocate(relaxed_cell<T>* p) noexcept {
    if (p != nullptr) ::operator delete(p, std::align_val_t{kAlignment});
  }

  /// Cache-line alignment keeps false sharing with unrelated allocations
  /// away from the start of each array.
  static constexpr std::size_t kAlignment =
      alignof(relaxed_cell<T>) > 64 ? alignof(relaxed_cell<T>) : 64;

  relaxed_cell<T>* cells_ = nullptr;
  std::size_t size_ = 0;
};

/// Kernel-wide flag (the paper's `actExists` / `uAdded`): any thread may
/// raise it during a launch; the host reads it after the launch barrier.
/// Multiple concurrent `raise()` calls are the benign same-value race the
/// paper describes for these variables.
class device_flag {
 public:
  device_flag() = default;
  /// Copying reads the current value; host-side only, like relaxed_cell.
  device_flag(const device_flag& other) noexcept
      : flag_(other.flag_.load(std::memory_order_relaxed)) {}
  device_flag& operator=(const device_flag& other) noexcept {
    flag_.store(other.flag_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  void reset() noexcept { flag_.store(false, std::memory_order_relaxed); }
  void raise() noexcept { flag_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool is_raised() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> flag_{false};
};

}  // namespace bpm::device

#pragma once

// A registered test solver that sleeps, then returns its init: it holds a
// service worker (or a client's `wait`) busy for a deterministic window,
// to fill queues and test priorities, deadlines and blocking clients.
// Shared by the service and the transport suites.
//
//   test-sleep:ms=<n>   sleep n milliseconds (default 20)

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "core/solver.hpp"

namespace bpm::test_support {

class SleepSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "test-sleep"; }
  [[nodiscard]] SolverCaps caps() const override { return {.exact = false}; }
  bool set_option(std::string_view key, std::string_view value) override {
    if (key != "ms") return false;
    ms_ = std::stoi(std::string(value));
    return true;
  }
  [[nodiscard]] Output solve_impl(
      const SolveContext&, const graph::BipartiteGraph&,
      const matching::ValidMatching& init) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    return {init};
  }

 private:
  int ms_ = 20;
};

/// Registers `test-sleep` once per process; later calls are no-ops.
inline void register_sleep_solver() {
  static const bool registered = [] {
    SolverRegistry::instance().add(
        "test-sleep", [] { return std::make_unique<SleepSolver>(); });
    return true;
  }();
  (void)registered;
}

}  // namespace bpm::test_support

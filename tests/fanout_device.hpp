#pragma once

// Devices for the kernel-level race suites.  At the production grain a
// launch below 2·16384 items runs inline, so on the tiny graphs these
// suites use no kernel would ever interleave with another.  These engines
// set `grain = 1`: every launch of two or more items fans out onto the
// pool, which is the configuration TSan and the race tests need.

#include <memory>

#include "device/device.hpp"

namespace bpm::test_support {

/// An engine of `threads` pool workers whose serial cutoff is off.  One
/// thread runs every launch inline, indices in order.
inline std::shared_ptr<device::Engine> fanout_engine(unsigned threads) {
  return std::make_shared<device::Engine>(
      device::EngineDescriptor{.threads = threads, .grain = 1});
}

/// A stream on its own `fanout_engine`.
inline device::Device fanout_device(unsigned threads) {
  return device::Device(fanout_engine(threads));
}

}  // namespace bpm::test_support

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "device/device.hpp"

namespace bpm::device {

/// Parallel exclusive prefix sum: `out[i] = sum(in[0..i))`, returns the
/// grand total.  Two-pass chunk algorithm (per-worker partial sums, serial
/// scan of the per-worker totals, per-worker write-out) — the same shape
/// as the per-thread counting + prefix sum inside the paper's
/// G-PR-SHRKRNL.  `in` and `out` may alias.  Runs through
/// `Device::launch_chunked`, so both passes are charged model time and
/// contribute measured wall time like any other launch.
std::int64_t exclusive_scan(Device& dev, std::span<const std::int64_t> in,
                            std::span<std::int64_t> out);

/// The offsets form `Device::launch_balanced` and `balanced_partition`
/// consume: the exclusive prefix sum of the per-item work estimates
/// (degrees) with the grand total appended — size `work.size() + 1`,
/// `out[0] == 0`.  The scan itself runs on the device via
/// `exclusive_scan`, mirroring the degree prefix sum an edge-balanced
/// CUDA kernel builds before its binary-search partition.
[[nodiscard]] std::vector<std::int64_t> balanced_offsets(
    Device& dev, std::span<const std::int64_t> work);

}  // namespace bpm::device

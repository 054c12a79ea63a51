#include "device/scan.hpp"

#include <numeric>
#include <stdexcept>
#include <vector>

namespace bpm::device {

std::int64_t exclusive_scan(Device& dev, std::span<const std::int64_t> in,
                            std::span<std::int64_t> out) {
  if (out.size() != in.size())
    throw std::invalid_argument("exclusive_scan: size mismatch");
  const auto n = static_cast<std::int64_t>(in.size());
  if (n == 0) return 0;

  // Pass 1: per-worker partial sums.
  std::vector<std::int64_t> partial(dev.num_workers() + 1, 0);
  dev.launch_chunked(n, [&](unsigned w, std::int64_t begin, std::int64_t end) {
    std::int64_t sum = 0;
    for (std::int64_t i = begin; i < end; ++i) sum += in[static_cast<std::size_t>(i)];
    partial[w + 1] = sum;
  });

  // Serial scan over the (tiny) per-worker totals.
  std::partial_sum(partial.begin(), partial.end(), partial.begin());

  // Pass 2: write out with per-worker offsets.
  dev.launch_chunked(n, [&](unsigned w, std::int64_t begin, std::int64_t end) {
    std::int64_t acc = partial[w];
    for (std::int64_t i = begin; i < end; ++i) {
      const std::int64_t v = in[static_cast<std::size_t>(i)];
      out[static_cast<std::size_t>(i)] = acc;
      acc += v;
    }
  });
  return partial.back();
}

std::vector<std::int64_t> balanced_offsets(Device& dev,
                                           std::span<const std::int64_t> work) {
  std::vector<std::int64_t> out(work.size() + 1, 0);
  out.back() = exclusive_scan(
      dev, work, std::span<std::int64_t>(out.data(), work.size()));
  return out;
}

}  // namespace bpm::device

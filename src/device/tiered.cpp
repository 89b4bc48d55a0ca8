#include "device/tiered.hpp"

#include <algorithm>

namespace cxlgraph::device {

TieredMemory::TieredMemory(MemoryDevice& fast, MemoryDevice& slow,
                           const TieredMemoryParams& params)
    : fast_(fast), slow_(slow), params_(params) {
  caps_ = fast.caps();
  caps_.name = "tiered(" + fast.caps().name + "+" + slow.caps().name + ")";
  // The composite honors the stricter of the two devices' limits.
  caps_.min_alignment =
      std::max(fast.caps().min_alignment, slow.caps().min_alignment);
  caps_.max_transfer =
      std::min(fast.caps().max_transfer, slow.caps().max_transfer);
}

void TieredMemory::read(std::uint64_t addr, std::uint32_t bytes,
                        ReadyFn ready) {
  if (is_fast(addr)) {
    ++fast_requests_;
    fast_.read(addr, bytes, std::move(ready));
  } else {
    ++slow_requests_;
    slow_.read(addr, bytes, std::move(ready));
  }
}

void TieredMemory::write(std::uint64_t addr, std::uint32_t bytes,
                         ReadyFn ready) {
  if (is_fast(addr)) {
    ++fast_requests_;
    fast_.write(addr, bytes, std::move(ready));
  } else {
    ++slow_requests_;
    slow_.write(addr, bytes, std::move(ready));
  }
}

const DeviceStats& TieredMemory::stats() const noexcept {
  aggregate_stats_ = DeviceStats{};
  aggregate_stats_.requests =
      fast_.stats().requests + slow_.stats().requests;
  aggregate_stats_.bytes = fast_.stats().bytes + slow_.stats().bytes;
  return aggregate_stats_;
}

}  // namespace cxlgraph::device

#include "device/tiered.hpp"

#include <stdexcept>

namespace cxlgraph::device {

TieredMemory::TieredMemory(MemoryDevice& fast, MemoryDevice& slow,
                           const TieredMemoryParams& params)
    : fast_(fast), slow_(slow), params_(params) {
  if (params.placement == TierPlacement::kInterleave &&
      (params.cycle_pages == 0 ||
       params.fast_pages_per_cycle > params.cycle_pages ||
       params.interleave_bytes == 0)) {
    throw std::invalid_argument("TieredMemory: bad interleave parameters");
  }
  caps_ = fast.caps();
  caps_.name = "tiered(" + fast.caps().name + "+" + slow.caps().name + ")";
  // The composite honors the stricter of the two devices' limits.
  caps_.min_alignment =
      std::max(fast.caps().min_alignment, slow.caps().min_alignment);
  caps_.max_transfer =
      std::min(fast.caps().max_transfer, slow.caps().max_transfer);
}

bool TieredMemory::is_fast(std::uint64_t addr) const noexcept {
  switch (params_.placement) {
    case TierPlacement::kRangeSplit:
      return addr < params_.fast_bytes;
    case TierPlacement::kInterleave: {
      const std::uint64_t page = addr / params_.interleave_bytes;
      return page % params_.cycle_pages < params_.fast_pages_per_cycle;
    }
  }
  return false;
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

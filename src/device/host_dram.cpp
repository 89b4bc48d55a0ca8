#include "device/host_dram.hpp"

#include <algorithm>

namespace cxlgraph::device {

HostDram::HostDram(Simulator& sim, const HostDramParams& params,
                   std::string name)
    : sim_(sim),
      params_(params),
      ps_per_byte_(util::checked_ps_per_byte(
          params.channel_bandwidth_mbps, "HostDram: channel_bandwidth_mbps")) {
  caps_.name = std::move(name);
  caps_.min_alignment = 1;
  caps_.max_transfer = 128;  // GPU cache-line granularity over the link
  caps_.memory_semantics = true;
}

void HostDram::read(std::uint64_t addr, std::uint32_t bytes, ReadyFn ready) {
  (void)addr;
  ++stats_.requests;
  stats_.bytes += bytes;
  const SimTime arrival = sim_.now();
  const SimTime slot_start = std::max(channel_busy_until_, arrival);
  const auto transfer =
      static_cast<SimTime>(static_cast<double>(bytes) * ps_per_byte_ + 0.5);
  channel_busy_until_ = slot_start + transfer;
  const SimTime ready_time =
      channel_busy_until_ + params_.access_latency + params_.socket_hop;
  sim_.schedule_at(ready_time, std::move(ready));
}

void HostDram::write(std::uint64_t addr, std::uint32_t bytes,
                     ReadyFn ready) {
  // DRAM writes share the channel with reads and post at the same access
  // latency (the memory controller's write buffers hide the precharge
  // details at this level of abstraction).
  read(addr, bytes, std::move(ready));
}

}  // namespace cxlgraph::device

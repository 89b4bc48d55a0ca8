#include "gpusim/pointer_chase.hpp"

#include "util/rng.hpp"

namespace cxlgraph::gpusim {

namespace {

/// One warp's dependent chain as a listener: each read's completion waits
/// out the warp sync, then the next hop issues the next read.
struct Chase {
  enum Op : std::uint16_t { kReadDone, kHop };

  Chase(sim::Simulator& sim, device::PcieLink& link,
        device::MemoryDevice& device, const PointerChaseParams& params)
      : sim(sim),
        link(link),
        device(device),
        params(params),
        listener(sim.add_listener(this, &Chase::on_event)),
        remaining(params.hops),
        start(sim.now()) {
    hop_us.reserve(params.hops);
  }
  Chase(const Chase&) = delete;
  Chase& operator=(const Chase&) = delete;

  static void on_event(void* self, std::uint16_t opcode, std::uint32_t,
                       std::uint32_t) {
    auto* chase = static_cast<Chase*>(self);
    if (opcode == kReadDone) {
      chase->sim.schedule_after(chase->params.warp_sync_overhead,
                                chase->listener, kHop);
    } else {
      chase->hop();
    }
  }

  void hop() {
    if (remaining != params.hops) {
      hop_us.push_back(util::us_from_ps(sim.now() - hop_start));
    }
    if (remaining == 0) {
      end = sim.now();
      return;
    }
    --remaining;
    hop_start = sim.now();
    const std::uint64_t addr =
        rng.next_below(params.span_bytes / params.read_bytes) *
        params.read_bytes;
    link.memory_read(device, addr, params.read_bytes,
                     sim::Callback{listener, kReadDone});
  }

  sim::Simulator& sim;
  device::PcieLink& link;
  device::MemoryDevice& device;
  const PointerChaseParams& params;
  std::uint16_t listener;
  unsigned remaining;
  util::Xoshiro256 rng{0xc0ffee};
  sim::SimTime start;
  sim::SimTime hop_start = 0;
  sim::SimTime end = 0;
  std::vector<double> hop_us;
};

}  // namespace

PointerChaseResult pointer_chase(sim::Simulator& sim,
                                 device::PcieLink& link,
                                 device::MemoryDevice& device,
                                 const PointerChaseParams& params) {
  Chase chase(sim, link, device, params);
  chase.hop();
  sim.run();

  PointerChaseResult result;
  result.hop_us = std::move(chase.hop_us);
  result.mean_us = util::us_from_ps(chase.end - chase.start) /
                   static_cast<double>(params.hops);
  return result;
}

}  // namespace cxlgraph::gpusim

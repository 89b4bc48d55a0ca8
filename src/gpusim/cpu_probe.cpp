#include "gpusim/cpu_probe.hpp"

#include <functional>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cxlgraph::gpusim {

CpuProbeResult cpu_random_read_probe(
    const device::CxlDeviceParams& device_params,
    const CpuProbeParams& probe_params) {
  sim::Simulator sim;
  device::CxlDevice dev(sim, device_params, "cxl-probe-target");

  // Phase 1: one isolated request to measure the nominal device latency
  // (request arrival to data return, no queueing).
  sim::SimTime isolated_latency = 0;
  {
    const sim::SimTime issued = sim.now();
    sim.schedule_after(probe_params.cpu_overhead, [&]() {
      dev.read(0, probe_params.read_bytes, sim.make_callback([&]() {
                 sim.schedule_after(probe_params.cpu_overhead,
                                    [&, issued]() {
                                      isolated_latency = sim.now() - issued;
                                    });
               }));
    });
    sim.run();
  }

  struct ProbeState {
    std::uint32_t outstanding = 0;
    std::uint64_t completed = 0;
    std::uint64_t bytes = 0;
    util::OnlineStats latency_us;
    util::Xoshiro256 rng{0xdecafbad};
    bool stopped = false;
  };
  ProbeState state;

  // Phase 2: flood with up to cpu_max_outstanding requests for `duration`.
  // Every closure below runs inside the sim.run() of this scope, so they
  // capture `state` and `issue_more` by reference; owning copies would make
  // issue_more a reference cycle that never frees.
  const sim::SimTime flood_start = sim.now();
  const sim::SimTime flood_end = flood_start + probe_params.duration;
  std::function<void()> issue_more;
  issue_more = [&]() {
    if (state.stopped) return;
    if (sim.now() >= flood_end) {
      state.stopped = true;
      return;
    }
    while (state.outstanding < probe_params.cpu_max_outstanding) {
      ++state.outstanding;
      const std::uint64_t addr =
          state.rng.next_below(probe_params.span_bytes /
                               probe_params.read_bytes) *
          probe_params.read_bytes;
      const sim::SimTime issued = sim.now();
      // CPU -> device hop, the device model, then the return hop.
      sim.schedule_after(probe_params.cpu_overhead, [&, addr, issued]() {
        dev.read(addr, probe_params.read_bytes,
                 sim.make_callback([&, issued]() {
                   sim.schedule_after(probe_params.cpu_overhead, [&, issued]() {
                     --state.outstanding;
                     ++state.completed;
                     state.bytes += probe_params.read_bytes;
                     state.latency_us.add(util::us_from_ps(sim.now() - issued));
                     issue_more();
                   });
                 }));
      });
      if (state.stopped) break;
    }
  };
  issue_more();
  sim.run();

  CpuProbeResult result;
  const sim::SimTime elapsed = sim.now() - flood_start;
  result.completed_reads = state.completed;
  result.throughput_mbps = util::mbps_from(state.bytes, elapsed);
  result.observed_latency_us = util::us_from_ps(isolated_latency);
  // N = T * L / d, with T in B/s and L in seconds (paper Eq. 3). L is the
  // *device-internal* latency — the CPU hops sit outside the device's
  // outstanding-request budget — which is what makes the curve plateau at
  // the device's 128 tags, as the paper infers for Fig. 10.
  const double device_latency_us =
      result.observed_latency_us -
      2.0 * util::us_from_ps(probe_params.cpu_overhead);
  result.littles_law_outstanding =
      result.throughput_mbps * 1.0e6 * (device_latency_us * 1.0e-6) /
      static_cast<double>(probe_params.read_bytes);
  return result;
}

}  // namespace cxlgraph::gpusim

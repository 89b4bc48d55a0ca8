#include "gpusim/cpu_probe.hpp"

#include "util/rng.hpp"

namespace cxlgraph::gpusim {

namespace {

/// The CPU side of the probe as a listener. A read crosses the CPU hop
/// (kAtDevice, payload = address), the device model (kDeviceDone, pushed
/// at the ready time the device announces) and the return hop
/// (kReturned). Before the flood, one isolated read measures
/// the unqueued latency; during it, each return issues more reads until
/// the flood window closes.
struct Probe final : device::ReadySink {
  enum Op : std::uint16_t { kAtDevice, kDeviceDone, kReturned };

  Probe(sim::Simulator& sim, device::CxlDevice& dev,
        const CpuProbeParams& params)
      : sim(sim),
        dev(dev),
        params(params),
        listener(sim.add_listener(this, &Probe::on_event)) {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  static void on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                       std::uint32_t b) {
    auto* probe = static_cast<Probe*>(self);
    switch (opcode) {
      case kAtDevice:
        probe->dev.read(
            a | std::uint64_t{b} << 32, probe->params.read_bytes,
            device::ReadyFn{probe, {probe->listener, kDeviceDone}});
        break;
      case kDeviceDone:
        probe->sim.schedule_after(probe->params.cpu_overhead,
                                  probe->listener, kReturned);
        break;
      case kReturned:
        if (!probe->flooding) {
          probe->isolated_latency = probe->sim.now() - probe->isolated_issued;
          break;
        }
        --probe->outstanding;
        ++probe->completed;
        probe->bytes += probe->params.read_bytes;
        probe->issue_more();
        break;
    }
  }

  void ready_at(sim::SimTime time, const sim::Callback& cb) override {
    sim.schedule_at(time, cb);
  }

  void issue(std::uint64_t addr) {
    sim.schedule_after(params.cpu_overhead, listener, kAtDevice,
                       static_cast<std::uint32_t>(addr),
                       static_cast<std::uint32_t>(addr >> 32));
  }

  void issue_more() {
    if (sim.now() >= flood_end) return;
    while (outstanding < params.cpu_max_outstanding) {
      ++outstanding;
      issue(rng.next_below(params.span_bytes / params.read_bytes) *
            params.read_bytes);
    }
  }

  sim::Simulator& sim;
  device::CxlDevice& dev;
  const CpuProbeParams& params;
  std::uint16_t listener;
  sim::SimTime isolated_issued = 0;
  sim::SimTime isolated_latency = 0;
  bool flooding = false;
  sim::SimTime flood_end = 0;
  std::uint32_t outstanding = 0;
  std::uint64_t completed = 0;
  std::uint64_t bytes = 0;
  util::Xoshiro256 rng{0xdecafbad};
};

}  // namespace

CpuProbeResult cpu_random_read_probe(
    const device::CxlDeviceParams& device_params,
    const CpuProbeParams& probe_params) {
  sim::Simulator sim;
  device::CxlDevice dev(sim, device_params, "cxl-probe-target");
  Probe probe(sim, dev, probe_params);

  // Phase 1: one isolated request to measure the nominal device latency
  // (request arrival to data return, no queueing).
  probe.isolated_issued = sim.now();
  probe.issue(0);
  sim.run();

  // Phase 2: flood with up to cpu_max_outstanding requests for `duration`.
  const sim::SimTime flood_start = sim.now();
  probe.flooding = true;
  probe.flood_end = flood_start + probe_params.duration;
  probe.issue_more();
  sim.run();

  CpuProbeResult result;
  const sim::SimTime elapsed = sim.now() - flood_start;
  result.completed_reads = probe.completed;
  result.throughput_mbps = util::mbps_from(probe.bytes, elapsed);
  result.observed_latency_us = util::us_from_ps(probe.isolated_latency);
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

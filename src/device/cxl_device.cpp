#include "device/cxl_device.hpp"

#include <algorithm>
#include <stdexcept>

namespace cxlgraph::device {

CxlDevice::CxlDevice(Simulator& sim, const CxlDeviceParams& params,
                     std::string name)
    : sim_(sim),
      params_(params),
      ps_per_byte_(util::checked_ps_per_byte(
          params.channel_bandwidth_mbps, "CxlDevice: channel_bandwidth_mbps")) {
  if (params.flit_bytes == 0 || params.device_tags == 0) {
    throw std::invalid_argument("CxlDevice: bad parameters");
  }
  ingress_covers_egress_ =
      params.socket_hop + params.port_ingress >= params.port_egress;
  listener_ = sim_.add_listener(this, &CxlDevice::on_event);
  caps_.name = std::move(name);
  caps_.min_alignment = 1;
  caps_.max_transfer = 128;
  caps_.memory_semantics = true;
}

void CxlDevice::read(std::uint64_t addr, std::uint32_t bytes, ReadyFn ready) {
  (void)addr;
  // Zero bytes split into no flits, so no kPop would ever fire `ready`.
  if (bytes == 0) throw std::invalid_argument("CxlDevice: zero-byte read");
  ++stats_.requests;
  stats_.bytes += bytes;

  const std::uint32_t flit_count =
      (bytes + params_.flit_bytes - 1) / params_.flit_bytes;
  const std::uint32_t parent =
      parents_.acquire(ParentRead{flit_count, ready});

  // Socket hop (if remote) + port ingress, then each flit contends for a
  // device tag.
  sim_.schedule_after(params_.socket_hop + params_.port_ingress, listener_,
                      kIngress, parent, flit_count);
  ingress_flits_ += flit_count;
}

SimTime CxlDevice::admit_flit() {
  const SimTime arrival = sim_.now();  // latency-bridge timestamp

  // Single-channel DRAM: serialize the flit, then the access latency.
  const SimTime slot_start = std::max(channel_busy_until_, arrival);
  const auto transfer = static_cast<SimTime>(
      static_cast<double>(params_.flit_bytes) * ps_per_byte_ + 0.5);
  channel_busy_until_ = slot_start + transfer;
  const SimTime dram_ready = channel_busy_until_ + params_.dram_latency;

  // Latency bridge (Appendix A): data pops when now >= stamp + added
  // latency, strictly in order (the FPGA's CXL interface is in-order).
  last_pop_time_ = std::max(
      {dram_ready, arrival + params_.added_latency, last_pop_time_});
  return last_pop_time_;
}

void CxlDevice::pop_flit(std::uint32_t parent) {
  // The FPGA's outstanding-request budget spans the whole device
  // residency, so the tag is released only once the flit has also
  // crossed the egress port.
  //
  // When no flit can be waiting by then, the free is recorded at the
  // (time, seq) its kTagFree would take instead of scheduled. Exact: a
  // kIngress that runs before the free was scheduled before this kPop,
  // because it runs at least socket_hop + port_ingress >= port_egress
  // after its read(), and a read() at this very time but after this kPop
  // pushes a later seq than the free would have. So every flit that can
  // arrive first is counted in ingress_flits_, and flits_in_flight_ +
  // ingress_flits_ <= device_tags admits them all: with waiting_flits_
  // empty, none waits, and the elided kTagFree would only have
  // decremented flits_in_flight_. Every other push keeps its relative
  // (time, seq) order, and the decrement lands where the event would have
  // run: at the first kIngress after it, or in flits_in_flight(). A free
  // past the last picosecond is scheduled, so schedule_after still
  // rejects it.
  SimTime free_time = 0;
  if (ingress_covers_egress_ && waiting_flits_.empty() &&
      flits_in_flight_ + ingress_flits_ <= params_.device_tags &&
      !__builtin_add_overflow(sim_.now(), params_.port_egress, &free_time)) {
    recorded_frees_.push_back(TagFree{free_time, sim_.next_seq()});
  } else {
    sim_.schedule_after(params_.port_egress, listener_, kTagFree);
  }
  ParentRead& read = parents_[parent];
  if (--read.flits_remaining > 0) return;
  // The last flit fixes the request's ready time: egress, then the hop
  // back across the socket. Pops run in time order and every request
  // adds this same lead, so announcements come in ready order, also
  // across a pool's devices (they share parameters).
  SimTime ready_time = 0;
  if (__builtin_add_overflow(sim_.now(),
                             params_.port_egress + params_.socket_hop,
                             &ready_time)) {
    throw std::overflow_error("CxlDevice: ready time overflows SimTime");
  }
  const ReadyFn ready = read.ready;
  parents_.release(parent);
  ready.announce(ready_time);
}

void CxlDevice::on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                         std::uint32_t b) {
  auto* dev = static_cast<CxlDevice*>(self);
  switch (opcode) {
    case kIngress: {
      const auto parent = static_cast<std::uint32_t>(a);
      const auto flit_count = static_cast<std::uint32_t>(b);
      dev->ingress_flits_ -= flit_count;
      while (!dev->recorded_frees_.empty() &&
             dev->retired(dev->recorded_frees_.front())) {
        dev->recorded_frees_.pop_front();
        --dev->flits_in_flight_;
      }
      // Admitted flits of this read that pop on the same picosecond share
      // one kPop carrying their count. Exact: their separate kPops would
      // be pushed back to back, (t, s), (t, s + 1), ..., so they would
      // run back to back with no event between them, and one kPop that
      // does their work in order makes the same pushes in the same order.
      // Pop times never fall, so equal ones are adjacent.
      std::uint32_t pops = 0;
      SimTime pop_time = 0;
      for (std::uint32_t i = 0; i < flit_count; ++i) {
        if (dev->flits_in_flight_ < dev->params_.device_tags) {
          ++dev->flits_in_flight_;
          const SimTime t = dev->admit_flit();
          if (pops > 0 && t != pop_time) {
            dev->sim_.schedule_at(pop_time, dev->listener_, kPop, parent,
                                  pops);
            pops = 0;
          }
          pop_time = t;
          ++pops;
        } else {
          dev->waiting_flits_.push_back(parent);
        }
      }
      if (pops > 0) {
        dev->sim_.schedule_at(pop_time, dev->listener_, kPop, parent, pops);
      }
      break;
    }
    case kPop: {
      const auto parent = static_cast<std::uint32_t>(a);
      for (std::uint32_t flits = b; flits > 0; --flits) {
        dev->pop_flit(parent);
      }
      break;
    }
    case kTagFree: {
      if (!dev->waiting_flits_.empty()) {
        const std::uint32_t next = dev->waiting_flits_.front();
        dev->waiting_flits_.pop_front();
        dev->sim_.schedule_at(dev->admit_flit(), dev->listener_, kPop, next,
                              1);
      } else {
        --dev->flits_in_flight_;
      }
      break;
    }
    case kWriteCoherent: {
      const auto slot = static_cast<std::uint32_t>(a);
      const PendingWrite w = dev->pending_writes_[slot];
      dev->pending_writes_.release(slot);
      dev->read(w.addr, w.bytes, w.ready);
      break;
    }
  }
}

CxlMemoryPool::CxlMemoryPool(Simulator& sim, const CxlDeviceParams& params,
                             unsigned num_devices,
                             std::uint32_t interleave_bytes)
    : interleave_bytes_(interleave_bytes) {
  if (num_devices == 0 || interleave_bytes == 0) {
    throw std::invalid_argument("CxlMemoryPool: bad parameters");
  }
  devices_.reserve(num_devices);
  for (unsigned i = 0; i < num_devices; ++i) {
    devices_.push_back(std::make_unique<CxlDevice>(
        sim, params, "cxl-mem-" + std::to_string(i)));
  }
  caps_ = devices_.front()->caps();
  caps_.name = "cxl-pool-x" + std::to_string(num_devices);
}

void CxlDevice::write(std::uint64_t addr, std::uint32_t bytes,
                      ReadyFn ready) {
  // Writes ride the same flit pipeline as reads — split at 64 B, device
  // tags, channel serialization, latency bridge — plus the coherency
  // round (snoop/ownership) before the data can commit. The bridge delays
  // write completions like read data: the prototype's adjustable latency
  // sits between the CXL interface and the DRAM in both directions.
  if (bytes == 0) throw std::invalid_argument("CxlDevice: zero-byte write");
  const std::uint32_t slot =
      pending_writes_.acquire(PendingWrite{addr, bytes, ready});
  sim_.schedule_after(params_.write_coherency_overhead, listener_,
                      kWriteCoherent, slot);
}

void CxlMemoryPool::read(std::uint64_t addr, std::uint32_t bytes,
                         ReadyFn ready) {
  // Page-interleaved routing. Reads of <=128 B never straddle a 4 kB page
  // in our workloads' aligned access patterns, so route by start address.
  const std::size_t index =
      static_cast<std::size_t>((addr / interleave_bytes_) % devices_.size());
  devices_[index]->read(addr, bytes, ready);
}

void CxlMemoryPool::write(std::uint64_t addr, std::uint32_t bytes,
                          ReadyFn ready) {
  const std::size_t index =
      static_cast<std::size_t>((addr / interleave_bytes_) % devices_.size());
  devices_[index]->write(addr, bytes, ready);
}

// Aggregated lazily for reporting; fine for post-run inspection.
namespace {
DeviceStats sum_stats(
    const std::vector<std::unique_ptr<CxlDevice>>& devices) {
  DeviceStats out;
  for (const auto& d : devices) {
    out.requests += d->stats().requests;
    out.bytes += d->stats().bytes;
  }
  return out;
}
}  // namespace

const DeviceStats& CxlMemoryPool::stats() const noexcept {
  aggregate_stats_ = sum_stats(devices_);
  return aggregate_stats_;
}

}  // namespace cxlgraph::device

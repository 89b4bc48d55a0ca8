#include "device/pcie.hpp"

#include <stdexcept>

namespace cxlgraph::device {

PcieLinkParams pcie_x16(PcieGen gen) {
  PcieLinkParams p;
  switch (gen) {
    case PcieGen::kGen3:
      p.bandwidth_mbps = 12'000.0;
      p.n_max = 256;
      break;
    case PcieGen::kGen4:
      p.bandwidth_mbps = 24'000.0;
      p.n_max = 768;
      break;
    case PcieGen::kGen5:
      p.bandwidth_mbps = 48'000.0;
      p.n_max = 768;
      break;
  }
  return p;
}

PcieLink::PcieLink(Simulator& sim, const PcieLinkParams& params)
    : sim_(sim),
      params_(params),
      ps_per_byte_(util::checked_ps_per_byte(params.bandwidth_mbps,
                                             "PcieLink: bandwidth_mbps")) {
  if (params.n_max == 0) {
    throw std::invalid_argument("PcieLink: bad parameters");
  }
  listener_ = sim_.add_listener(this, &PcieLink::on_event);
}

void PcieLink::memory_read(MemoryDevice& device, std::uint64_t addr,
                           std::uint32_t bytes, DoneFn done) {
  stats_.tags_in_use.add(static_cast<double>(tags_in_use_));
  const std::uint32_t slot = pool_.acquire(
      PendingRead{&device, addr, bytes, /*is_write=*/false, done, 0});
  if (tags_in_use_ >= params_.n_max) {
    waiting_.push_back(slot);
    return;
  }
  ++tags_in_use_;
  start_memory_read(slot);
}

void PcieLink::memory_write(MemoryDevice& device, std::uint64_t addr,
                            std::uint32_t bytes, DoneFn done) {
  stats_.tags_in_use.add(static_cast<double>(tags_in_use_));
  const std::uint32_t slot = pool_.acquire(
      PendingRead{&device, addr, bytes, /*is_write=*/true, done, 0});
  if (tags_in_use_ >= params_.n_max) {
    waiting_.push_back(slot);
    return;
  }
  ++tags_in_use_;
  start_memory_write(slot);
}

void PcieLink::release_tag_and_admit() {
  --tags_in_use_;
  if (waiting_.empty()) return;
  const std::uint32_t next = waiting_.front();
  waiting_.pop_front();
  ++tags_in_use_;
  if (pool_[next].is_write) {
    start_memory_write(next);
  } else {
    start_memory_read(next);
  }
}

void PcieLink::start_memory_read(std::uint32_t slot) {
  pool_[slot].issue_time = sim_.now();
  ++stats_.memory_reads;
  // Upstream hop, then the device model, then the return path.
  sim_.schedule_after(params_.request_overhead, listener_, kReadAtDevice,
                      slot);
}

void PcieLink::start_memory_write(std::uint32_t slot) {
  ++stats_.memory_writes;
  // Payload crosses the upstream half of the link, then the device
  // processes it; the ack is a tiny completion (no serialization).
  const SimTime payload_arrival = serialize_upstream(pool_[slot].bytes);
  sim_.schedule_at(payload_arrival + params_.request_overhead, listener_,
                   kWriteAtDevice, slot);
}

void PcieLink::on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                        std::uint32_t /*b*/) {
  auto* link = static_cast<PcieLink*>(self);
  const auto slot = static_cast<std::uint32_t>(a);
  PendingRead& p = link->pool_[slot];
  switch (opcode) {
    case kReadAtDevice:
      p.device->read(p.addr, p.bytes,
                     sim::Callback{link->listener_, kReadReady, slot});
      break;
    case kReadReady: {
      const SimTime arrival = link->serialize_return(p.bytes);
      link->sim_.schedule_at(arrival + link->params_.response_overhead,
                             link->listener_, kReadDelivered, slot);
      break;
    }
    case kReadDelivered: {
      link->stats_.bytes_delivered += p.bytes;
      link->stats_.memory_read_latency_us.add(
          util::us_from_ps(link->sim_.now() - p.issue_time));
      link->release_tag_and_admit();
      const DoneFn done = p.done;
      link->pool_.release(slot);
      link->sim_.dispatch(done);
      break;
    }
    case kWriteAtDevice:
      p.device->write(p.addr, p.bytes,
                      sim::Callback{link->listener_, kWriteAccepted, slot});
      break;
    case kWriteAccepted:
      link->sim_.schedule_after(link->params_.response_overhead,
                                link->listener_, kWriteDelivered, slot);
      break;
    case kWriteDelivered: {
      link->stats_.bytes_written += p.bytes;
      link->release_tag_and_admit();
      const DoneFn done = p.done;
      link->pool_.release(slot);
      link->sim_.dispatch(done);
      break;
    }
    case kStorageDelivered: {
      link->stats_.bytes_delivered += p.bytes;
      const DoneFn done = p.done;
      link->pool_.release(slot);
      link->sim_.dispatch(done);
      break;
    }
  }
}

void PcieLink::upstream_transfer(std::uint32_t bytes, DoneFn done) {
  const SimTime arrival = serialize_upstream(bytes);
  stats_.bytes_written += bytes;
  sim_.schedule_at(arrival, done);
}

SimTime PcieLink::serialize_upstream(std::uint32_t bytes) {
  const SimTime start = std::max(upstream_busy_until_, sim_.now());
  const auto transfer =
      static_cast<SimTime>(static_cast<double>(bytes) * ps_per_byte_ + 0.5);
  upstream_busy_until_ = start + transfer;
  stats_.upstream_busy_time += transfer;
  return upstream_busy_until_;
}

SimTime PcieLink::serialize_return(std::uint32_t bytes) {
  const SimTime start = std::max(return_busy_until_, sim_.now());
  const auto transfer =
      static_cast<SimTime>(static_cast<double>(bytes) * ps_per_byte_ + 0.5);
  return_busy_until_ = start + transfer;
  stats_.return_busy_time += transfer;
  return return_busy_until_;
}

void PcieLink::storage_deliver(std::uint32_t bytes, DoneFn done) {
  ++stats_.storage_deliveries;
  const SimTime arrival = serialize_return(bytes);
  const std::uint32_t slot = pool_.acquire(
      PendingRead{nullptr, 0, bytes, /*is_write=*/false, done, 0});
  sim_.schedule_at(arrival + params_.response_overhead, listener_,
                   kStorageDelivered, slot);
}

}  // namespace cxlgraph::device

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
  const auto shortest_return = static_cast<SimTime>(ps_per_byte_ + 0.5);
  return_covers_request_ = params.response_overhead + shortest_return >
                           params.request_overhead;
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
  ++writes_in_flight_;
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
                     ReadyFn{link, {link->listener_, kReadReady, slot}});
      break;
    case kReadReady: {
      --link->held_returns_;
      const SimTime arrival =
          link->serialize_return(p.bytes, link->sim_.now());
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
                      ReadyFn{link, {link->listener_, kWriteAccepted, slot}});
      break;
    case kWriteAccepted:
      link->sim_.schedule_after(link->params_.response_overhead,
                                link->listener_, kWriteDelivered, slot);
      break;
    case kWriteDelivered: {
      --link->writes_in_flight_;
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

// A read's return is serialized when its device announces the ready time,
// and its kReadDelivered pushed then, instead of both waiting for a
// kReadReady at the ready time. That drops one event per read and leaves
// every simulated value as it was, for these reasons.
//
// Order. The return half is FIFO. Through kReadReady it took returns in
// event order: by ready time, then by push order, which is announcement
// order. Taken at the announcement, they go in announcement order. The
// two orders agree when announcements come in non-decreasing ready time,
// which is what announces_in_ready_order() promises: a CXL pool's kPops
// run in time order and all add one lead, and a HostDram's ready time
// grows with every call because its channel is serialized. A return
// starts at max(busy, ready time), as it did at the event, so every
// arrival is unchanged. That needs every return before it serialized
// already, so none may be held (held_returns_), and no storage delivery,
// serialized at its call, may come in between (carries_storage_). A
// return that breaks the promise throws std::logic_error; so would two
// ordered devices behind one link whose announcements interleave out of
// order (every stack the runtime builds has one device per link).
//
// Position. kReadDelivered lands at the same time D as before, but is
// pushed at the announcement rather than at the old kReadReady. So it can
// only pass events at D pushed from the announcement up to that kReadReady,
// each with a delay of at least D minus the ready time: the response hop
// plus one return transfer. None of the link's or the engine's events has
// such a delay: the
// request hop is shorter (return_covers_request_; the link holds every
// return otherwise), the engine's per-transaction hops are tens of ns
// (its step launch is pushed on a drained queue), and other deliveries
// never share D, because the return half hands each transfer its own
// arrival. Device events can (a kPop; a kIngress behind a long
// socket hop); they touch only device state and push at other
// picoseconds. A memory write's hops and acks can, too, so the link holds
// returns while a write is in flight. A write or storage transfer started
// while a return taken at its announcement is still ahead of its ready
// time falls outside this argument; the traversal engine never starts
// one then, because a step's write phase begins on a drained queue.
void PcieLink::ready_at(SimTime time, const sim::Callback& cb) {
  const std::uint32_t slot = cb.a;
  if (cb.opcode != kReadReady) {
    sim_.schedule_at(time, cb);  // a write's ack
    return;
  }
  const PendingRead& p = pool_[slot];
  if (!return_covers_request_ || carries_storage_ || writes_in_flight_ > 0 ||
      held_returns_ > 0 || !p.device->announces_in_ready_order()) {
    ++held_returns_;
    sim_.schedule_at(time, cb);
    return;
  }
  if (time < sim_.now() || time < last_return_ready_) {
    throw std::logic_error("PcieLink: device '" + p.device->caps().name +
                           "' announced a read out of ready order");
  }
  const SimTime arrival = serialize_return(p.bytes, time);
  sim_.schedule_at(arrival + params_.response_overhead, listener_,
                   kReadDelivered, slot);
}

void PcieLink::upstream_transfer(std::uint32_t bytes, DoneFn done) {
  carries_storage_ = true;
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

SimTime PcieLink::serialize_return(std::uint32_t bytes, SimTime ready) {
  last_return_ready_ = ready;
  const SimTime start = std::max(return_busy_until_, ready);
  const auto transfer =
      static_cast<SimTime>(static_cast<double>(bytes) * ps_per_byte_ + 0.5);
  return_busy_until_ = start + transfer;
  stats_.return_busy_time += transfer;
  return return_busy_until_;
}

void PcieLink::storage_deliver(std::uint32_t bytes, DoneFn done) {
  ++stats_.storage_deliveries;
  carries_storage_ = true;
  const SimTime arrival = serialize_return(bytes, sim_.now());
  const std::uint32_t slot = pool_.acquire(
      PendingRead{nullptr, 0, bytes, /*is_write=*/false, done, 0});
  sim_.schedule_at(arrival + params_.response_overhead, listener_,
                   kStorageDelivered, slot);
}

}  // namespace cxlgraph::device

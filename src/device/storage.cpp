#include "device/storage.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace cxlgraph::device {

StorageDrive::StorageDrive(Simulator& sim, PcieLink& link,
                           const StorageDriveParams& params)
    : sim_(sim),
      link_(link),
      params_(params),
      service_interval_(
          util::checked_interval_ps(params.iops, "StorageDrive: iops")),
      write_interval_(util::checked_interval_ps(params.write_iops,
                                                "StorageDrive: write_iops")),
      ps_per_byte_drive_link_(util::checked_ps_per_byte(
          params.drive_link_mbps, "StorageDrive: drive_link_mbps")) {
  if (params.queue_depth == 0 || params.max_transfer == 0) {
    throw std::invalid_argument("StorageDrive: bad parameters");
  }
  listener_ = sim_.add_listener(this, &StorageDrive::on_event);
}

void StorageDrive::submit(std::uint64_t addr, std::uint32_t bytes,
                          DoneFn done) {
  (void)addr;  // media layout does not affect random-read timing
  if (bytes == 0) {
    throw std::invalid_argument("StorageDrive: zero-byte transfer");
  }
  if (bytes > params_.max_transfer) {
    throw std::invalid_argument("StorageDrive: transfer exceeds max");
  }
  ++stats_.requests;
  stats_.bytes += bytes;
  const std::uint32_t slot =
      pool_.acquire(Pending{bytes, /*is_write=*/false, done});
  if (outstanding_ >= params_.queue_depth) {
    waiting_.push_back(slot);
    return;
  }
  ++outstanding_;
  stats_.peak_outstanding = std::max<std::uint64_t>(
      stats_.peak_outstanding, outstanding_);
  start(slot);
}

void StorageDrive::submit_write(std::uint64_t addr, std::uint32_t bytes,
                                DoneFn done) {
  (void)addr;
  if (bytes == 0) {
    throw std::invalid_argument("StorageDrive: zero-byte write");
  }
  if (bytes > params_.max_transfer) {
    throw std::invalid_argument("StorageDrive: write exceeds max transfer");
  }
  ++stats_.requests;
  stats_.bytes += bytes;
  stats_.written_bytes += bytes;
  const std::uint32_t slot =
      pool_.acquire(Pending{bytes, /*is_write=*/true, done});
  if (outstanding_ >= params_.queue_depth) {
    waiting_.push_back(slot);
    return;
  }
  ++outstanding_;
  stats_.peak_outstanding = std::max<std::uint64_t>(
      stats_.peak_outstanding, outstanding_);
  start_write(slot);
}

void StorageDrive::start_write(std::uint32_t slot) {
  // Pull the payload out of GPU memory over the shared link (upstream),
  // then program the media at the write service rate.
  link_.upstream_transfer(pool_[slot].bytes,
                          sim::Callback{listener_, kPayloadUp, slot});
}

void StorageDrive::finish(std::uint32_t slot) {
  if (!waiting_.empty()) {
    const std::uint32_t next = waiting_.front();
    waiting_.pop_front();
    if (pool_[next].is_write) {
      start_write(next);
    } else {
      start(next);
    }
  } else {
    --outstanding_;
  }
  const DoneFn done = pool_[slot].done;
  pool_.release(slot);
  sim_.dispatch(done);
}

void StorageDrive::start(std::uint32_t slot) {
  const Pending& p = pool_[slot];
  const SimTime submit_time = sim_.now();

  const auto transfer = static_cast<SimTime>(
      static_cast<double>(p.bytes) * ps_per_byte_drive_link_ + 0.5);

  // Controller pipeline: one request per service interval (IOPS cap).
  const SimTime service_start =
      std::max(controller_busy_until_,
               submit_time + params_.submission_overhead);
  controller_busy_until_ = service_start + service_interval_;
  const SimTime media_ready = controller_busy_until_ + params_.access_latency;

  // Per-drive link hop, then the shared GPU link delivers the data.
  const SimTime drive_link_start =
      std::max(drive_link_busy_until_, media_ready);
  drive_link_busy_until_ = drive_link_start + transfer;

  sim_.schedule_at(drive_link_busy_until_, listener_, kDataAtLink, slot);
}

void StorageDrive::on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                            std::uint32_t /*b*/) {
  auto* drive = static_cast<StorageDrive*>(self);
  const auto slot = static_cast<std::uint32_t>(a);
  switch (opcode) {
    case kDataAtLink: {
      drive->link_.storage_deliver(
          drive->pool_[slot].bytes, sim::Callback{drive->listener_, kDelivered, slot});
      break;
    }
    case kDelivered:
      // Completion frees the queue slot; admit a waiter.
      drive->finish(slot);
      break;
    case kPayloadUp: {
      const SimTime service_start =
          std::max(drive->controller_busy_until_,
                   drive->sim_.now() + drive->params_.submission_overhead);
      drive->controller_busy_until_ = service_start + drive->write_interval_;
      const SimTime programmed =
          drive->controller_busy_until_ + drive->params_.program_latency;
      drive->sim_.schedule_at(programmed, drive->listener_, kProgrammed,
                              slot);
      break;
    }
    case kProgrammed:
      drive->finish(slot);
      break;
  }
}

StorageArray::StorageArray(Simulator& sim, PcieLink& link,
                           const StorageDriveParams& params,
                           unsigned num_drives, std::uint32_t stripe_bytes)
    : sim_(sim), params_(params), stripe_bytes_(stripe_bytes) {
  if (num_drives == 0 || stripe_bytes == 0) {
    throw std::invalid_argument("StorageArray: bad parameters");
  }
  listener_ = sim_.add_listener(this, &StorageArray::on_event);
  drives_.reserve(num_drives);
  for (unsigned i = 0; i < num_drives; ++i) {
    drives_.push_back(std::make_unique<StorageDrive>(sim, link, params));
  }
}

void StorageArray::on_event(void* self, std::uint16_t /*opcode*/,
                            std::uint32_t a, std::uint32_t /*b*/) {
  auto* array = static_cast<StorageArray*>(self);
  const auto slot = static_cast<std::uint32_t>(a);
  if (--array->joins_[slot].remaining == 0) {
    const DoneFn done = array->joins_[slot].done;
    array->joins_.release(slot);
    array->sim_.dispatch(done);
  }
}

template <typename Submit>
void StorageArray::submit_split(std::uint64_t addr, std::uint32_t bytes,
                                DoneFn done, Submit&& submit_one) {
  // Reject empty requests up front: `addr + bytes - 1` would underflow and
  // the zero-byte submit would never complete (nothing to join on).
  if (bytes == 0) {
    throw std::invalid_argument("StorageArray: zero-byte request");
  }
  const std::uint64_t first_stripe = addr / stripe_bytes_;
  const std::uint64_t last_stripe = (addr + bytes - 1) / stripe_bytes_;
  if (first_stripe == last_stripe && bytes <= params_.max_transfer) {
    submit_one(*drives_[first_stripe % drives_.size()], addr, bytes, done);
    return;
  }
  // Straddling or oversized request: split at stripe boundaries AND at the
  // drive's max_transfer (a stripe can be wider than one transfer — XLFDD
  // stripes 8 kB but moves at most 2 kB per command), join on completion.
  std::uint64_t cursor = addr;
  std::uint32_t left = bytes;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> parts;
  while (left > 0) {
    const std::uint64_t stripe_end =
        (cursor / stripe_bytes_ + 1) * stripe_bytes_;
    const auto chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        {left, stripe_end - cursor, params_.max_transfer}));
    parts.emplace_back(cursor, chunk);
    cursor += chunk;
    left -= chunk;
  }
  const std::uint32_t join = joins_.acquire(
      Join{static_cast<std::uint32_t>(parts.size()), done});
  for (const auto& [part_addr, part_bytes] : parts) {
    submit_one(*drives_[(part_addr / stripe_bytes_) % drives_.size()],
               part_addr, part_bytes, sim::Callback{listener_, 0, join});
  }
}

void StorageArray::submit(std::uint64_t addr, std::uint32_t bytes,
                          DoneFn done) {
  submit_split(addr, bytes, done,
               [](StorageDrive& drive, std::uint64_t a, std::uint32_t n,
                  DoneFn d) { drive.submit(a, n, d); });
}

void StorageArray::submit_write(std::uint64_t addr, std::uint32_t bytes,
                                DoneFn done) {
  submit_split(addr, bytes, done,
               [](StorageDrive& drive, std::uint64_t a, std::uint32_t n,
                  DoneFn d) { drive.submit_write(a, n, d); });
}

}  // namespace cxlgraph::device

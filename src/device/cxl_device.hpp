#pragma once
/// \file cxl_device.hpp
/// Model of the paper's FPGA CXL.mem prototype (Sec. 4.2.1, Fig. 7) with
/// the adjustable latency bridge of Appendix A.
///
/// Pipeline per incoming read:
///   1. CXL port ingress latency.
///   2. Requests larger than the 64 B CXL transfer size are split into
///      flits; each flit consumes one device tag (the prototype handles 128
///      outstanding flits, i.e. 64 outstanding 128 B GPU reads, Sec. 4.2.2).
///   3. The single-channel onboard DRAM serializes flits (the ~5,700 MB/s
///      per-device cap observed in Fig. 10) and adds its access latency.
///   4. The latency bridge stamps each flit on arrival and releases it —
///      strictly in arrival order, the FPGA processes requests in order —
///      once `now >= stamp + added_latency`.
///   5. CXL port egress latency, then the GPU-link return path.
///
/// A CxlMemoryPool interleaves an address space across several devices, as
/// the evaluation system does with five FPGA cards via NUMA interleaving.

#include <deque>
#include <memory>
#include <vector>

#include "device/device.hpp"
#include "util/slot_pool.hpp"
#include "util/units.hpp"

namespace cxlgraph::device {

struct CxlDeviceParams {
  /// Latency-bridge added latency (the paper sweeps 0..3 us).
  SimTime added_latency = 0;
  /// CXL port ingress+egress (~0.5 us total: the paper's measured gap
  /// between host-DRAM and CXL(+0) pointer-chase latency, Fig. 9).
  SimTime port_ingress = util::ps_from_ns(250);
  SimTime port_egress = util::ps_from_ns(250);
  /// Onboard DRAM access latency (DDR4 1333 MHz on the dev kit).
  SimTime dram_latency = util::ps_from_ns(120);
  /// Single-channel effective bandwidth (Fig. 10 cap).
  double channel_bandwidth_mbps = 5'700.0;
  /// Maximum outstanding flits the device handles (Fig. 10 implies 128).
  std::uint32_t device_tags = 128;
  /// CXL transfer size; GPU reads are split into units of this (Sec. 3.5.3).
  std::uint32_t flit_bytes = 64;
  /// Extra UPI hop when the card sits on the socket away from the GPU
  /// (CXL 0 vs CXL 3 in Fig. 8/9).
  SimTime socket_hop = 0;
  /// Per-write coherency cost (paper Sec. 5: "for workloads involving
  /// write access there will be ... cache coherency" overheads). Models
  /// the snoop/ownership round the host must run before committing.
  SimTime write_coherency_overhead = util::ps_from_ns(100);
};

class CxlDevice final : public MemoryDevice {
 public:
  CxlDevice(Simulator& sim, const CxlDeviceParams& params,
            std::string name = "cxl-mem");

  void read(std::uint64_t addr, std::uint32_t bytes, ReadyFn ready) override;
  void write(std::uint64_t addr, std::uint32_t bytes,
             ReadyFn ready) override;
  bool announces_in_ready_order() const noexcept override { return true; }
  const DeviceCaps& caps() const noexcept override { return caps_; }
  const DeviceStats& stats() const noexcept override { return stats_; }

  const CxlDeviceParams& params() const noexcept { return params_; }
  /// Device tags held now, as seen by the event being dispatched.
  std::uint32_t flits_in_flight() const noexcept {
    std::uint32_t held = flits_in_flight_;
    for (const TagFree& f : recorded_frees_) {
      if (!retired(f)) break;
      --held;
    }
    return held;
  }

 private:
  /// A multi-flit read's join state, pooled; flits reference their parent
  /// by slot index (one flit == one event payload).
  struct ParentRead {
    std::uint32_t flits_remaining = 0;
    ReadyFn ready;
  };
  /// A write waiting out its coherency round before entering the read
  /// pipeline, pooled.
  struct PendingWrite {
    std::uint64_t addr = 0;
    std::uint32_t bytes = 0;
    ReadyFn ready;
  };

  enum Op : std::uint16_t {
    kIngress,        ///< request crossed the port; flits contend for tags
    kPop,            ///< latency bridge released b flits of one read
    kTagFree,        ///< flit crossed egress; its device tag frees
    kWriteCoherent,  ///< coherency round done; write enters the pipeline
  };

  /// A tag free recorded instead of scheduled as kTagFree: the time and
  /// sequence number that event would have had.
  struct TagFree {
    SimTime time;
    std::uint64_t seq;
  };

  static void on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                       std::uint32_t b);

  /// Takes a flit of the read being admitted now through the channel and
  /// the latency bridge; returns the time it pops.
  SimTime admit_flit();
  /// One popped flit of `parent`: frees its tag after egress, and the
  /// read's last flit announces the read's ready time.
  void pop_flit(std::uint32_t parent);
  /// True once the elided kTagFree of `f` would have run: it was due
  /// earlier, or now and pushed no later than the dispatching event.
  bool retired(const TagFree& f) const noexcept {
    return f.time < sim_.now() ||
           (f.time == sim_.now() && f.seq <= sim_.event_seq());
  }

  Simulator& sim_;
  CxlDeviceParams params_;
  double ps_per_byte_;
  std::uint16_t listener_ = 0;
  DeviceCaps caps_;
  DeviceStats stats_;

  util::SlotPool<ParentRead> parents_;
  util::SlotPool<PendingWrite> pending_writes_;
  /// Tags held, counting recorded frees not yet retired.
  std::uint32_t flits_in_flight_ = 0;
  std::deque<std::uint32_t> waiting_flits_;  // parent slot per queued flit
  /// Recorded tag frees in (time, seq) order, at most one per flit in
  /// flight; kIngress retires the due prefix before it admits.
  std::deque<TagFree> recorded_frees_;
  /// Flits of this device's kIngress events scheduled but not yet run.
  std::uint64_t ingress_flits_ = 0;
  /// socket_hop + port_ingress >= port_egress: every kIngress that runs
  /// before a tag free was scheduled before the kPop that frees it.
  bool ingress_covers_egress_ = false;
  SimTime channel_busy_until_ = 0;
  /// Latency-bridge FIFO ordering: pops are monotone in time.
  SimTime last_pop_time_ = 0;
};

/// Address-interleaved pool of CXL devices (NUMA page interleaving in the
/// paper's setup; 4 kB granularity here).
class CxlMemoryPool final : public MemoryDevice {
 public:
  CxlMemoryPool(Simulator& sim, const CxlDeviceParams& params,
                unsigned num_devices,
                std::uint32_t interleave_bytes = 4096);

  void read(std::uint64_t addr, std::uint32_t bytes, ReadyFn ready) override;
  void write(std::uint64_t addr, std::uint32_t bytes,
             ReadyFn ready) override;
  /// Member devices share parameters, so every announcement adds the same
  /// lead to the time of a kPop, and kPops run in time order.
  bool announces_in_ready_order() const noexcept override { return true; }
  const DeviceCaps& caps() const noexcept override { return caps_; }
  /// Aggregated over member devices (recomputed on each call).
  const DeviceStats& stats() const noexcept override;

  unsigned num_devices() const noexcept {
    return static_cast<unsigned>(devices_.size());
  }
  CxlDevice& device(unsigned i) { return *devices_[i]; }
  const CxlDevice& device(unsigned i) const { return *devices_[i]; }

 private:
  std::vector<std::unique_ptr<CxlDevice>> devices_;
  std::uint32_t interleave_bytes_;
  DeviceCaps caps_;
  mutable DeviceStats aggregate_stats_;
};

}  // namespace cxlgraph::device

#pragma once
/// \file engine.hpp
/// Warp-level GPU traversal engine.
///
/// Replays an access trace (one BFS level / SSSP iteration per step) the way
/// the GPU runtimes in the paper execute it: a grid of warps dynamically
/// grabs frontier vertices, expands each vertex's edge sublist into device
/// transactions via the configured access method, and issues them with
/// bounded per-warp memory-level parallelism. Steps are separated by a
/// kernel-launch barrier. Nothing about aggregate throughput is scripted:
/// the min(S·d, N_max·d/L, W) behaviour of Eq. 2 emerges from the device,
/// link, and warp models interacting.
///
/// The paper's concurrency discussion maps directly onto the parameters:
/// 2,048 running warps (Sec. 3.5.2) each with one outstanding read easily
/// exceed N_max = 768, so the PCIe tag budget — not the GPU — binds.

#include <cstdint>
#include <span>
#include <vector>

#include "access/method.hpp"
#include "util/units.hpp"

namespace cxlgraph::gpusim {

using sim::SimTime;
using sim::Simulator;

struct GpuParams {
  /// Concurrently running warps (the paper observes 2,048 in its BFS).
  std::uint32_t num_warps = 2048;
  /// Outstanding transactions per warp (memory-level parallelism).
  std::uint32_t warp_mlp = 1;
  /// Per-transaction post-completion processing (neighbor inspection,
  /// atomics on the frontier). Tiny relative to transfer costs.
  SimTime txn_process_overhead = util::ps_from_ns(20);
  /// Kernel-launch + frontier-swap cost per synchronized step.
  SimTime step_launch_overhead = util::ps_from_us(10);
};

struct StepResult {
  SimTime duration = 0;
  std::uint64_t sublist_reads = 0;
  std::uint64_t transactions = 0;
  std::uint64_t fetched_bytes = 0;
  std::uint64_t used_bytes = 0;
  // Write-side extension (zero for the paper's read-only workloads).
  std::uint64_t write_transactions = 0;
  std::uint64_t written_bytes = 0;       // amplified (alignment-rounded)
  std::uint64_t write_payload_bytes = 0; // requested by the workload
  std::uint64_t rmw_reads = 0;           // storage read-modify-write cycles
};

/// Pass 1 of a replay: the transactions an access method issues for each
/// read, in read order. Read i's transactions are
/// txns[read_begin[i], read_begin[i + 1]); an empty range is a full cache
/// hit. The expansion depends on read order alone, never on timing: warps
/// pull reads strictly in trace order, so the method's cache sees the same
/// sequence whichever warp pulls a read.
struct ReadExpansion {
  std::vector<access::Transaction> txns;
  std::vector<std::uint64_t> read_begin{0};
};

/// The expansion of every read of `trace`, steps in order.
ReadExpansion expand_trace(access::AccessMethod& method,
                           const algo::AccessTrace& trace);

struct EngineResult {
  SimTime total_time = 0;
  std::uint64_t used_bytes = 0;     // E
  std::uint64_t fetched_bytes = 0;  // D
  std::uint64_t transactions = 0;
  std::uint64_t sublist_reads = 0;
  std::uint64_t write_transactions = 0;
  std::uint64_t written_bytes = 0;
  std::uint64_t write_payload_bytes = 0;
  std::uint64_t rmw_reads = 0;
  std::vector<StepResult> steps;

  double raf() const noexcept {
    return used_bytes == 0 ? 0.0
                           : static_cast<double>(fetched_bytes) /
                                 static_cast<double>(used_bytes);
  }
  double avg_transaction_bytes() const noexcept {
    return transactions == 0 ? 0.0
                             : static_cast<double>(fetched_bytes) /
                                   static_cast<double>(transactions);
  }
  double throughput_mbps() const noexcept {
    return util::mbps_from(fetched_bytes, total_time);
  }
  double runtime_sec() const noexcept {
    return util::sec_from_ps(total_time);
  }
};

class TraversalEngine {
 public:
  TraversalEngine(Simulator& sim, access::AccessMethod& method,
                  access::MemoryBackend& backend, const GpuParams& params);

  /// Replays the whole trace; returns aggregate and per-step results.
  /// Runs the simulator to completion for each step (barrier semantics).
  /// Each step's reads are expanded through the access method into one
  /// reused buffer before the step runs.
  EngineResult run(const algo::AccessTrace& trace);

  /// Same replay from `expansion`, expand_trace's result for this trace
  /// and an access method built like this engine's; the engine's own
  /// method then expands nothing. Bit-identical to run(trace).
  EngineResult run(const algo::AccessTrace& trace,
                   const ReadExpansion& expansion);

 private:
  /// One warp's execution state: the transaction range of its current
  /// read and how far it has issued into it.
  struct WarpState {
    std::uint64_t next_txn = 0;
    std::uint64_t end_txn = 0;
    std::uint32_t in_flight = 0;
  };

  /// A coalesced write transaction plus how many of its bytes carry
  /// payload (the rest is alignment rounding; on storage paths a
  /// partially-valid transaction needs a read-modify-write cycle).
  struct WriteTxn {
    access::Transaction txn;
    std::uint64_t valid_bytes = 0;
  };

  enum Op : std::uint16_t {
    kStepLaunch,      ///< kernel launched; all warps start pulling work
    kReadDone,        ///< a read transaction landed (a = warp index)
    kReadProcessed,   ///< post-completion processing done; refill the warp
    kWriteDone,       ///< a write transaction completed (a = warp index)
    kWriteProcessed,  ///< write bookkeeping done; refill the warp
    kRmwReadDone,     ///< RMW read landed (a = warp, b = write index)
  };

  static void on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                       std::uint32_t b);

  /// Keeps the warp's outstanding-transaction budget full. A warp whose
  /// expansion is exhausted pulls the next frontier vertex from the shared
  /// work queue (dynamic load balancing, as GPU kernels do via atomic
  /// work-list indices). Plain loops over pooled state — no recursion,
  /// no captured closures.
  void pump_reads(std::uint32_t warp_index);
  void pump_writes(std::uint32_t warp_index);
  void coalesce_writes(std::span<const algo::WriteRef> writes,
                       std::uint32_t alignment, std::uint64_t cap);
  /// Both run()s: replays every step, from `whole` when it is set and from
  /// a per-step expansion otherwise.
  EngineResult replay(const algo::AccessTrace& trace,
                      const ReadExpansion* whole);

  Simulator& sim_;
  access::AccessMethod& method_;
  access::MemoryBackend& backend_;
  GpuParams params_;
  std::uint16_t listener_ = 0;

  // Per-step replay state (reset at each step; buffers reuse capacity).
  std::vector<WarpState> warps_;
  std::vector<WriteTxn> wtxns_;
  ReadExpansion step_expansion_;
  /// The step's transactions, and read i's range start, i <= num_reads_.
  const access::Transaction* txns_ = nullptr;
  const std::uint64_t* read_begin_ = nullptr;
  std::size_t num_reads_ = 0;
  std::size_t next_read_ = 0;
  std::size_t next_write_ = 0;
  bool storage_writes_ = false;
  StepResult step_result_;
};

}  // namespace cxlgraph::gpusim

#include "gpusim/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace cxlgraph::gpusim {

namespace {

/// Appends the expansions of `reads`, in order, to `out`.
void expand_reads(access::AccessMethod& method,
                  std::span<const algo::SublistRef> reads,
                  ReadExpansion& out) {
  for (const algo::SublistRef& read : reads) {
    method.expand(read, out.txns);
    out.read_begin.push_back(out.txns.size());
  }
}

}  // namespace

TraversalEngine::TraversalEngine(Simulator& sim,
                                 access::AccessMethod& method,
                                 access::MemoryBackend& backend,
                                 const GpuParams& params)
    : sim_(sim), method_(method), backend_(backend), params_(params) {
  if (params.num_warps == 0 || params.warp_mlp == 0) {
    throw std::invalid_argument("TraversalEngine: bad GPU parameters");
  }
  listener_ = sim_.add_listener(this, &TraversalEngine::on_event);
  warps_.resize(params_.num_warps);
}

void TraversalEngine::on_event(void* self, std::uint16_t opcode,
                               std::uint32_t a, std::uint32_t b) {
  auto* engine = static_cast<TraversalEngine*>(self);
  switch (opcode) {
    case kStepLaunch:
      for (std::uint32_t w = 0; w < engine->warps_.size(); ++w) {
        engine->pump_reads(w);
      }
      break;
    case kReadDone:
      engine->sim_.schedule_after(engine->params_.txn_process_overhead,
                                  engine->listener_, kReadProcessed, a);
      break;
    case kReadProcessed:
      --engine->warps_[a].in_flight;
      engine->pump_reads(a);
      break;
    case kRmwReadDone:
      // Partially-valid unit on flash: the read half landed; program the
      // full unit now.
      engine->backend_.issue_write(
          engine->wtxns_[b].txn,
          sim::Callback{engine->listener_, kWriteDone, a});
      break;
    case kWriteDone:
      engine->sim_.schedule_after(engine->params_.txn_process_overhead,
                                  engine->listener_, kWriteProcessed, a);
      break;
    case kWriteProcessed:
      --engine->warps_[a].in_flight;
      engine->pump_writes(a);
      break;
  }
}

void TraversalEngine::pump_reads(std::uint32_t warp_index) {
  WarpState& w = warps_[warp_index];
  while (w.in_flight < params_.warp_mlp) {
    // An empty range is a full cache hit: the sublist costs no external
    // traffic, and the warp pulls the next read.
    while (w.next_txn == w.end_txn) {
      if (next_read_ == num_reads_) return;  // work drained; warp idles
      w.next_txn = read_begin_[next_read_];
      w.end_txn = read_begin_[++next_read_];
    }
    const access::Transaction& txn = txns_[w.next_txn++];
    ++w.in_flight;
    ++step_result_.transactions;
    step_result_.fetched_bytes += txn.bytes;
    backend_.issue(txn, sim::Callback{listener_, kReadDone, warp_index});
  }
}

void TraversalEngine::pump_writes(std::uint32_t warp_index) {
  WarpState& w = warps_[warp_index];
  while (w.in_flight < params_.warp_mlp && next_write_ < wtxns_.size()) {
    const auto write_index = static_cast<std::uint32_t>(next_write_++);
    const WriteTxn& wt = wtxns_[write_index];
    ++w.in_flight;
    ++step_result_.write_transactions;
    step_result_.written_bytes += wt.txn.bytes;
    step_result_.write_payload_bytes += wt.valid_bytes;
    if (storage_writes_ && wt.valid_bytes < wt.txn.bytes) {
      // Partially-valid unit on flash: read-modify-write.
      ++step_result_.rmw_reads;
      step_result_.fetched_bytes += wt.txn.bytes;
      backend_.issue(wt.txn, sim::Callback{listener_, kRmwReadDone,
                                           warp_index, write_index});
    } else {
      backend_.issue_write(wt.txn,
                           sim::Callback{listener_, kWriteDone, warp_index});
    }
  }
}

ReadExpansion expand_trace(access::AccessMethod& method,
                           const algo::AccessTrace& trace) {
  ReadExpansion out;
  out.txns.reserve(trace.read_arena.size());
  out.read_begin.reserve(trace.read_arena.size() + 1);
  expand_reads(method, trace.read_arena, out);
  return out;
}

EngineResult TraversalEngine::run(const algo::AccessTrace& trace) {
  return replay(trace, nullptr);
}

EngineResult TraversalEngine::run(const algo::AccessTrace& trace,
                                  const ReadExpansion& expansion) {
  if (expansion.read_begin.size() != trace.read_arena.size() + 1) {
    throw std::invalid_argument(
        "TraversalEngine: expansion is not of this trace");
  }
  return replay(trace, &expansion);
}

EngineResult TraversalEngine::replay(const algo::AccessTrace& trace,
                                     const ReadExpansion* whole) {
  EngineResult result;
  const SimTime run_start = sim_.now();

  for (std::size_t s = 0; s < trace.num_steps(); ++s) {
    const auto step_reads = trace.step_reads(s);
    const auto step_writes = trace.step_writes(s);
    const SimTime step_start = sim_.now();

    if (whole != nullptr) {
      txns_ = whole->txns.data();
      read_begin_ = whole->read_begin.data() +
                    (s == 0 ? 0 : trace.step_ends[s - 1].read_end);
    } else {
      step_expansion_.txns.clear();
      step_expansion_.read_begin.resize(1);
      expand_reads(method_, step_reads, step_expansion_);
      txns_ = step_expansion_.txns.data();
      read_begin_ = step_expansion_.read_begin.data();
    }
    num_reads_ = step_reads.size();
    next_read_ = 0;
    step_result_ = StepResult{};
    // Warps pull every read before the step drains, so its read counts
    // are known up front.
    step_result_.sublist_reads = num_reads_;
    for (const algo::SublistRef& read : step_reads) {
      step_result_.used_bytes += read.byte_len;
    }
    for (WarpState& w : warps_) w = WarpState{};

    // Kernel launch, then all warps start pulling work; the simulator run
    // is the step barrier (the step is done when no events remain).
    sim_.schedule_after(params_.step_launch_overhead, listener_,
                        kStepLaunch);
    sim_.run();

    // Write phase (Sec.-5 extension): result write-back after the level's
    // reads. Coalesced write transactions fan out over the same warps.
    if (!step_writes.empty()) {
      // Memory-path writes cap at one GPU cache line; storage-path writes
      // may carry up to the alignment unit (>=128 for coarse lines).
      storage_writes_ = backend_.needs_read_modify_write();
      const std::uint64_t cap =
          storage_writes_
              ? std::max<std::uint64_t>(method_.alignment(), 2048)
              : access::kGpuCacheLineBytes;
      coalesce_writes(step_writes, method_.alignment(), cap);
      next_write_ = 0;
      for (WarpState& w : warps_) w.in_flight = 0;
      for (std::uint32_t w = 0; w < warps_.size(); ++w) pump_writes(w);
      sim_.run();
    }

    step_result_.duration = sim_.now() - step_start;
    result.steps.push_back(step_result_);
    result.used_bytes += step_result_.used_bytes;
    result.fetched_bytes += step_result_.fetched_bytes;
    result.transactions += step_result_.transactions;
    result.sublist_reads += step_result_.sublist_reads;
    result.write_transactions += step_result_.write_transactions;
    result.written_bytes += step_result_.written_bytes;
    result.write_payload_bytes += step_result_.write_payload_bytes;
    result.rmw_reads += step_result_.rmw_reads;
  }

  result.total_time = sim_.now() - run_start;
  return result;
}

/// Rounds each write to the access alignment and merges adjacent/overlapping
/// rounded ranges up to `cap` bytes per transaction. Writes arrive sorted
/// (trace steps are vertex-ID ordered), so one forward pass suffices. The
/// output buffer is pooled across steps.
void TraversalEngine::coalesce_writes(
    std::span<const algo::WriteRef> writes, std::uint32_t alignment,
    std::uint64_t cap) {
  wtxns_.clear();
  for (const algo::WriteRef& w : writes) {
    const std::uint64_t start = w.addr / alignment * alignment;
    const std::uint64_t end =
        (w.addr + w.bytes + alignment - 1) / alignment * alignment;
    if (!wtxns_.empty()) {
      WriteTxn& last = wtxns_.back();
      const std::uint64_t last_end = last.txn.addr + last.txn.bytes;
      if (start <= last_end && end - last.txn.addr <= cap) {
        if (end > last_end) {
          last.txn.bytes = static_cast<std::uint32_t>(end - last.txn.addr);
        }
        last.valid_bytes += w.bytes;
        continue;
      }
    }
    WriteTxn wt;
    wt.txn.addr = start;
    wt.txn.bytes = static_cast<std::uint32_t>(end - start);
    wt.valid_bytes = w.bytes;
    wtxns_.push_back(wt);
  }
}

}  // namespace cxlgraph::gpusim

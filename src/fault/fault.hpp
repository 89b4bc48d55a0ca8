#pragma once
/// \file fault.hpp
/// Deterministic, default-off fault injection for the serving path.
///
/// A FaultSpec describes *how much* chaos to inject — replica crashes,
/// transient I/O error-burst windows, interconnect degradation flaps —
/// and FaultPlan expands it into a time-sorted schedule of typed
/// FaultEvents. Every event field is a pure function of (seed, kind,
/// index), the same contract WorkloadSpec gives query arrivals: no
/// clock reads, no shared RNG stream, so two plans built from equal
/// specs are equal and fault runs reproduce bit-for-bit across machines
/// and profiling thread counts.
///
/// Everything defaults OFF. A disabled spec schedules zero events and
/// installs zero hooks, keeping the default serving path bit-identical
/// to a build without this layer (the bench_simcore goldens pin that).
/// Faults stretch time or force retries; they never silently drop
/// bytes — a request that exhausts its transient-error retries still
/// delivers after paying the recovery penalty, and work discarded by a
/// crash is moved to an explicit lost-work ledger so the serving
/// layer's byte-conservation check extends exactly.

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace cxlgraph::fault {

enum class FaultKind : std::uint8_t {
  kReplicaCrash,  ///< a replica dies (permanent, or restarts after a delay)
  kIoErrorBurst,  ///< window of per-request transient I/O errors
  kLinkDegrade,   ///< interconnect bandwidth derate / outage window
};

/// How much chaos to inject, all defaults off. Counts say how many
/// events of each kind the plan draws; their times are uniform over
/// [0, horizon_sec) and their targets uniform over the initial fleet,
/// both hashed from (seed, kind, index).
struct FaultSpec {
  std::uint64_t seed = 0xfa017u;
  /// Faults are drawn over [0, horizon_sec) of simulated time. Must be
  /// > 0 whenever any count below is.
  double horizon_sec = 0.0;

  /// Replica crashes. restart_sec > 0 makes each crash a crash-restart
  /// (the replica revives after that delay); 0 is permanent — with the
  /// elastic controller enabled a replacement replica joins after
  /// provision_sec (0 falls back to the controller's check interval).
  std::uint32_t crashes = 0;
  double restart_sec = 0.0;
  double provision_sec = 0.0;

  /// Transient I/O error-burst windows: inside a window each quantum on
  /// the targeted replica draws errors at io_error_rate; every failed
  /// attempt retries after a linear backoff (attempt k waits
  /// k * io_retry_us), up to io_max_retries per quantum. Bytes are
  /// never dropped — only delayed.
  std::uint32_t io_bursts = 0;
  double io_burst_sec = 0.0;
  double io_error_rate = 0.0;
  double io_retry_us = 50.0;
  std::uint32_t io_max_retries = 3;

  /// Link degradation windows: the fleet interconnect serves at
  /// flap_derate of its rated bandwidth for flap_sec (1 = no effect,
  /// 0 = full outage — quanta stall until the window closes).
  std::uint32_t link_flaps = 0;
  double flap_sec = 0.0;
  double flap_derate = 1.0;

  /// Crash recovery policy for in-flight queries: a query aborted by a
  /// crash re-enters the queue after attempt * retry_backoff_us, until
  /// max_query_retries is exhausted — then it is a `failed` terminal
  /// disposition (alongside shed).
  std::uint32_t max_query_retries = 2;
  double retry_backoff_us = 50.0;

  bool enabled() const noexcept {
    return crashes > 0 || io_bursts > 0 || link_flaps > 0;
  }
};

/// Throws std::invalid_argument with a descriptive message for an
/// inconsistent spec (missing horizon, rates outside [0, 1], negative
/// delays, a retry backoff whose product with max_query_retries does not
/// fit in picoseconds). A disabled spec is valid when its retry policy
/// is.
void validate(const FaultSpec& spec);

/// Parses the CLI/bench `--faults` grammar: comma-separated key=value
/// pairs, e.g. "crashes=2,horizon-ms=10,restart-ms=2,io-bursts=1,
/// io-burst-ms=3,io-rate=0.3,link-flaps=1,flap-ms=1,flap-derate=0.5".
/// Keys: seed, horizon-ms, crashes, restart-ms, provision-ms, io-bursts,
/// io-burst-ms, io-rate, io-retry-us, io-max-retries, link-flaps,
/// flap-ms, flap-derate, query-retries, backoff-us. Throws on unknown
/// keys or malformed values; the result is validated.
FaultSpec parse_fault_spec(const std::string& spec);

/// One scheduled fault. `target` is a replica-index hint (taken modulo
/// the live fleet at delivery); `duration` is the window length (or the
/// restart delay for crashes, 0 = permanent); `magnitude` carries the
/// error rate (bursts) or the bandwidth derate factor (flaps).
struct FaultEvent {
  FaultKind kind = FaultKind::kReplicaCrash;
  util::SimTime at = 0;
  std::uint32_t target = 0;
  util::SimTime duration = 0;
  double magnitude = 0.0;
};

/// The expanded schedule: a pure function of (spec, replicas), sorted
/// by (time, kind, target). Empty when the spec is disabled.
class FaultPlan {
 public:
  FaultPlan() = default;
  FaultPlan(const FaultSpec& spec, std::uint32_t replicas);

  /// True when the plan carries an enabled spec — the serving layer
  /// installs its fault seams iff this holds. A spec with events but
  /// zero rates still counts as active (the seams run, change nothing,
  /// and the records stay identical to a no-plan run).
  bool active() const noexcept { return spec_.enabled(); }
  const FaultSpec& spec() const noexcept { return spec_; }
  const std::vector<FaultEvent>& events() const noexcept { return events_; }

  /// Deterministic per-draw error coin: a pure function of (seed,
  /// stream, draw, rate). Streams keep replicas from correlating; the
  /// draw counter advances per attempt.
  static bool error_draw(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t draw, double rate) noexcept;

 private:
  FaultSpec spec_;
  std::vector<FaultEvent> events_;
};

}  // namespace cxlgraph::fault

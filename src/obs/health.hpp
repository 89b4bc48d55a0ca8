#pragma once
/// \file health.hpp
/// Online health monitor: streaming detectors over the observability
/// feeds the serving layer already produces, folding them into a
/// deterministic, sim-time-stamped incident log.
///
/// Detectors:
///  - *saturation*: per-replica waiting depth sustained above the
///    scale-up threshold (the same comparison the elastic controller
///    acts on, so its decisions can consume the verdict bit-for-bit);
///  - *underload*: depth below the scale-down threshold;
///  - *queue trend*: N consecutive strictly-rising depth observations —
///    an early-warning ramp signal that fires before saturation does;
///  - *throttle*: thermal-throttle onset/exit per replica;
///  - *slo violations*: violation rate over a sliding completion window.
///
/// The monitor is pure bookkeeping — it never schedules events, reads
/// clocks, or mutates simulation state — so feeding it is identity-safe
/// and an incident log is a deterministic function of the run. Each
/// incident records open/close times, severity (escalating with the
/// observed peak), the threshold crossed, and evidence (peak / last
/// value / observation count).

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace cxlgraph::obs {

enum class IncidentKind : std::uint8_t {
  kSaturation,
  kUnderload,
  kQueueTrend,
  kThrottle,
  kSloViolations,
  kReplicaDown,    ///< replica crashed (fault layer)
  kIoErrorBurst,   ///< transient I/O error window on a replica
  kLinkDegraded,   ///< fleet interconnect derate / outage window
};

enum class IncidentSeverity : std::uint8_t { kInfo, kWarning, kCritical };

const char* to_string(IncidentKind kind) noexcept;
const char* to_string(IncidentSeverity severity) noexcept;

struct Incident {
  std::uint32_t id = 0;  ///< sequential by open order
  IncidentKind kind = IncidentKind::kSaturation;
  IncidentSeverity severity = IncidentSeverity::kInfo;
  std::string subject;           ///< "fleet" or "replica<k>"
  util::SimTime opened_ps = 0;
  util::SimTime closed_ps = 0;   ///< meaningful only when !open
  bool open = true;              ///< still open at end of run
  double threshold = 0.0;        ///< detector threshold that was crossed
  double peak = 0.0;             ///< worst value observed while open
  double last = 0.0;             ///< value at the most recent observation
  std::uint64_t observations = 0;  ///< evidence: samples folded in

  friend bool operator==(const Incident&, const Incident&) = default;
};

struct HealthConfig {
  double depth_high = 8.0;  ///< saturation: per-replica waiting depth >
  double depth_low = 1.0;   ///< underload: per-replica waiting depth <
  std::uint32_t trend_run = 4;    ///< consecutive rising depth samples
  std::uint32_t slo_window = 16;  ///< completions per violation window
  double slo_rate = 0.5;          ///< violation fraction that opens
};

class HealthMonitor {
 public:
  /// What a depth observation means under the configured thresholds;
  /// the elastic controller keys its grow/shrink decision off this.
  enum class DepthVerdict : std::uint8_t {
    kNominal,
    kOverloaded,
    kUnderloaded,
  };

  HealthMonitor() = default;
  explicit HealthMonitor(const HealthConfig& config) : config_(config) {}

  /// Feeds one per-replica mean waiting-depth sample (the elastic
  /// controller's decision variable) and returns its verdict. Opens,
  /// extends, or closes the saturation / underload / trend incidents.
  DepthVerdict observe_depth(util::SimTime now, double depth_per_replica);

  /// Feeds a thermal-throttle state change for one replica.
  void observe_throttle(util::SimTime now, std::uint32_t replica,
                        bool throttled);

  /// Feeds one query completion (violated = finished past its SLO).
  void observe_completion(util::SimTime now, bool slo_violated);

  /// Feeds a replica crash (down = true) or recovery (down = false).
  /// Returns the id of the kReplicaDown incident opened / closed, or -1
  /// when a recovery arrives with no matching open incident — this is
  /// what crash-triggered scaling events link against.
  std::int64_t observe_crash(util::SimTime now, std::uint32_t replica,
                             bool down);

  /// Feeds an I/O error-burst window edge for one replica; `rate` is
  /// the per-request error probability inside the window.
  void observe_io_burst(util::SimTime now, std::uint32_t replica, bool active,
                        double rate);

  /// Folds `errors` observed transient I/O errors into the replica's
  /// open burst incident (opens one if the window edge was missed).
  void observe_io_errors(util::SimTime now, std::uint32_t replica,
                         std::uint32_t errors);

  /// Feeds a link degradation window edge; `factor` is the remaining
  /// bandwidth fraction (0 = outage).
  void observe_link(util::SimTime now, bool degraded, double factor);

  /// Id of the currently-open incident of `kind` (fleet-scoped kinds
  /// only), or -1 — this is what scaling events link against.
  std::int64_t open_incident(IncidentKind kind) const noexcept;

  const std::vector<Incident>& incidents() const noexcept {
    return incidents_;
  }
  const HealthConfig& config() const noexcept { return config_; }

 private:
  /// `replica` of a fleet-wide incident (subject "fleet").
  static constexpr std::uint32_t kFleet = ~std::uint32_t{0};

  /// Drives the incident whose index `slot` holds (-1 when none is open):
  /// when `active`, opens one of `kind` (building its subject only then)
  /// or folds `value` into the open one; otherwise closes it.
  void raise(std::int64_t& slot, bool active, IncidentKind kind,
             std::uint32_t replica, util::SimTime now, double threshold,
             double value);
  /// `replica`'s slot in a per-replica table, grown with closed slots.
  static std::int64_t& slot_of(std::vector<std::int64_t>& table,
                               std::uint32_t replica);

  HealthConfig config_;
  std::vector<Incident> incidents_;

  // Index of the open incident per fleet-scoped kind, -1 when none.
  std::int64_t open_saturation_ = -1;
  std::int64_t open_underload_ = -1;
  std::int64_t open_trend_ = -1;
  std::int64_t open_slo_ = -1;
  std::int64_t open_link_ = -1;
  std::vector<std::int64_t> open_throttle_;  ///< per replica
  std::vector<std::int64_t> open_down_;      ///< per replica
  std::vector<std::int64_t> open_io_;        ///< per replica

  double prev_depth_ = 0.0;
  bool have_prev_depth_ = false;
  std::uint32_t rising_run_ = 0;

  std::vector<bool> slo_ring_;
  std::size_t slo_pos_ = 0;
  std::uint32_t slo_violations_ = 0;
  bool slo_window_full_ = false;
};

/// Serializes one incident as a JSON object (integer-ps timestamps, so
/// the bytes are exact and runs diff cleanly).
void write_incident_json(std::ostream& os, const Incident& incident);

}  // namespace cxlgraph::obs

#include "obs/health.hpp"

#include "obs/metrics.hpp"

namespace cxlgraph::obs {

const char* to_string(IncidentKind kind) noexcept {
  switch (kind) {
    case IncidentKind::kSaturation: return "saturation";
    case IncidentKind::kUnderload: return "underload";
    case IncidentKind::kQueueTrend: return "queue-trend";
    case IncidentKind::kThrottle: return "throttle";
    case IncidentKind::kSloViolations: return "slo-violations";
    case IncidentKind::kReplicaDown: return "replica-down";
    case IncidentKind::kIoErrorBurst: return "io-error-burst";
    case IncidentKind::kLinkDegraded: return "link-degraded";
  }
  return "?";
}

const char* to_string(IncidentSeverity severity) noexcept {
  switch (severity) {
    case IncidentSeverity::kInfo: return "info";
    case IncidentSeverity::kWarning: return "warning";
    case IncidentSeverity::kCritical: return "critical";
  }
  return "?";
}

namespace {

/// Consecutive strictly-rising depth samples that open a trend incident.
constexpr std::uint32_t kTrendRun = 4;
/// Violation fraction of a full window above which an incident opens.
constexpr double kSloRate = 0.5;

IncidentSeverity base_severity(IncidentKind kind) noexcept {
  switch (kind) {
    case IncidentKind::kSaturation: return IncidentSeverity::kWarning;
    case IncidentKind::kUnderload: return IncidentSeverity::kInfo;
    case IncidentKind::kQueueTrend: return IncidentSeverity::kInfo;
    case IncidentKind::kThrottle: return IncidentSeverity::kWarning;
    case IncidentKind::kSloViolations: return IncidentSeverity::kWarning;
    case IncidentKind::kReplicaDown: return IncidentSeverity::kCritical;
    case IncidentKind::kIoErrorBurst: return IncidentSeverity::kWarning;
    case IncidentKind::kLinkDegraded: return IncidentSeverity::kWarning;
  }
  return IncidentSeverity::kInfo;
}

}  // namespace

std::int64_t& HealthMonitor::slot_of(std::vector<std::int64_t>& table,
                                     std::uint32_t replica) {
  if (table.size() <= replica) table.resize(replica + 1, -1);
  return table[replica];
}

void HealthMonitor::raise(std::int64_t& slot, bool active, IncidentKind kind,
                          std::uint32_t replica, util::SimTime now,
                          double threshold, double value) {
  if (!active) {
    if (slot >= 0) {
      Incident& inc = incidents_[static_cast<std::size_t>(slot)];
      inc.open = false;
      inc.closed_ps = now;
      slot = -1;
    }
    return;
  }
  if (slot < 0) {
    Incident inc;
    inc.id = static_cast<std::uint32_t>(incidents_.size());
    inc.kind = kind;
    inc.severity = base_severity(kind);
    inc.subject =
        replica == kFleet ? "fleet" : "replica" + std::to_string(replica);
    inc.opened_ps = now;
    inc.threshold = threshold;
    inc.peak = value;
    inc.last = value;
    inc.observations = 1;
    slot = static_cast<std::int64_t>(incidents_.size());
    incidents_.push_back(std::move(inc));
    return;
  }
  Incident& inc = incidents_[static_cast<std::size_t>(slot)];
  inc.last = value;
  if (value > inc.peak) inc.peak = value;
  ++inc.observations;
  // Severity escalates on evidence: 50% past the threshold upgrades the
  // incident one level (saturation / slo-rate kinds only — the others
  // have no meaningful magnitude).
  if (inc.threshold > 0.0 && inc.peak >= 1.5 * inc.threshold &&
      (inc.kind == IncidentKind::kSaturation ||
       inc.kind == IncidentKind::kSloViolations)) {
    inc.severity = IncidentSeverity::kCritical;
  }
}

HealthMonitor::DepthVerdict HealthMonitor::observe_depth(
    util::SimTime now, double depth_per_replica, double depth_high,
    double depth_low) {
  // The verdict reproduces the elastic controller's original threshold
  // comparisons exactly (strict >, strict <) so consuming it is
  // decision-identical to the private check it replaces.
  DepthVerdict verdict = DepthVerdict::kNominal;
  if (depth_per_replica > depth_high) {
    verdict = DepthVerdict::kOverloaded;
  } else if (depth_per_replica < depth_low) {
    verdict = DepthVerdict::kUnderloaded;
  }
  raise(open_saturation_, verdict == DepthVerdict::kOverloaded,
        IncidentKind::kSaturation, kFleet, now, depth_high,
        depth_per_replica);
  raise(open_underload_, verdict == DepthVerdict::kUnderloaded,
        IncidentKind::kUnderload, kFleet, now, depth_low,
        depth_per_replica);

  // Trend detector: a run of strictly-rising samples flags a ramp
  // before the absolute threshold trips.
  if (have_prev_depth_ && depth_per_replica > prev_depth_) {
    ++rising_run_;
  } else {
    rising_run_ = 0;
  }
  prev_depth_ = depth_per_replica;
  have_prev_depth_ = true;
  raise(open_trend_, rising_run_ >= kTrendRun, IncidentKind::kQueueTrend,
        kFleet, now, static_cast<double>(kTrendRun), depth_per_replica);
  return verdict;
}

void HealthMonitor::observe_throttle(util::SimTime now, std::uint32_t replica,
                                     bool throttled) {
  raise(slot_of(open_throttle_, replica), throttled, IncidentKind::kThrottle,
        replica, now, 0.0, 1.0);
}

void HealthMonitor::observe_completion(util::SimTime now, bool slo_violated) {
  if (slo_ring_[slo_pos_]) --slo_violations_;
  slo_ring_[slo_pos_] = slo_violated;
  if (slo_violated) ++slo_violations_;
  if (++slo_pos_ == kSloWindow) {
    slo_pos_ = 0;
    slo_window_full_ = true;
  }
  if (!slo_window_full_) return;

  const double rate = static_cast<double>(slo_violations_) /
                      static_cast<double>(kSloWindow);
  raise(open_slo_, rate > kSloRate, IncidentKind::kSloViolations, kFleet,
        now, kSloRate, rate);
}

std::int64_t HealthMonitor::observe_crash(util::SimTime now,
                                          std::uint32_t replica, bool down) {
  std::int64_t& slot = slot_of(open_down_, replica);
  // A recovery reports the incident it closes; a crash, the one it opens
  // or extends.
  const std::int64_t closing = slot;
  raise(slot, down, IncidentKind::kReplicaDown, replica, now, 0.0, 1.0);
  const std::int64_t index = down ? slot : closing;
  return index < 0 ? -1 : incidents_[static_cast<std::size_t>(index)].id;
}

void HealthMonitor::observe_io_burst(util::SimTime now, std::uint32_t replica,
                                     bool active, double rate) {
  std::int64_t& slot = slot_of(open_io_, replica);
  // The window edge opens the incident with 0 errors seen; an overlapping
  // window's edge folds its rate into the open one.
  raise(slot, active, IncidentKind::kIoErrorBurst, replica, now, rate,
        slot < 0 ? 0.0 : rate);
}

void HealthMonitor::observe_io_errors(util::SimTime now, std::uint32_t replica,
                                      std::uint32_t errors) {
  // Opens an incident if the window edge was missed.
  raise(slot_of(open_io_, replica), true, IncidentKind::kIoErrorBurst,
        replica, now, 0.0, static_cast<double>(errors));
}

void HealthMonitor::observe_link(util::SimTime now, bool degraded,
                                 double factor) {
  raise(open_link_, degraded, IncidentKind::kLinkDegraded, kFleet, now,
        factor, factor);
}

std::int64_t HealthMonitor::open_incident(IncidentKind kind) const noexcept {
  std::int64_t index = -1;
  switch (kind) {
    case IncidentKind::kSaturation: index = open_saturation_; break;
    case IncidentKind::kUnderload: index = open_underload_; break;
    case IncidentKind::kQueueTrend: index = open_trend_; break;
    case IncidentKind::kSloViolations: index = open_slo_; break;
    case IncidentKind::kLinkDegraded: index = open_link_; break;
    case IncidentKind::kThrottle: return -1;  // per-replica, not fleet-wide
    case IncidentKind::kReplicaDown: return -1;   // per-replica
    case IncidentKind::kIoErrorBurst: return -1;  // per-replica
  }
  if (index < 0) return -1;
  return incidents_[static_cast<std::size_t>(index)].id;
}

void write_incident_json(std::ostream& os, const Incident& inc) {
  os << "{\"id\":" << inc.id << ",\"kind\":\"" << to_string(inc.kind)
     << "\",\"severity\":\"" << to_string(inc.severity) << "\",\"subject\":\""
     << json_escape(inc.subject) << "\",\"opened_ps\":" << inc.opened_ps
     << ",\"closed_ps\":" << inc.closed_ps
     << ",\"open\":" << (inc.open ? "true" : "false")
     << ",\"threshold\":" << json_number(inc.threshold)
     << ",\"peak\":" << json_number(inc.peak)
     << ",\"last\":" << json_number(inc.last)
     << ",\"observations\":" << inc.observations << "}";
}

}  // namespace cxlgraph::obs

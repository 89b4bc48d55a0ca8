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

std::size_t HealthMonitor::open_new(IncidentKind kind, std::string subject,
                                    util::SimTime now, double threshold,
                                    double value) {
  Incident inc;
  inc.id = static_cast<std::uint32_t>(incidents_.size());
  inc.kind = kind;
  inc.severity = base_severity(kind);
  inc.subject = std::move(subject);
  inc.opened_ps = now;
  inc.threshold = threshold;
  inc.peak = value;
  inc.last = value;
  inc.observations = 1;
  incidents_.push_back(std::move(inc));
  return incidents_.size() - 1;
}

void HealthMonitor::touch(std::int64_t index, util::SimTime now,
                          double value) {
  (void)now;
  Incident& inc = incidents_[static_cast<std::size_t>(index)];
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

void HealthMonitor::close(std::int64_t& index, util::SimTime now) {
  if (index < 0) return;
  Incident& inc = incidents_[static_cast<std::size_t>(index)];
  inc.open = false;
  inc.closed_ps = now;
  index = -1;
}

HealthMonitor::DepthVerdict HealthMonitor::observe_depth(
    util::SimTime now, double depth_per_replica) {
  // The verdict reproduces the elastic controller's original threshold
  // comparisons exactly (strict >, strict <) so consuming it is
  // decision-identical to the private check it replaces.
  DepthVerdict verdict = DepthVerdict::kNominal;
  if (depth_per_replica > config_.depth_high) {
    verdict = DepthVerdict::kOverloaded;
  } else if (depth_per_replica < config_.depth_low) {
    verdict = DepthVerdict::kUnderloaded;
  }

  if (verdict == DepthVerdict::kOverloaded) {
    close(open_underload_, now);
    if (open_saturation_ < 0) {
      open_saturation_ = static_cast<std::int64_t>(
          open_new(IncidentKind::kSaturation, "fleet", now,
                   config_.depth_high, depth_per_replica));
    } else {
      touch(open_saturation_, now, depth_per_replica);
    }
  } else if (verdict == DepthVerdict::kUnderloaded) {
    close(open_saturation_, now);
    if (open_underload_ < 0) {
      open_underload_ = static_cast<std::int64_t>(
          open_new(IncidentKind::kUnderload, "fleet", now, config_.depth_low,
                   depth_per_replica));
    } else {
      touch(open_underload_, now, depth_per_replica);
    }
  } else {
    close(open_saturation_, now);
    close(open_underload_, now);
  }

  // Trend detector: a run of strictly-rising samples flags a ramp
  // before the absolute threshold trips.
  if (have_prev_depth_ && depth_per_replica > prev_depth_) {
    ++rising_run_;
  } else {
    rising_run_ = 0;
  }
  prev_depth_ = depth_per_replica;
  have_prev_depth_ = true;
  if (rising_run_ >= config_.trend_run) {
    if (open_trend_ < 0) {
      open_trend_ = static_cast<std::int64_t>(
          open_new(IncidentKind::kQueueTrend, "fleet", now,
                   static_cast<double>(config_.trend_run), depth_per_replica));
    } else {
      touch(open_trend_, now, depth_per_replica);
    }
  } else {
    close(open_trend_, now);
  }

  return verdict;
}

void HealthMonitor::observe_throttle(util::SimTime now, std::uint32_t replica,
                                     bool throttled) {
  if (open_throttle_.size() <= replica) {
    open_throttle_.resize(replica + 1, -1);
  }
  std::int64_t& slot = open_throttle_[replica];
  if (throttled) {
    if (slot < 0) {
      slot = static_cast<std::int64_t>(
          open_new(IncidentKind::kThrottle,
                   "replica" + std::to_string(replica), now, 0.0, 1.0));
    } else {
      touch(slot, now, 1.0);
    }
  } else {
    close(slot, now);
  }
}

void HealthMonitor::observe_completion(util::SimTime now, bool slo_violated) {
  if (config_.slo_window == 0) return;
  if (slo_ring_.size() != config_.slo_window) {
    slo_ring_.assign(config_.slo_window, false);
    slo_pos_ = 0;
    slo_violations_ = 0;
    slo_window_full_ = false;
  }
  if (slo_ring_[slo_pos_]) --slo_violations_;
  slo_ring_[slo_pos_] = slo_violated;
  if (slo_violated) ++slo_violations_;
  if (++slo_pos_ == config_.slo_window) {
    slo_pos_ = 0;
    slo_window_full_ = true;
  }
  if (!slo_window_full_) return;

  const double rate = static_cast<double>(slo_violations_) /
                      static_cast<double>(config_.slo_window);
  if (rate > config_.slo_rate) {
    if (open_slo_ < 0) {
      open_slo_ = static_cast<std::int64_t>(open_new(
          IncidentKind::kSloViolations, "fleet", now, config_.slo_rate, rate));
    } else {
      touch(open_slo_, now, rate);
    }
  } else {
    close(open_slo_, now);
  }
}

std::int64_t HealthMonitor::observe_crash(util::SimTime now,
                                          std::uint32_t replica, bool down) {
  if (open_down_.size() <= replica) open_down_.resize(replica + 1, -1);
  std::int64_t& slot = open_down_[replica];
  if (down) {
    if (slot < 0) {
      slot = static_cast<std::int64_t>(
          open_new(IncidentKind::kReplicaDown,
                   "replica" + std::to_string(replica), now, 0.0, 1.0));
    } else {
      touch(slot, now, 1.0);
    }
    return incidents_[static_cast<std::size_t>(slot)].id;
  }
  const std::int64_t id =
      slot < 0 ? -1 : incidents_[static_cast<std::size_t>(slot)].id;
  close(slot, now);
  return id;
}

void HealthMonitor::observe_io_burst(util::SimTime now, std::uint32_t replica,
                                     bool active, double rate) {
  if (open_io_.size() <= replica) open_io_.resize(replica + 1, -1);
  std::int64_t& slot = open_io_[replica];
  if (active) {
    if (slot < 0) {
      slot = static_cast<std::int64_t>(
          open_new(IncidentKind::kIoErrorBurst,
                   "replica" + std::to_string(replica), now, rate, 0.0));
    } else {
      touch(slot, now, rate);
    }
  } else {
    close(slot, now);
  }
}

void HealthMonitor::observe_io_errors(util::SimTime now, std::uint32_t replica,
                                      std::uint32_t errors) {
  if (open_io_.size() <= replica) open_io_.resize(replica + 1, -1);
  std::int64_t& slot = open_io_[replica];
  if (slot < 0) {
    slot = static_cast<std::int64_t>(
        open_new(IncidentKind::kIoErrorBurst,
                 "replica" + std::to_string(replica), now, 0.0,
                 static_cast<double>(errors)));
    return;
  }
  touch(slot, now, static_cast<double>(errors));
}

void HealthMonitor::observe_link(util::SimTime now, bool degraded,
                                 double factor) {
  if (degraded) {
    if (open_link_ < 0) {
      open_link_ = static_cast<std::int64_t>(open_new(
          IncidentKind::kLinkDegraded, "fleet", now, factor, factor));
    } else {
      touch(open_link_, now, factor);
    }
  } else {
    close(open_link_, now);
  }
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

void write_incidents_json(std::ostream& os,
                          const std::vector<Incident>& incidents) {
  os << "{\"incidents\":[";
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    if (i != 0) os << ",\n";
    write_incident_json(os, incidents[i]);
  }
  os << "]}\n";
}

}  // namespace cxlgraph::obs

#pragma once
/// \file telemetry.hpp
/// The one object a run threads through every layer: configuration,
/// metrics registry, span tracer, and time-series sampler behind a
/// single `Telemetry*`.
///
/// The contract, in priority order:
///   1. OFF by default, and the disabled path is one null/flag check at
///      each hook site — no registry lookups, no allocation.
///   2. Observation never perturbs simulation: every hook only *reads*
///      simulator/device state and appends to obs-owned buffers. With
///      telemetry ON, every simulated result is bit-identical to OFF
///      (pinned by telemetry_identity_test and the CI goldens).
///   3. Export is deterministic: same run, same bytes out.
///
/// Components honor the sub-toggles through tracing() / metering() /
/// sampling(), so a trace-only run skips metric updates entirely.

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace cxlgraph::obs {

struct TelemetryConfig {
  bool enabled = false;  ///< master switch; OFF pins the default path
  bool trace = true;     ///< span tracer (--trace-out)
  bool metrics = true;   ///< counters/gauges/histograms (--metrics-out)
  bool sample = true;    ///< windowed time-series channels
  /// Sampling bucket width in simulated time.
  util::SimTime sample_quantum = util::kPsPerUs * 50;
};

class Telemetry {
 public:
  Telemetry() : Telemetry(TelemetryConfig{}) {}
  explicit Telemetry(const TelemetryConfig& cfg)
      : cfg_(cfg), sampler_(cfg.sample_quantum) {}

  /// Convenience: a fully-enabled instance (CLI --trace-out path).
  static TelemetryConfig enabled_config() {
    TelemetryConfig cfg;
    cfg.enabled = true;
    return cfg;
  }

  const TelemetryConfig& config() const noexcept { return cfg_; }
  bool enabled() const noexcept { return cfg_.enabled; }
  bool tracing() const noexcept { return cfg_.enabled && cfg_.trace; }
  bool metering() const noexcept { return cfg_.enabled && cfg_.metrics; }
  bool sampling() const noexcept { return cfg_.enabled && cfg_.sample; }

  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }
  SpanTracer& tracer() noexcept { return tracer_; }
  const SpanTracer& tracer() const noexcept { return tracer_; }
  TimeSeriesSampler& sampler() noexcept { return sampler_; }
  const TimeSeriesSampler& sampler() const noexcept { return sampler_; }

  /// Chrome trace-event JSON: spans + sampler channels as counters.
  void write_trace_json(std::ostream& os) const {
    write_chrome_trace(os, tracer_, &sampler_);
  }
  void write_metrics_json(std::ostream& os) const {
    metrics_.write_json(os);
  }

  /// File variants; false (with no partial file kept open) on I/O error.
  bool save_trace(const std::string& path) const;
  bool save_metrics(const std::string& path) const;

 private:
  TelemetryConfig cfg_;
  MetricsRegistry metrics_;
  SpanTracer tracer_;
  TimeSeriesSampler sampler_;
};

/// Folds a serving stack's thermal state into trace events: instants on
/// throttle enter/exit plus one complete span per throttle episode.
/// Each serve::ReplicaSim owns one by value (its "replica<k>-heat"
/// track); unbound (the default) every hook is a single pointer check —
/// and the hooks only sit on code paths already gated behind the thermal
/// model's `enabled` flag.
class StateModelTrace {
 public:
  StateModelTrace() = default;

  /// Binds to a telemetry sink, naming this stack's trace track.
  void bind(Telemetry* telemetry, const std::string& process,
            const std::string& thread);
  bool bound() const noexcept { return telemetry_ != nullptr; }

  /// Reports the thermal state observed after a charge at `now`.
  void on_thermal(util::SimTime now, bool throttled);

 private:
  Telemetry* telemetry_ = nullptr;
  bool tracing_ = false;
  std::uint16_t track_ = 0;
  std::uint32_t n_enter_ = 0;
  std::uint32_t n_exit_ = 0;
  std::uint32_t n_episode_ = 0;
  Counter* episodes_ = nullptr;  ///< null when metrics are off
  bool throttled_ = false;
  util::SimTime since_ = 0;
};

/// The standard simulator tap: counts dispatched events into a
/// per-component counter and, on each sampling-bucket boundary, reads a
/// set of registered probes (queue depth, link busy, heat, outstanding
/// requests — anything expressible as a `double()` over live state)
/// into sampler channels. Purely passive; attach with
/// `sim.set_observer(&observer)` for the duration of one run and detach
/// (or destroy the observer) before the simulator outlives it.
class SimRunObserver final : public sim::EventObserver {
 public:
  SimRunObserver(Telemetry& telemetry, const std::string& component);

  /// Registers a probe evaluated once per sampling bucket. The channel
  /// name becomes "<component>/<name>".
  void add_probe(const std::string& name, std::function<double()> probe,
                 TimeSeriesSampler::Reduce reduce =
                     TimeSeriesSampler::Reduce::kLast);

  void on_event(util::SimTime now, std::uint16_t listener,
                std::uint16_t opcode) override;

  /// Flushes the in-progress bucket's event count (call once, after the
  /// run drains).
  void finish();

  std::uint64_t events_seen() const noexcept { return events_seen_; }

 private:
  Telemetry& telemetry_;
  std::string component_;
  Counter* event_counter_ = nullptr;  ///< null when metrics are off
  std::uint32_t rate_channel_ = 0;
  bool sampling_ = false;
  util::SimTime quantum_ = 1;
  std::uint64_t bucket_ = 0;
  bool bucket_open_ = false;
  std::uint64_t bucket_events_ = 0;
  std::uint64_t events_seen_ = 0;

  struct Probe {
    std::uint32_t channel;
    std::function<double()> fn;
  };
  std::vector<Probe> probes_;
};

}  // namespace cxlgraph::obs

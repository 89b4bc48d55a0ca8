#pragma once
/// \file telemetry.hpp
/// The one object a run threads through every layer: metrics registry,
/// span tracer, and time-series sampler behind a single `Telemetry*`.
///
/// The contract, in priority order:
///   1. A sink that exists records all three subsystems; a null
///      `Telemetry*` is the only way to turn it off, and that path is one
///      null check at each hook site — no registry lookups, no allocation.
///   2. Observation never perturbs simulation: every hook only *reads*
///      simulator/device state and appends to obs-owned buffers. With a
///      sink attached, every simulated result is bit-identical to the
///      detached run (pinned by telemetry_identity_test and the goldens).
///   3. Export is deterministic: same run, same bytes out.

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace cxlgraph::util {
class CliParser;
}

namespace cxlgraph::obs {

class Telemetry {
 public:
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
  MetricsRegistry metrics_;
  SpanTracer tracer_;
  TimeSeriesSampler sampler_;
};

/// The `--trace-out` / `--metrics-out` pair the CLI and the benches
/// share. Registers both options; `trace_help` says what the trace holds.
void add_telemetry_options(util::CliParser& cli,
                           const std::string& trace_help);

/// A sink when the parsed `cli` names either output, null otherwise:
/// nothing is recorded that is not written out.
std::unique_ptr<Telemetry> make_telemetry(const util::CliParser& cli);

/// Writes each output `cli` names from `telemetry` (nothing when null).
/// Returns 1 after naming the path on `err` when a file cannot be
/// written, 0 otherwise.
int save_telemetry(const util::CliParser& cli, const Telemetry* telemetry,
                   std::ostream& err);

/// Folds a serving stack's thermal state into trace events: instants on
/// throttle enter/exit plus one complete span per throttle episode.
/// Each serve::ReplicaSim owns one by value (its "replica<k>-heat"
/// track); unbound (the default) it records nothing, and the hook only
/// sits on a code path already gated behind the thermal model's
/// `enabled` flag.
class StateModelTrace {
 public:
  StateModelTrace() = default;

  /// Binds to a telemetry sink, naming this stack's trace track.
  void bind(Telemetry* telemetry, const std::string& process,
            const std::string& thread);
  bool bound() const noexcept { return telemetry_ != nullptr; }

  /// Reports the thermal state observed after a charge at `now`; call
  /// only when bound().
  void on_thermal(util::SimTime now, bool throttled);

 private:
  Telemetry* telemetry_ = nullptr;
  std::uint16_t track_ = 0;
  std::uint32_t n_enter_ = 0;
  std::uint32_t n_exit_ = 0;
  std::uint32_t n_episode_ = 0;
  Counter* episodes_ = nullptr;
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

 private:
  Telemetry& telemetry_;
  std::string component_;
  Counter& event_counter_;
  std::uint32_t rate_channel_ = 0;
  util::SimTime quantum_ = 1;
  std::uint64_t bucket_ = 0;
  bool bucket_open_ = false;
  std::uint64_t bucket_events_ = 0;

  struct Probe {
    std::uint32_t channel;
    std::function<double()> fn;
  };
  std::vector<Probe> probes_;
};

}  // namespace cxlgraph::obs

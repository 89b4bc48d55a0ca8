#include "obs/telemetry.hpp"

#include <fstream>

#include "util/cli.hpp"

namespace cxlgraph::obs {

bool Telemetry::save_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_trace_json(out);
  return static_cast<bool>(out);
}

bool Telemetry::save_metrics(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_metrics_json(out);
  return static_cast<bool>(out);
}

void add_telemetry_options(util::CliParser& cli,
                           const std::string& trace_help) {
  cli.add_option("trace-out", trace_help, "");
  cli.add_option("metrics-out", "write a metrics snapshot JSON here", "");
}

std::unique_ptr<Telemetry> make_telemetry(const util::CliParser& cli) {
  if (cli.get("trace-out").empty() && cli.get("metrics-out").empty()) {
    return nullptr;
  }
  return std::make_unique<Telemetry>();
}

int save_telemetry(const util::CliParser& cli, const Telemetry* telemetry,
                   std::ostream& err) {
  if (telemetry == nullptr) return 0;
  const std::string trace_path = cli.get("trace-out");
  if (!trace_path.empty() && !telemetry->save_trace(trace_path)) {
    err << "error: cannot write trace to " << trace_path << "\n";
    return 1;
  }
  const std::string metrics_path = cli.get("metrics-out");
  if (!metrics_path.empty() && !telemetry->save_metrics(metrics_path)) {
    err << "error: cannot write metrics to " << metrics_path << "\n";
    return 1;
  }
  return 0;
}

void StateModelTrace::bind(Telemetry* telemetry, const std::string& process,
                           const std::string& thread) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  SpanTracer& tracer = telemetry_->tracer();
  track_ = tracer.track(process, thread);
  n_enter_ = tracer.intern("throttle-enter");
  n_exit_ = tracer.intern("throttle-exit");
  n_episode_ = tracer.intern("throttled");
  episodes_ =
      &telemetry_->metrics().counter(process, thread + "/throttle_episodes");
}

void StateModelTrace::on_thermal(util::SimTime now, bool throttled) {
  if (throttled == throttled_) return;
  throttled_ = throttled;
  if (throttled) {
    since_ = now;
    telemetry_->tracer().instant(track_, n_enter_, now);
    return;
  }
  telemetry_->tracer().instant(track_, n_exit_, now);
  telemetry_->tracer().complete(track_, n_episode_, since_, now - since_);
  episodes_->add();
}

SimRunObserver::SimRunObserver(Telemetry& telemetry,
                               const std::string& component)
    : telemetry_(telemetry),
      component_(component),
      event_counter_(telemetry.metrics().counter(component, "events")),
      rate_channel_(telemetry.sampler().channel(
          component + "/events_per_quantum",
          TimeSeriesSampler::Reduce::kSum)),
      quantum_(telemetry.sampler().quantum()) {}

void SimRunObserver::add_probe(const std::string& name,
                               std::function<double()> probe,
                               TimeSeriesSampler::Reduce reduce) {
  const std::uint32_t ch =
      telemetry_.sampler().channel(component_ + "/" + name, reduce);
  probes_.push_back(Probe{ch, std::move(probe)});
}

void SimRunObserver::on_event(util::SimTime now, std::uint16_t /*listener*/,
                              std::uint16_t /*opcode*/) {
  event_counter_.add();

  const std::uint64_t bucket = now / quantum_;
  if (bucket_open_ && bucket == bucket_) {
    ++bucket_events_;
    return;
  }
  // Bucket boundary: close out the previous bucket's event count, then
  // read every probe once at the boundary event's timestamp.
  if (bucket_open_) {
    telemetry_.sampler().record(rate_channel_, bucket_ * quantum_,
                                static_cast<double>(bucket_events_));
  }
  bucket_ = bucket;
  bucket_open_ = true;
  bucket_events_ = 1;
  for (const Probe& p : probes_) {
    telemetry_.sampler().record(p.channel, now, p.fn());
  }
}

void SimRunObserver::finish() {
  if (bucket_open_ && bucket_events_ > 0) {
    telemetry_.sampler().record(rate_channel_, bucket_ * quantum_,
                                static_cast<double>(bucket_events_));
  }
  bucket_open_ = false;
  bucket_events_ = 0;
}

}  // namespace cxlgraph::obs

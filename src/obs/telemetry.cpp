#include "obs/telemetry.hpp"

#include <fstream>

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

void StateModelTrace::bind(Telemetry* telemetry, const std::string& process,
                           const std::string& thread) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr || !telemetry_->enabled()) {
    telemetry_ = nullptr;
    return;
  }
  tracing_ = telemetry_->tracing();
  if (tracing_) {
    SpanTracer& tracer = telemetry_->tracer();
    track_ = tracer.track(process, thread);
    n_enter_ = tracer.intern("throttle-enter");
    n_exit_ = tracer.intern("throttle-exit");
    n_episode_ = tracer.intern("throttled");
  }
  if (telemetry_->metering()) {
    episodes_ =
        &telemetry_->metrics().counter(process, thread + "/throttle_episodes");
  }
}

void StateModelTrace::on_thermal(util::SimTime now, bool throttled) {
  if (throttled == throttled_) return;
  throttled_ = throttled;
  if (throttled) {
    since_ = now;
    if (tracing_) telemetry_->tracer().instant(track_, n_enter_, now);
    return;
  }
  if (tracing_) {
    telemetry_->tracer().instant(track_, n_exit_, now);
    telemetry_->tracer().complete(track_, n_episode_, since_, now - since_);
  }
  if (episodes_ != nullptr) episodes_->add();
}

SimRunObserver::SimRunObserver(Telemetry& telemetry,
                               const std::string& component)
    : telemetry_(telemetry), component_(component) {
  if (telemetry_.metering()) {
    event_counter_ = &telemetry_.metrics().counter(component_, "events");
  }
  sampling_ = telemetry_.sampling();
  if (sampling_) {
    quantum_ = telemetry_.sampler().quantum();
    rate_channel_ = telemetry_.sampler().channel(
        component_ + "/events_per_quantum", TimeSeriesSampler::Reduce::kSum);
  }
}

void SimRunObserver::add_probe(const std::string& name,
                               std::function<double()> probe,
                               TimeSeriesSampler::Reduce reduce) {
  if (!sampling_) return;
  const std::uint32_t ch =
      telemetry_.sampler().channel(component_ + "/" + name, reduce);
  probes_.push_back(Probe{ch, std::move(probe)});
}

void SimRunObserver::on_event(util::SimTime now, std::uint16_t /*listener*/,
                              std::uint16_t /*opcode*/) {
  ++events_seen_;
  if (event_counter_ != nullptr) event_counter_->add();
  if (!sampling_) return;

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

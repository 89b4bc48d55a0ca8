#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace cxlgraph::obs {

std::uint16_t SpanTracer::track(const std::string& process,
                                const std::string& thread) {
  const std::string key = process + "\x1f" + thread;
  const auto it = track_ids_.find(key);
  if (it != track_ids_.end()) return it->second;

  auto pid_it = pids_.find(process);
  if (pid_it == pids_.end()) {
    pid_it = pids_.emplace(process,
                           static_cast<std::uint32_t>(pids_.size() + 1))
                 .first;
  }
  std::uint32_t tid = 1;
  for (const Track& t : tracks_) {
    if (t.pid == pid_it->second) ++tid;
  }
  const auto id = static_cast<std::uint16_t>(tracks_.size());
  tracks_.push_back(Track{process, thread, pid_it->second, tid});
  track_ids_.emplace(key, id);
  return id;
}

std::uint32_t SpanTracer::intern(const std::string& s) {
  const auto it = intern_.find(s);
  if (it != intern_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.push_back(s);
  intern_.emplace(s, id);
  return id;
}

namespace {

/// Picoseconds to the trace-event microsecond unit, exact to the ps.
void write_us(std::ostream& os, util::SimTime ps) {
  os << ps / util::kPsPerUs;
  const util::SimTime frac = ps % util::kPsPerUs;
  if (frac != 0) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), ".%06llu",
                  static_cast<unsigned long long>(frac));
    // Trim trailing zeros for compactness.
    int end = 6;
    while (end > 0 && buf[end] == '0') --end;
    buf[end + 1] = '\0';
    os << buf;
  }
}

}  // namespace

void write_chrome_trace(std::ostream& os, const SpanTracer& tracer,
                        const TimeSeriesSampler* sampler) {
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Metadata: process and thread names for every track.
  std::uint32_t max_pid = 0;
  {
    std::vector<std::uint32_t> named_pids;
    for (const SpanTracer::Track& t : tracer.tracks()) {
      max_pid = std::max(max_pid, t.pid);
      if (std::find(named_pids.begin(), named_pids.end(), t.pid) ==
          named_pids.end()) {
        named_pids.push_back(t.pid);
        sep();
        os << "{\"ph\":\"M\",\"pid\":" << t.pid
           << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
           << json_escape(t.process) << "\"}}";
      }
      sep();
      os << "{\"ph\":\"M\",\"pid\":" << t.pid << ",\"tid\":" << t.tid
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
         << json_escape(t.thread) << "\"}}";
    }
  }
  const std::uint32_t counter_pid = max_pid + 1;
  if (sampler != nullptr && !sampler->empty()) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << counter_pid
       << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
          "\"samples\"}}";
  }

  // Span/instant events in simulated-time order. The sort is stable, so
  // events at equal timestamps keep their emission order — two identical
  // recording sequences serialize byte-identically.
  std::vector<std::uint32_t> order(tracer.events().size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return tracer.events()[a].ts < tracer.events()[b].ts;
                   });
  for (const std::uint32_t idx : order) {
    const TraceEvent& ev = tracer.events()[idx];
    const SpanTracer::Track& t = tracer.tracks()[ev.track];
    sep();
    os << "{\"ph\":\"" << ev.phase << "\",\"pid\":" << t.pid
       << ",\"tid\":" << t.tid << ",\"name\":\""
       << json_escape(tracer.string_at(ev.name)) << "\",\"ts\":";
    write_us(os, ev.ts);
    if (ev.phase == 'X') {
      os << ",\"dur\":";
      write_us(os, ev.dur);
    }
    if (ev.phase == 'i') {
      os << ",\"s\":\"t\"";  // instant scope: thread
    }
    if (ev.phase == 's' || ev.phase == 't' || ev.phase == 'f') {
      // Flow events: the viewer matches arrows on (cat, name, id); the
      // binding-point on the finish attaches the arrow to the enclosing
      // slice rather than the next one.
      os << ",\"cat\":\"" << json_escape(tracer.string_at(ev.name))
         << "\",\"id\":" << ev.arg;
      if (ev.phase == 'f') os << ",\"bp\":\"e\"";
    }
    if (ev.arg_key != kNoArg) {
      os << ",\"args\":{\"" << json_escape(tracer.string_at(ev.arg_key))
         << "\":" << ev.arg << "}";
    }
    os << "}";
  }

  // Sampler channels as counter tracks, one 'C' event per bucket.
  if (sampler != nullptr) {
    for (std::uint32_t ch = 0; ch < sampler->num_channels(); ++ch) {
      const auto reduce = sampler->reduce(ch);
      const std::string& name = sampler->name(ch);
      for (const TimeSeriesSampler::Bucket& b : sampler->series(ch)) {
        sep();
        os << "{\"ph\":\"C\",\"pid\":" << counter_pid << ",\"tid\":0"
           << ",\"name\":\"" << json_escape(name) << "\",\"ts\":";
        write_us(os, b.index * TimeSeriesSampler::kQuantum);
        os << ",\"args\":{\"value\":" << json_number(b.reduced(reduce))
           << "}}";
      }
    }
  }

  os << "]}\n";
}

}  // namespace cxlgraph::obs

#include "serve/server.hpp"

#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/sampler.hpp"
#include "serve/fleet.hpp"

namespace cxlgraph::serve {

std::string to_string(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kFifo:
      return "fifo";
    case SchedulingPolicy::kRoundRobin:
      return "round-robin";
    case SchedulingPolicy::kSloPriority:
      return "slo-priority";
  }
  return "unknown";
}

SchedulingPolicy policy_from_name(const std::string& name) {
  for (const SchedulingPolicy p : all_policies()) {
    if (to_string(p) == name) return p;
  }
  std::string valid;
  for (const SchedulingPolicy p : all_policies()) {
    if (!valid.empty()) valid += ", ";
    valid += to_string(p);
  }
  throw std::invalid_argument("unknown scheduling policy '" + name +
                              "' (valid: " + valid + ")");
}

const std::vector<SchedulingPolicy>& all_policies() {
  static const std::vector<SchedulingPolicy> policies = {
      SchedulingPolicy::kFifo, SchedulingPolicy::kRoundRobin,
      SchedulingPolicy::kSloPriority};
  return policies;
}

std::vector<SoakWindow> soak_windows(const ServeReport& report,
                                     std::size_t windows) {
  std::vector<SoakWindow> out;
  if (windows == 0 || report.completed == 0 || report.makespan_sec <= 0.0) {
    return out;
  }
  obs::WindowSeries series;
  for (const QueryRecord& r : report.queries) {
    // Only completed queries: a shed or failed one has no completion.
    if (r.shed || r.failed) continue;
    series.record(util::sec_from_ps(r.completion),
                  util::us_from_ps(r.completion - r.arrival));
  }
  out.reserve(windows);
  for (const obs::WindowSeries::Window& w :
       series.fold(windows, report.makespan_sec)) {
    out.push_back(SoakWindow{w.start_sec, w.end_sec, w.count, w.p50, w.p99});
  }
  return out;
}

QueryServer::QueryServer(core::SystemConfig config, unsigned jobs)
    : config_(std::move(config)), jobs_(jobs), runner_(config_, jobs) {}

ProfiledWorkload QueryServer::profile_workload(const graph::CsrGraph& graph,
                                               const core::RunRequest& base,
                                               const WorkloadSpec& workload) {
  const std::vector<QueryClass> mix = resolve_mix(workload);
  ProfiledWorkload out;
  out.queries = make_queries(workload);
  if (out.queries.empty()) return out;

  // -------------------------------------------------------------------
  // Profile every distinct (class shape, source) once on an idle stack.
  // The source is a pure function of the query's own seed, so the
  // profile set — and everything downstream — is independent of
  // scheduling. Profiles are cached across serve() calls (offered-load
  // sweeps and policy comparisons reuse them) until the graph changes.
  // A source-free class (core::uses_source) replays the same trace from
  // every source, so its cache key drops the source: one replay serves
  // all of that class's slots, each rebound to its own source below.
  // -------------------------------------------------------------------
  if (graph.id() == 0 || cached_graph_id_ != graph.id()) {
    profile_cache_.clear();
    cached_graph_id_ = graph.id();
  }
  const auto key_for = [&base, &mix](std::uint32_t c,
                                     graph::VertexId source) {
    const QueryClass& cls = mix[c];
    return ProfileKey{static_cast<int>(base.backend),
                      base.cxl_added_latency.value_or(0),
                      base.alignment.value_or(0),
                      base.cache_bytes.value_or(0),
                      static_cast<int>(cls.algorithm), cls.shards,
                      static_cast<int>(cls.strategy), source};
  };

  // Every key of this call shares the base fields, so a slot is a
  // (class shape, source) pair. A class's shape is the first class with
  // its (algorithm, shards, strategy); classes differing only in SLO or
  // weight share slots. slot_of[shape] maps a source to its slot.
  std::vector<std::uint32_t> shape(mix.size());
  for (std::uint32_t c = 0; c < mix.size(); ++c) {
    shape[c] = c;
    for (std::uint32_t d = 0; d < c; ++d) {
      if (mix[d].algorithm == mix[c].algorithm &&
          mix[d].shards == mix[c].shards &&
          mix[d].strategy == mix[c].strategy) {
        shape[c] = d;
        break;
      }
    }
  }
  std::vector<std::unordered_map<graph::VertexId, std::size_t>> slot_of(
      mix.size());
  struct Slot {
    ProfileKey cache_key;
    std::uint32_t class_index;
    graph::VertexId source;
  };
  std::vector<Slot> slots;
  out.query_profile.resize(out.queries.size());
  for (std::size_t i = 0; i < out.queries.size(); ++i) {
    const std::uint32_t c = out.queries[i].class_index;
    const graph::VertexId source =
        core::resolve_source(graph, base.source, out.queries[i].source_seed);
    const auto [it, inserted] =
        slot_of[shape[c]].try_emplace(source, slots.size());
    if (inserted) {
      const bool keyed = core::uses_source(mix[c].algorithm);
      slots.push_back(Slot{key_for(c, keyed ? source : 0), c, source});
    }
    out.query_profile[i] = it->second;
  }

  // Each cache key not yet cached is computed once, by its first slot.
  std::set<ProfileKey> scheduled;
  std::vector<std::size_t> single_todo;
  std::vector<std::size_t> cluster_todo;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    if (profile_cache_.count(slots[k].cache_key) != 0 ||
        !scheduled.insert(slots[k].cache_key).second) {
      continue;
    }
    (mix[slots[k].class_index].shards == 1 ? single_todo : cluster_todo)
        .push_back(k);
  }

  // Single-stack profiles fan out across the runner's workers
  // (insertion-ordered, bit-identical to serial).
  std::vector<std::function<QueryProfile()>> tasks;
  for (const std::size_t k : single_todo) {
    tasks.push_back([this, &graph, &base, &mix, slot = slots[k]]() {
      const core::ExternalGraphRuntime runtime(config_);
      core::RunRequest req = base;
      req.algorithm = mix[slot.class_index].algorithm;
      req.source = slot.source;
      // One replay per trace: run_trace expands it step by step rather
      // than holding a whole expansion that nothing replays again.
      const algo::AccessTrace trace =
          runtime.make_trace(graph, req.algorithm, slot.source);
      core::TraceRunResult run =
          runtime.run_trace(trace, req, graph, slot.source);
      QueryProfile p;
      p.report = std::move(run.report);
      p.step_ps = std::move(run.step_durations);
      p.step_bytes = std::move(run.step_fetched_bytes);
      return p;
    });
  }
  std::vector<QueryProfile> fanned = runner_.map_tasks(tasks);
  for (std::size_t t = 0; t < fanned.size(); ++t) {
    profile_cache_.emplace(slots[single_todo[t]].cache_key,
                           std::move(fanned[t]));
  }
  profiles_computed_ += fanned.size();

  // Shard-spanning profiles route through ClusterRuntime (which fans its
  // own per-shard replays) over one partition per shard layout; exchange
  // phases fold into their supersteps.
  core::ClusterRuntime cluster(config_, jobs_);
  std::map<std::pair<std::uint32_t, partition::Strategy>,
           partition::Partition>
      partitions;
  for (const std::size_t k : cluster_todo) {
    const QueryClass& cls = mix[slots[k].class_index];
    core::ClusterRequest creq;
    creq.run = base;
    creq.run.algorithm = cls.algorithm;
    creq.run.source = slots[k].source;
    creq.num_shards = cls.shards;
    creq.strategy = cls.strategy;
    const auto [part, fresh] =
        partitions.try_emplace({cls.shards, cls.strategy});
    if (fresh) {
      part->second = partition::make_partition(
          graph, creq.strategy, creq.num_shards, /*seed=*/0, creq.reorder);
    }
    const core::ClusterReport cr = cluster.run(graph, part->second, creq);

    QueryProfile p;
    p.shards = cls.shards;
    p.report.algorithm = cr.algorithm;
    p.report.backend = cr.backend;
    p.report.access_method = cr.access_method;
    p.report.runtime_sec = cr.runtime_sec;
    p.report.fetched_bytes = cr.fetched_bytes;
    p.report.used_bytes = cr.used_bytes;
    p.report.transactions = cr.transactions;
    p.report.steps = cr.supersteps;
    p.report.graph_edges = graph.num_edges();
    p.cluster_runtime_sec = cr.runtime_sec;
    p.exchange_bytes = cr.exchange_bytes;
    p.step_ps = cr.superstep_compute_ps;
    for (std::size_t j = 0;
         j < cr.exchange_phase_ps.size() && j < p.step_ps.size(); ++j) {
      p.step_ps[j] += cr.exchange_phase_ps[j];
    }
    p.step_bytes = cr.superstep_fetched_bytes;
    profile_cache_.emplace(slots[k].cache_key, std::move(p));
    ++profiles_computed_;
  }

  out.profiles.reserve(slots.size());
  for (const Slot& slot : slots) {
    QueryProfile& p =
        out.profiles.emplace_back(profile_cache_.at(slot.cache_key));
    // A cached profile is shared by every slot with its key: by serves
    // with other mixes (the key ignores slo/weight) and, for source-free
    // classes, by every source. Bind it to this slot.
    p.class_index = slot.class_index;
    p.source = slot.source;
    p.report.source = slot.source;
  }
  for (QueryProfile& p : out.profiles) {
    p.service_ps = 0;
    p.service_bytes = 0;
    for (const util::SimTime d : p.step_ps) p.service_ps += d;
    for (const std::uint64_t b : p.step_bytes) p.service_bytes += b;
  }
  return out;
}

ServeReport QueryServer::serve(const graph::CsrGraph& graph,
                               const ServeRequest& request) {
  FleetRequest one_replica;
  one_replica.base = request.base;
  one_replica.workload = request.workload;
  one_replica.fleet.serve = request.config;
  return serve(graph, one_replica).serve;
}

}  // namespace cxlgraph::serve

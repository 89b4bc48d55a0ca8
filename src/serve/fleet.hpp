#pragma once
/// \file fleet.hpp
/// Fleet serving: N replicas of the (optionally sharded) stack behind a
/// router, with per-tenant quotas, SLO-aware shedding, live migration,
/// and an elastic replica controller.
///
/// QueryServer::serve(graph, FleetRequest) is the one serving engine. It
/// profiles the workload once through the server's profile cache (a
/// replica is a copy, so profiles are shared), then runs one
/// discrete-event queueing simulation, a serve::FleetSim in which every
/// replica is a serve::ReplicaSim on the common clock (replica.hpp):
///
///   * Router — random (seeded, stateless), join-shortest-queue
///     (waiting + in-service, ties to the lowest index), or
///     class-affinity (tenant class pinned to class % routable).
///   * Admission — per-tenant in-flight quotas, the per-replica waiting
///     cap, and optional SLO-aware shedding: an arrival whose remaining
///     demand cannot meet its deadline even on the emptiest replica
///     (least backlog) is dropped at the door instead of serving late.
///   * Live migration — at a planned time, a tenant class drains from
///     one replica to another: waiting queries move immediately, the
///     in-flight query hands off at its next preemption point, and the
///     tenant's resident state (distinct moved profiles' used bytes) is
///     charged to the interconnect as a copy delay before the moved
///     queries resume on the target — mid-serve, replay progress intact.
///     Migration bytes are accounted separately from serve link bytes,
///     so conservation_ok() still checks query bytes exactly.
///   * Elastic controller — on a fixed interval, takes the exact mean of
///     every fleet-wide waiting-depth sample since its previous decision
///     and grows or drains the fleet between min/max replicas; every
///     scaling event reports the p99 latency transient around it. The
///     threshold check itself lives in an obs::HealthMonitor, fed this
///     config's thresholds: the controller acts on the monitor's depth
///     verdict, every scaling event links the incident that triggered
///     it, and the run's full incident log rides the report (exportable
///     via write_incident_log).
///
/// A single-stack serve (QueryServer::serve(graph, ServeRequest)) is this
/// engine with replicas=1 and the random router, so the two agree by
/// construction.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/health.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/simulator.hpp"

namespace cxlgraph::serve {

/// Most replicas a fleet may start with or grow to: each replica
/// registers its own listener with the serve's simulator, whose table
/// also holds the fleet's.
inline constexpr std::uint32_t kMaxReplicas =
    sim::Simulator::kMaxListeners - 1;

enum class RouterKind {
  kRandom,             ///< seeded uniform pick over routable replicas
  kJoinShortestQueue,  ///< least waiting + in-service, ties to lowest index
  kClassAffinity,      ///< class pinned to class_index % routable count
};

std::string to_string(RouterKind router);
RouterKind router_from_name(const std::string& name);
const std::vector<RouterKind>& all_routers();

/// Per-tenant admission quota: at most max_in_flight (>= 1) queries of
/// the class admitted and not yet completed; arrivals past it are shed.
struct TenantQuota {
  std::uint32_t class_index = 0;
  std::uint32_t max_in_flight = 1;
};

/// A planned live migration: at `at_sec` of simulated time, tenant
/// `class_index` drains from replica `from` and resumes on `to`.
struct MigrationPlan {
  double at_sec = 0.0;
  std::uint32_t class_index = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
};

/// Parses the --migrate grammar: comma-separated "at_ms:class:from:to"
/// entries, the time a decimal number of milliseconds read whole
/// (util::parse_double), the rest whole base-10 integers that fit 32
/// bits. Empty text is no migration. Throws std::invalid_argument on a
/// malformed entry; whether the plans fit the fleet and workload is
/// FleetConfig::validate's to check.
std::vector<MigrationPlan> parse_migrations(const std::string& spec);

/// Parses the --quota grammar: comma-separated "class:max_in_flight"
/// entries of whole base-10 integers that fit 32 bits, with the same
/// contract as parse_migrations.
std::vector<TenantQuota> parse_quotas(const std::string& spec);

struct ElasticConfig {
  bool enabled = false;
  std::uint32_t min_replicas = 1;
  std::uint32_t max_replicas = 8;
  /// Controller period (simulated seconds between decisions).
  double check_interval_sec = 1e-3;
  /// Scale up when mean waiting depth per routable replica exceeds this.
  double scale_up_depth = 8.0;
  /// Drain one replica when it falls below this (and > min_replicas).
  double scale_down_depth = 1.0;
  /// Decisions suppressed for this many intervals after a scaling event.
  std::uint32_t cooldown_intervals = 2;
};

struct FleetConfig {
  std::uint32_t replicas = 1;
  RouterKind router = RouterKind::kRandom;
  /// Per-replica scheduling: policy, quantum, waiting cap, and the
  /// stack thermal model each replica heats independently.
  ServeConfig serve;
  std::vector<TenantQuota> quotas;
  /// Drop arrivals that cannot meet their SLO even on the least-backlog
  /// replica (remaining demand alone already busts the deadline).
  bool slo_shedding = false;
  std::vector<MigrationPlan> migrations;
  ElasticConfig elastic;
  /// Deterministic fault injection (default off — see fault/fault.hpp).
  /// A crash kills a replica: its waiting queries re-route through the
  /// router, the in-flight query loses its completed supersteps and
  /// retries with deterministic backoff until the budget runs out
  /// (`failed` disposition); crash-restarts revive after restart_sec,
  /// permanent crashes trigger an elastic replacement. I/O bursts and
  /// link flaps stretch quanta through the fault seam.
  fault::FaultSpec faults;

  /// Validates the whole fleet configuration against the workload's
  /// tenant-class count; throws std::invalid_argument with a descriptive
  /// message for malformed migration plans (nonexistent source/target
  /// replica, source == target, unknown tenant, a negative, NaN or
  /// infinite time), out-of-range quota classes, `replicas` or
  /// `elastic.max_replicas` above kMaxReplicas, inconsistent elastic
  /// bounds or a check interval that is not a positive finite duration,
  /// malformed thermal parameters (serve.thermal, when enabled), or an
  /// invalid fault spec.
  void validate(std::size_t num_classes) const;
};

struct FleetRequest {
  /// Backend + sweep knobs of every replica's stack. algorithm and
  /// source are overridden per query from the workload mix.
  core::RunRequest base;
  WorkloadSpec workload;
  FleetConfig fleet;
};

struct ReplicaStats {
  std::uint32_t replica = 0;
  std::uint32_t served = 0;  ///< completions here
  std::uint32_t quanta = 0;
  double busy_sec = 0.0;
  std::uint64_t link_bytes = 0;
  std::uint32_t throttled_quanta = 0;
  double peak_heat = 0.0;
  double joined_sec = 0.0;   ///< 0 for the initial fleet
  bool retired = false;      ///< drained by the elastic controller
  double retired_sec = 0.0;  ///< retirement time (0 unless retired)
  /// busy / lifetime (join to retirement-or-makespan, downtime excluded).
  double utilization = 0.0;
  /// Fault layer: times this replica crashed, and total simulated time
  /// it spent dead (still-dead-at-end counted to the makespan).
  std::uint32_t crashes = 0;
  double down_sec = 0.0;

  friend bool operator==(const ReplicaStats&, const ReplicaStats&) = default;
};

struct MigrationRecord {
  std::uint32_t class_index = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  double start_sec = 0.0;
  /// State-copy duration charged to the interconnect.
  double copy_sec = 0.0;
  /// Resident state moved: distinct migrated profiles' used bytes.
  std::uint64_t state_bytes = 0;
  std::uint32_t moved_waiting = 0;
  /// An in-flight query handed off at a preemption point (resumes on
  /// the target mid-serve).
  bool moved_active = false;

  friend bool operator==(const MigrationRecord&, const MigrationRecord&) = default;
};

struct ScalingEvent {
  double at_sec = 0.0;
  bool added = false;  ///< false = drain decision
  std::uint32_t replica = 0;
  std::uint32_t routable_after = 0;
  /// Observed mean waiting depth per routable replica at the decision.
  double depth_per_replica = 0.0;
  /// p99 latency of completions within two check intervals before/after
  /// the event — the transient the controller is judged on.
  std::uint32_t completions_before = 0;
  std::uint32_t completions_after = 0;
  double p99_before_us = 0.0;
  double p99_after_us = 0.0;
  /// Id of the health-monitor incident (saturation for grows, underload
  /// for drains) whose verdict triggered this decision; -1 when none.
  std::int32_t incident = -1;

  friend bool operator==(const ScalingEvent&, const ScalingEvent&) = default;
};

struct FleetReport {
  /// Fleet-wide aggregate in ServeReport shape: per-query records
  /// (QueryRecord::replica says who served), percentiles, conservation.
  /// utilization is fleet busy time over summed replica lifetime.
  ServeReport serve;
  std::string router;
  std::uint32_t replicas = 0;  ///< initial fleet size
  std::uint32_t peak_replicas = 0;
  std::vector<ReplicaStats> replica_stats;
  /// Shed decomposition (sums to serve.shed).
  std::uint32_t shed_queue = 0;
  std::uint32_t shed_quota = 0;
  std::uint32_t shed_deadline = 0;
  std::vector<MigrationRecord> migrations;
  /// Interconnect bytes + time spent on migration state copies —
  /// deliberately not folded into serve.link_bytes (conservation checks
  /// query bytes; migration traffic is overhead on top).
  std::uint64_t migration_bytes = 0;
  double migration_sec = 0.0;
  std::vector<ScalingEvent> scaling_events;
  /// The health monitor's incident log for the run: saturation /
  /// underload / queue-trend / throttle / SLO-violation-rate incidents
  /// with open/close sim times, severity, and evidence. Deterministic —
  /// a pure function of the run, recorded whether or not a telemetry
  /// sink is attached.
  std::vector<obs::Incident> incidents;
  /// Fault/recovery accounting (all zero without an active fault plan).
  std::uint32_t crashes = 0;
  std::uint32_t restarts = 0;      ///< crash-restarts that revived
  std::uint32_t replacements = 0;  ///< crash-triggered elastic joins
  std::uint64_t io_error_retries = 0;  ///< serve-path transient I/O retries
  std::uint32_t link_degrade_windows = 0;
  /// completed / (completed + failed); 1.0 when nothing failed.
  double availability = 1.0;

  friend bool operator==(const FleetReport&, const FleetReport&) = default;
};

/// The fleet entry point is QueryServer's FleetRequest overload; the
/// name stays for callers that hold a server only to serve fleets.
using FleetServer = QueryServer;

/// Serializes the fleet's health record as one JSON document:
/// `{"incidents":[...],"scaling":[...],"migrations":[...]}` with
/// integer-picosecond incident times, so two identical runs (and the
/// same run at different profiling thread counts) produce byte-identical
/// files. This is the --incidents-out format.
void write_incident_log(std::ostream& os, const FleetReport& report);

/// write_incident_log to `path`; false (with no partial file promise)
/// when the file cannot be opened.
bool save_incident_log(const std::string& path, const FleetReport& report);

}  // namespace cxlgraph::serve

#include "fault/fault.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "util/cli.hpp"

namespace cxlgraph::fault {

namespace {

/// 53-bit mantissa → [0, 1), the same mapping Xoshiro256::next_double
/// uses, so fault draws share the repo-wide uniform convention.
double unit_from(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// One hash per (seed, tag, index): seeds a SplitMix64 with the three
/// mixed together and takes its first output. Tags separate the event
/// dimensions (crash time vs crash target vs burst time ...) so no two
/// draws alias.
std::uint64_t hash3(std::uint64_t seed, std::uint64_t tag,
                    std::uint64_t index) noexcept {
  util::SplitMix64 mixer(seed ^ (tag * 0x9e3779b97f4a7c15ULL) ^
                         (index * 0xbf58476d1ce4e5b9ULL));
  return mixer.next();
}

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("fault spec: " + what);
}

/// A 32-bit count field: a whole base-10 integer that fits it.
std::uint32_t parse_count(const std::string& key, const std::string& value) {
  return static_cast<std::uint32_t>(
      util::parse_uint(value, "fault spec: " + key, 0,
                       std::numeric_limits<std::uint32_t>::max()));
}

}  // namespace

void validate(const FaultSpec& spec) {
  // Every duration becomes picoseconds; a negative, NaN or infinite one
  // would make that cast undefined, so each is checked before its range.
  const auto sec = [](double value, const char* what) {
    util::checked_ps_from_sec(value, std::string("fault spec: ") + what);
  };
  const auto us = [](double value, const char* what) {
    util::checked_ps_from_us(value, std::string("fault spec: ") + what);
  };
  // A query's last retry waits max_query_retries backoffs, converted as
  // one product, so the product must fit as well as the factor.
  us(spec.retry_backoff_us, "query retry backoff");
  us(spec.retry_backoff_us * static_cast<double>(spec.max_query_retries),
     "query retry backoff times query retries");
  if (!spec.enabled()) return;
  sec(spec.horizon_sec, "horizon");
  if (spec.horizon_sec <= 0.0) {
    fail("horizon must be > 0 when any fault count is set");
  }
  sec(spec.restart_sec, "restart delay");
  sec(spec.provision_sec, "provision delay");
  if (spec.io_bursts > 0) {
    sec(spec.io_burst_sec, "io burst window");
    if (spec.io_burst_sec <= 0.0) fail("io burst window must be > 0");
    if (!(spec.io_error_rate >= 0.0 && spec.io_error_rate <= 1.0)) {
      fail("io error rate must be in [0, 1]");
    }
    us(spec.io_retry_us, "io retry backoff");
    if (spec.io_max_retries == 0) fail("io retry budget must be >= 1");
    // A quantum's k-th failed attempt waits k backoffs, so one that
    // fails every retry waits io_retry_us * R(R + 1) / 2 in total.
    const double r = static_cast<double>(spec.io_max_retries);
    us(spec.io_retry_us * (r * (r + 1.0) / 2.0),
       "io retry backoff times its R(R + 1) / 2 attempts");
  }
  if (spec.link_flaps > 0) {
    sec(spec.flap_sec, "link flap window");
    if (spec.flap_sec <= 0.0) fail("link flap window must be > 0");
    if (!(spec.flap_derate >= 0.0 && spec.flap_derate <= 1.0)) {
      fail("link derate factor must be in [0, 1]");
    }
  }
}

FaultSpec parse_fault_spec(const std::string& spec) {
  FaultSpec out;
  for (const std::string& item : util::split_csv(spec)) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) fail("expected key=value, got \"" + item + "\"");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    const auto number = [&key, &value] {
      return util::parse_double(value, "fault spec: " + key);
    };
    if (key == "seed") {
      out.seed = util::parse_uint(value, "fault spec: seed", 0,
                                  std::numeric_limits<std::uint64_t>::max());
    } else if (key == "horizon-ms") {
      out.horizon_sec = number() * 1e-3;
    } else if (key == "crashes") {
      out.crashes = parse_count(key, value);
    } else if (key == "restart-ms") {
      out.restart_sec = number() * 1e-3;
    } else if (key == "provision-ms") {
      out.provision_sec = number() * 1e-3;
    } else if (key == "io-bursts") {
      out.io_bursts = parse_count(key, value);
    } else if (key == "io-burst-ms") {
      out.io_burst_sec = number() * 1e-3;
    } else if (key == "io-rate") {
      out.io_error_rate = number();
    } else if (key == "io-retry-us") {
      out.io_retry_us = number();
    } else if (key == "io-max-retries") {
      out.io_max_retries = parse_count(key, value);
    } else if (key == "link-flaps") {
      out.link_flaps = parse_count(key, value);
    } else if (key == "flap-ms") {
      out.flap_sec = number() * 1e-3;
    } else if (key == "flap-derate") {
      out.flap_derate = number();
    } else if (key == "query-retries") {
      out.max_query_retries = parse_count(key, value);
    } else if (key == "backoff-us") {
      out.retry_backoff_us = number();
    } else {
      fail("unknown key \"" + key +
           "\" (valid: seed, horizon-ms, crashes, restart-ms, provision-ms, "
           "io-bursts, io-burst-ms, io-rate, io-retry-us, io-max-retries, "
           "link-flaps, flap-ms, flap-derate, query-retries, backoff-us)");
    }
  }
  validate(out);
  return out;
}

FaultPlan::FaultPlan(const FaultSpec& spec, std::uint32_t replicas)
    : spec_(spec) {
  validate(spec);
  if (!spec.enabled() || replicas == 0) return;
  const double horizon_ps =
      spec.horizon_sec * static_cast<double>(util::kPsPerSec);
  const auto at_of = [&](std::uint64_t tag, std::uint32_t i) {
    return static_cast<util::SimTime>(
        horizon_ps * unit_from(hash3(spec.seed, tag, i)) + 0.5);
  };
  events_.reserve(spec.crashes + spec.io_bursts + spec.link_flaps);
  for (std::uint32_t i = 0; i < spec.crashes; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kReplicaCrash;
    e.at = at_of(1, i);
    e.target = static_cast<std::uint32_t>(hash3(spec.seed, 2, i) % replicas);
    e.duration = util::ps_from_sec(spec.restart_sec);
    events_.push_back(e);
  }
  for (std::uint32_t i = 0; i < spec.io_bursts; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kIoErrorBurst;
    e.at = at_of(3, i);
    e.target = static_cast<std::uint32_t>(hash3(spec.seed, 4, i) % replicas);
    e.duration = util::ps_from_sec(spec.io_burst_sec);
    e.magnitude = spec.io_error_rate;
    events_.push_back(e);
  }
  for (std::uint32_t i = 0; i < spec.link_flaps; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kLinkDegrade;
    e.at = at_of(5, i);
    e.duration = util::ps_from_sec(spec.flap_sec);
    e.magnitude = spec.flap_derate;
    events_.push_back(e);
  }
  std::sort(events_.begin(), events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return std::make_tuple(a.at, static_cast<int>(a.kind), a.target) <
                     std::make_tuple(b.at, static_cast<int>(b.kind), b.target);
            });
}

bool FaultPlan::error_draw(std::uint64_t seed, std::uint64_t stream,
                           std::uint64_t draw, double rate) noexcept {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  util::SplitMix64 mixer(seed ^ (stream * 0x94d049bb133111ebULL) ^
                         (draw * 0x2545f4914f6cdd1dULL));
  return unit_from(mixer.next()) < rate;
}

}  // namespace cxlgraph::fault

// Fault profiles: which named injection sites misbehave, how often, and how
// hard.
//
// A FaultPlan is the declarative half of the fault-injection subsystem: a
// list of per-site specs (probability, burst length, magnitude) that a
// seeded FaultInjector executes deterministically.  Plans are parsed from a
// small line-based profile format so chaos runs can be driven from files:
//
//   # gppm fault profile
//   meter.drop        p=0.02 burst=2
//   meter.spike       p=0.02 mag=3.0
//   meter.disconnect  p=0.03
//   nvml.query        p=0.05 burst=3
//   dvfs.set_pair     p=0.08
//
// One site per line: the site name, then key=value fields in any order
// (`p` = per-check fire probability, `burst` = consecutive fires per
// trigger, `mag` = kind-specific magnitude, e.g. the spike factor).
// `#` starts a comment; blank lines are ignored.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace gppm::fault {

/// The well-known injection sites wired into the instrument wrappers.
/// Injectors accept arbitrary site names; these are the ones the faulty
/// meter / NVML / DVFS paths consult.
inline constexpr std::string_view kSiteMeterDrop = "meter.drop";
inline constexpr std::string_view kSiteMeterSpike = "meter.spike";
inline constexpr std::string_view kSiteMeterDisconnect = "meter.disconnect";
inline constexpr std::string_view kSiteNvmlQuery = "nvml.query";
inline constexpr std::string_view kSiteDvfsSetPair = "dvfs.set_pair";

/// The `net` site family consulted by fault::FaultySocket (src/net):
///   * net.connect    — a connect() attempt is refused;
///   * net.short_read — a read delivers only one byte (stream reassembly
///                      must cope with arbitrary chunking);
///   * net.reset      — the connection dies mid-frame (partial write or
///                      failed read followed by a reset).
inline constexpr std::string_view kSiteNetConnect = "net.connect";
inline constexpr std::string_view kSiteNetShortRead = "net.short_read";
inline constexpr std::string_view kSiteNetReset = "net.reset";

/// The `cluster` site family consulted by the reconfiguration machinery:
///   * supervisor.probe   — a health probe is lost (the supervisor sees a
///                          healthy node as unresponsive);
///   * cluster.drain.slow — a drain stalls for `mag` milliseconds before
///                          the in-flight poll starts (slow handoff).
inline constexpr std::string_view kSiteSupervisorProbe = "supervisor.probe";
inline constexpr std::string_view kSiteClusterDrainSlow = "cluster.drain.slow";

/// Fault behaviour of one named site.
struct SiteSpec {
  std::string site;
  /// Per-check probability that a (burst of) fault(s) starts.
  double probability = 0.0;
  /// Consecutive checks that fire once triggered (>= 1).
  int burst = 1;
  /// Kind-specific magnitude; the spike site multiplies the corrupted
  /// sample's reading by this factor.
  double magnitude = 3.0;
};

/// A parsed fault profile.
struct FaultPlan {
  std::vector<SiteSpec> sites;

  /// Spec for a site, or nullptr if the plan leaves it healthy.
  const SiteSpec* find(std::string_view site) const;

  /// Parse the profile format above.  Throws gppm::Error on malformed
  /// lines, duplicate sites, probabilities outside [0, 1] or burst < 1.
  static FaultPlan parse(std::istream& in);
  static FaultPlan parse_string(const std::string& text);

  /// The default chaos profile used by `gppm chaos` and the chaos
  /// integration suite (the values in the header comment).
  static FaultPlan default_profile();

  /// A network-layer chaos profile over the `net` site family: occasional
  /// connect refusals, frequent short reads, rare mid-frame resets.  Used
  /// by the net chaos suite and `gppm loadgen --chaos`.
  static FaultPlan net_profile();

  /// A cluster reconfiguration chaos profile: lost supervisor probes and
  /// slow drains on top of the net faults.  Used by the drain/supervisor
  /// chaos tests and `gppm loadgen --cluster --chaos`.
  static FaultPlan cluster_profile();

  /// Render back into the profile format (parse round-trips).
  std::string to_string() const;
};

}  // namespace gppm::fault

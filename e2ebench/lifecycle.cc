#include "lifecycle.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <unordered_map>
#include <utility>

#include "farm/farm.h"
#include "farm/sharded.h"
#include "gs/central_hier.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace gs::e2e {

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kBoot, Workload::kSteady, Workload::kChurn,
                     Workload::kShardedSteady})
    if (to_string(w) == name) return w;
  return std::nullopt;
}

std::string_view to_string(Workload workload) {
  switch (workload) {
    case Workload::kBoot: return "boot";
    case Workload::kSteady: return "steady";
    case Workload::kChurn: return "churn";
    case Workload::kShardedSteady: return "sharded_steady";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;
using sim::SimDuration;
using sim::SimTime;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of simulated durations, in milliseconds.
double percentile_ms(std::vector<SimDuration> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return static_cast<double>(v[rank - 1]) / 1000.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  }
  void add_time(SimTime t) { add(static_cast<std::uint64_t>(t)); }
};

// Host speed probe. Co-tenants on a shared host slow whole stretches of a
// run by up to 2x, far beyond any bound a regression check could use. Every
// host-time sample is therefore followed by this fixed piece of work, shaped
// like the simulator's own (a timer heap, hash-map lookups over a few MB,
// std::function calls), and scaled by kProbeNominal / probe time: the sample
// as it would read on a host where the probe takes kProbeNominal. The probe
// lives in the benchmark, so no change to the program moves it.
class HostProbe {
 public:
  static constexpr double kProbeNominal = 0.0035;  // s; 4-vCPU 2.1 GHz Xeon VM

  HostProbe() {
    map_.reserve(kKeys);
    for (std::uint32_t k = 0; k < kKeys; ++k)
      map_[k * 2654435761u] = {k, k + 1, k + 2, k + 3};
  }

  // Host seconds `raw` scaled to the nominal host speed.
  double normalize(double raw) { return raw * kProbeNominal / run_s(); }

 private:
  static constexpr std::uint32_t kKeys = 1u << 17;

  double run_s() {
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    const Clock::time_point t0 = Clock::now();
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < 4096; ++i) heap.push({i, i});
    for (int step = 0; step < 10000; ++step) {
      const auto [t, k] = heap.top();
      heap.pop();
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto it = map_.find((k % kKeys) * 2654435761u);
      const std::function<void()> fn = [&acc, &it, t = t] {
        acc += it->second[t & 3];
      };
      fn();
      heap.push({t + (x & 0xFFFF), static_cast<std::uint32_t>(x ^ acc)});
    }
    sink_ = acc;
    return seconds_since(t0);
  }

  std::unordered_map<std::uint32_t, std::array<std::uint64_t, 4>> map_;
  std::uint64_t sink_ = 0;
};

// --- Workload shapes ---------------------------------------------------------

struct Shape {
  farm::FarmSpec spec;
  std::size_t shards = 1;
  int setup_builds = 15;  // extra constructions per life cycle, for setup_s
  int boots = 3;          // cold starts per life cycle; the last one goes on
  bool repeat = false;    // whole life cycles repeat until the budget is spent
  // Fault burst: node fail/recover pairs at a fixed simulated rate.
  int node_faults = 0;
  SimDuration fault_spacing = sim::milliseconds(1500);
  SimDuration down_min = sim::seconds(25);
  SimDuration down_max = sim::seconds(30);
  bool switch_loss = false;
  bool gsc_failover = false;
  int moves = 0;
  SimDuration quiesce = sim::seconds(40);  // after the last scheduled action
  // Slices of the fault window and of the steady window.
  SimDuration slice = sim::seconds(5);
  int min_slices = 6;  // fixed steady prefix (the sim-time metrics' window)
};

// 64 domains x 30 workers: 4,098 adapters on 2,050 nodes. Racks of 16 ports
// (8 nodes) leave switches that hold workers only, so a whole-switch loss
// takes out workers without silencing a domain's own Central.
farm::FarmSpec hierarchical_spec() {
  farm::FarmSpec spec = farm::FarmSpec::hierarchical(64, 30);
  spec.switch_ports = 16;
  return spec;
}

Shape shape_of(Workload workload) {
  Shape s;
  switch (workload) {
    case Workload::kBoot:
      // Fig. 5 at scale: 3 AMGs of 300 members, booted once per life cycle.
      s.spec = farm::FarmSpec::uniform(300, 3);
      s.repeat = true;
      s.boots = 1;
      // One node fails every 3 s: with faster arrivals the 300-member AMGs
      // queue recoveries behind each other's view changes and the recovery
      // percentiles stop repeating across seeds.
      s.node_faults = 50;
      s.fault_spacing = sim::seconds(3);
      // No moves: an adapter moved out of a 300-member AMG keeps its stale
      // view for minutes (README.md, "Known behaviour").
      s.min_slices = 2;
      break;
    case Workload::kSteady:
      s.spec = hierarchical_spec();
      s.node_faults = 50;
      s.moves = 1;
      break;
    case Workload::kShardedSteady:
      // The shard router's VLAN home map is fixed at build time, so the
      // sharded variant issues no switch-console moves.
      s.spec = hierarchical_spec();
      s.shards = 3;
      s.setup_builds = 8;
      s.boots = 2;
      s.node_faults = 50;
      break;
    case Workload::kChurn:
      s.spec = hierarchical_spec();
      s.node_faults = 100;
      s.down_max = sim::seconds(35);
      s.switch_loss = true;
      s.gsc_failover = true;
      s.moves = 4;
      s.quiesce = sim::seconds(45);
      s.min_slices = 12;
      break;
  }
  return s;
}

// --- Deployments -------------------------------------------------------------

class Deployment {
 public:
  virtual ~Deployment() = default;
  virtual void start() = 0;
  virtual void run_until(SimTime t) = 0;
  [[nodiscard]] virtual SimTime now() const = 0;
  virtual void fail_node(std::size_t node) = 0;
  virtual void recover_node(std::size_t node) = 0;
  [[nodiscard]] virtual bool converged() = 0;
  [[nodiscard]] virtual farm::ShardedFarm* sharded() { return nullptr; }
  // One Farm per shard (exactly one unsharded).
  [[nodiscard]] const std::vector<farm::Farm*>& farms() const { return farms_; }

 protected:
  std::vector<farm::Farm*> farms_;
};

class PlainDeployment final : public Deployment {
 public:
  PlainDeployment(const farm::FarmSpec& spec, const proto::Params& params,
                  std::uint64_t seed)
      : farm_(sim_, spec, params, seed) {
    farms_.push_back(&farm_);
  }
  void start() override { farm_.start(); }
  void run_until(SimTime t) override { sim_.run_until(t); }
  SimTime now() const override { return sim_.now(); }
  void fail_node(std::size_t node) override { farm_.fail_node(node); }
  void recover_node(std::size_t node) override { farm_.recover_node(node); }
  bool converged() override { return farm_.converged(); }

 private:
  sim::Simulator sim_;
  farm::Farm farm_;
};

class ShardedDeployment final : public Deployment {
 public:
  ShardedDeployment(const farm::FarmSpec& spec, const proto::Params& params,
                    std::uint64_t seed, std::size_t shards)
      : farm_(spec, params, seed, shards) {
    for (std::size_t s = 0; s < shards; ++s) farms_.push_back(&farm_.shard(s));
  }
  void start() override { farm_.start(); }
  void run_until(SimTime t) override { farm_.run_until(t); }
  SimTime now() const override { return farm_.now(); }
  void fail_node(std::size_t node) override { farm_.fail_node(node); }
  void recover_node(std::size_t node) override { farm_.recover_node(node); }
  bool converged() override { return farm_.converged(); }
  farm::ShardedFarm* sharded() override { return &farm_; }

 private:
  farm::ShardedFarm farm_;
};

std::unique_ptr<Deployment> build(const Shape& shape, std::uint64_t seed) {
  const proto::Params params;  // the paper's T_b=5 s, T_AMG=5 s, T_GSC=15 s
  if (shape.shards > 1)
    return std::make_unique<ShardedDeployment>(shape.spec, params, seed,
                                               shape.shards);
  return std::make_unique<PlainDeployment>(shape.spec, params, seed);
}

// The first non-null result of `get` over every shard's farm.
template <typename Get>
auto first_of(const std::vector<farm::Farm*>& farms, Get get)
    -> decltype(get(*farms.front())) {
  for (farm::Farm* f : farms)
    if (auto* found = get(*f)) return found;
  return nullptr;
}

// --- Trace taps --------------------------------------------------------------

constexpr std::size_t kKinds =
    static_cast<std::size_t>(obs::TraceKind::kCount_);

// Per-shard trace state. Callbacks run on the shard's own thread; the main
// thread reads between runs, when the workers are parked at the barrier.
struct ShardTap {
  std::vector<std::pair<SimTime, util::IpAddress>> commits;  // failures
  std::vector<std::pair<SimTime, util::IpAddress>> alives;   // recoveries
  std::array<std::uint64_t, kKinds> kinds{};  // traced mode: every record
};

class Taps {
 public:
  Taps(const Deployment& d, bool detect, bool count_kinds)
      : shards_(d.farms().size()) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      ShardTap* tap = &shards_[s];
      obs::TraceBus& bus = d.farms()[s]->trace_bus();
      // Only the two rare kinds: beacons and heartbeats still cost one
      // branch each on the emitter side.
      if (detect)
        subs_.push_back(bus.subscribe(
            obs::trace_mask({obs::TraceKind::kFailureCommitted,
                             obs::TraceKind::kGscAdapterAlive}),
            [tap](const obs::TraceRecord& r) {
              (r.kind == obs::TraceKind::kFailureCommitted ? tap->commits
                                                           : tap->alives)
                  .emplace_back(r.time, r.peer);
            }));
      if (count_kinds)
        subs_.push_back(bus.subscribe([tap](const obs::TraceRecord& r) {
          ++tap->kinds[static_cast<std::size_t>(r.kind)];
        }));
    }
  }

  [[nodiscard]] const std::vector<ShardTap>& shards() const { return shards_; }
  [[nodiscard]] std::uint64_t count(obs::TraceKind kind) const {
    std::uint64_t n = 0;
    for (const ShardTap& t : shards_)
      n += t.kinds[static_cast<std::size_t>(kind)];
    return n;
  }

 private:
  std::vector<ShardTap> shards_;    // sized once: callbacks hold pointers
  std::vector<obs::Subscription> subs_;  // destroyed first
};

// --- Per-layer counters ------------------------------------------------------

struct Extras {
  double check_s = 0;           // host time inside the ground-truth checks
  std::vector<double> move_us;  // host time of each Central::move_node call
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> layer_counters(Deployment& d, const Taps& taps,
                                   const Extras& extras) {
  double events = 0, max_events = 0, high_water = 0;
  net::SegmentLoad wire;
  std::array<double, proto::WireStats::kTypeSlots> decoded{};
  double dropped = 0, reports_sent = 0, frames_dropped = 0;
  proto::ProtocolStats amg;
  double gsc_reports = 0, uplink_reports = 0, root_reports = 0, need_fulls = 0;
  for (farm::Farm* f : d.farms()) {
    const auto e = static_cast<double>(f->sim().executed_events());
    events += e;
    max_events = std::max(max_events, e);
    high_water =
        std::max(high_water, static_cast<double>(f->sim().queue_high_water()));
    for (util::VlanId vlan : f->vlans()) {
      const net::SegmentLoad& load = f->fabric().load(vlan);
      wire.frames_sent += load.frames_sent;
      wire.bytes_sent += load.bytes_sent;
      wire.frames_delivered += load.frames_delivered;
      wire.frames_lost += load.frames_lost;
      wire.frames_unreachable += load.frames_unreachable;
    }
    for (std::size_t i = 0; i < f->node_count(); ++i) {
      if (!f->is_local(i)) continue;
      proto::GsDaemon& daemon = f->daemon(i);
      const proto::WireStats& ws = daemon.wire_stats();
      for (std::size_t t = 0; t < decoded.size(); ++t)
        decoded[t] += static_cast<double>(ws.decoded[t]);
      dropped += static_cast<double>(ws.total_dropped());
      reports_sent += static_cast<double>(daemon.reports_sent());
      frames_dropped += static_cast<double>(daemon.frames_dropped());
      for (std::size_t a = 0; a < daemon.adapter_count(); ++a) {
        const proto::ProtocolStats& ps = daemon.protocol(a).stats();
        amg.beacons_sent += ps.beacons_sent;
        amg.commits += ps.commits;
        amg.joins_requested += ps.joins_requested;
        amg.takeovers += ps.takeovers;
        amg.resets += ps.resets;
        amg.suspicions_raised += ps.suspicions_raised;
        amg.probes_sent += ps.probes_sent;
        amg.probes_refuted += ps.probes_refuted;
        amg.deaths_declared += ps.deaths_declared;
      }
      if (const proto::Central* c = daemon.central())
        gsc_reports += static_cast<double>(c->reports_received());
      if (const proto::RootCentral* r = daemon.root_central()) {
        root_reports += static_cast<double>(r->reports_received());
        need_fulls += static_cast<double>(r->need_fulls_sent());
      }
      if (const proto::DomainUplink* u = f->uplink_of(i))
        uplink_reports += static_cast<double>(u->reports_sent());
    }
  }
  double forwarded = 0, epochs = 0;
  if (farm::ShardedFarm* sf = d.sharded()) {
    forwarded = static_cast<double>(sf->router().frames_forwarded());
    epochs = static_cast<double>(sf->shard_set().now()) /
             static_cast<double>(sf->shard_set().epoch());
  }
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  auto dec = [&decoded](proto::MsgType t) {
    return decoded[static_cast<std::size_t>(t)];
  };
  double decoded_total = 0;
  for (double v : decoded) decoded_total += v;
  const double delivered = n(wire.frames_delivered);
  return {
      {"sim.events", events, "count"},
      {"sim.events_per_delivery", ratio(events, delivered), "ratio"},
      {"sim.queue_high_water", high_water, "count"},
      {"net.frames_sent", n(wire.frames_sent), "count"},
      {"net.frames_delivered", delivered, "count"},
      {"net.bytes_sent", n(wire.bytes_sent), "bytes"},
      {"net.frames_lost", n(wire.frames_lost), "count"},
      {"net.frames_unreachable", n(wire.frames_unreachable), "count"},
      {"net.fanout", ratio(delivered, n(wire.frames_sent)), "ratio"},
      {"wire.decoded.beacon", dec(proto::MsgType::kBeacon), "count"},
      {"wire.decoded.heartbeat", dec(proto::MsgType::kHeartbeat), "count"},
      {"wire.decoded.prepare", dec(proto::MsgType::kPrepare), "count"},
      {"wire.decoded.commit", dec(proto::MsgType::kCommit), "count"},
      {"wire.decoded.suspect", dec(proto::MsgType::kSuspect), "count"},
      {"wire.decoded.probe", dec(proto::MsgType::kProbe), "count"},
      {"wire.decoded.membership_report",
       dec(proto::MsgType::kMembershipReport), "count"},
      {"wire.decoded.domain_report", dec(proto::MsgType::kDomainReport),
       "count"},
      {"wire.dropped", dropped, "count"},
      {"daemon.datagrams", decoded_total + dropped, "count"},
      {"daemon.reports_sent", reports_sent, "count"},
      {"daemon.frames_dropped", frames_dropped, "count"},
      {"amg.beacons_sent", n(amg.beacons_sent), "count"},
      {"amg.commits", n(amg.commits), "count"},
      {"amg.joins_requested", n(amg.joins_requested), "count"},
      {"amg.takeovers", n(amg.takeovers), "count"},
      {"amg.resets", n(amg.resets), "count"},
      {"amg.twopc_aborts", n(taps.count(obs::TraceKind::kTwoPcAbort)),
       "count"},
      {"fd.suspicions", n(amg.suspicions_raised), "count"},
      {"fd.probes_sent", n(amg.probes_sent), "count"},
      {"fd.false_suspicion_ratio",
       ratio(n(amg.probes_refuted), n(amg.probes_sent)), "ratio"},
      {"fd.deaths_declared", n(amg.deaths_declared), "count"},
      {"central.reports_received", gsc_reports, "count"},
      {"central.reports_applied",
       n(taps.count(obs::TraceKind::kGscReportApplied)), "count"},
      {"central.dup_ratio",
       ratio(n(taps.count(obs::TraceKind::kGscReportDup)), gsc_reports),
       "ratio"},
      {"central.failures_committed",
       n(taps.count(obs::TraceKind::kFailureCommitted)), "count"},
      {"central.move_node_us", median(extras.move_us), "us"},
      {"uplink.reports_sent", uplink_reports, "count"},
      {"root.reports_received", root_reports, "count"},
      {"root.need_fulls_sent", need_fulls, "count"},
      {"shard.frames_forwarded", forwarded, "count"},
      {"shard.epochs", epochs, "count"},
      {"shard.events_max_over_mean",
       ratio(max_events, events / static_cast<double>(d.farms().size())),
       "ratio"},
      {"farm.check_s", extras.check_s, "s"},
  };
}

// --- Ground truth ------------------------------------------------------------

// Central and RootCentral adapter tables against the fabric's healthy
// adapters, across every shard. Each table must record exactly the healthy
// adapters of the segments it covers as alive: none missing, none extra.
void check_tables(const std::vector<farm::Farm*>& farms,
                  std::vector<std::string>& errors, const std::string& when) {
  std::map<util::VlanId, std::vector<util::IpAddress>> healthy;
  for (farm::Farm* f : farms)
    for (util::VlanId vlan : f->vlans())
      for (util::AdapterId id : f->healthy_adapters_in_vlan(vlan))
        healthy[vlan].push_back(f->fabric().adapter(id).ip());

  auto expect = [&](const std::string& who, const auto* table,
                    const std::vector<util::VlanId>& vlans) {
    if (table == nullptr) {
      errors.push_back(when + ": no active " + who);
      return;
    }
    std::size_t count = 0;
    for (util::VlanId vlan : vlans) {
      auto it = healthy.find(vlan);
      if (it == healthy.end()) continue;
      for (util::IpAddress ip : it->second) {
        ++count;
        const auto status = table->adapter_status(ip);
        if (!status || !status->alive)
          errors.push_back(when + ": " + who + " does not record healthy " +
                           ip.to_string() + " alive");
      }
    }
    if (table->alive_adapter_count() != count)
      errors.push_back(when + ": " + who + " records " +
                       std::to_string(table->alive_adapter_count()) +
                       " adapters alive, ground truth has " +
                       std::to_string(count));
  };

  const farm::FarmSpec& spec = farms.front()->spec();
  if (!spec.is_hierarchical()) {
    std::vector<util::VlanId> all;
    for (const auto& [vlan, ips] : healthy) all.push_back(vlan);
    expect("Central",
           first_of(farms, [](farm::Farm& f) { return f.active_central(); }),
           all);
    return;
  }
  expect("root-tier Central", first_of(farms, [](farm::Farm& f) {
           return f.active_root_tier_central();
         }),
         {farm::admin_vlan()});
  std::vector<util::VlanId> domain_vlans;
  for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(spec.hier_domains);
       ++d) {
    const std::vector<util::VlanId> vlans = {farm::domain_admin_vlan(d),
                                             farm::internal_vlan(d)};
    domain_vlans.insert(domain_vlans.end(), vlans.begin(), vlans.end());
    expect("domain " + std::to_string(d) + " Central",
           first_of(farms,
                    [d](farm::Farm& f) { return f.active_domain_central(d); }),
           vlans);
  }
  expect("RootCentral",
         first_of(farms, [](farm::Farm& f) { return f.active_root_central(); }),
         domain_vlans);
}

void digest_tables(const std::vector<farm::Farm*>& farms, Fnv& fnv) {
  auto add = [&fnv](const proto::Central* c) {
    if (c == nullptr) return fnv.add(0);
    for (const proto::Central::AdapterStatus& row : c->adapter_table()) {
      fnv.add(row.info.ip.bits());
      fnv.add(row.alive);
      fnv.add(row.group_leader.bits());
      fnv.add(row.view);
    }
  };
  const farm::FarmSpec& spec = farms.front()->spec();
  if (!spec.is_hierarchical()) {
    add(first_of(farms, [](farm::Farm& f) { return f.active_central(); }));
    return;
  }
  add(first_of(farms,
               [](farm::Farm& f) { return f.active_root_tier_central(); }));
  for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(spec.hier_domains);
       ++d)
    add(first_of(farms,
                 [d](farm::Farm& f) { return f.active_domain_central(d); }));
  if (const proto::RootCentral* root = first_of(
          farms, [](farm::Farm& f) { return f.active_root_central(); })) {
    for (const proto::RootCentral::GroupInfo& g : root->groups()) {
      fnv.add(g.leader.bits());
      fnv.add(g.view);
      fnv.add(g.members.size());
    }
  }
}

// Every tier's Central has declared the initial topology stable; `when` is
// the latest declaration instant (Fig. 5's quantity for the whole farm).
bool gsc_stable(const std::vector<farm::Farm*>& farms, SimTime& when) {
  SimTime latest = 0;
  auto stable = [&latest](const proto::Central* c) {
    if (c == nullptr || !c->initial_topology_stable()) return false;
    latest = std::max(latest, c->stable_time());
    return true;
  };
  const farm::FarmSpec& spec = farms.front()->spec();
  if (!spec.is_hierarchical()) {
    if (!stable(first_of(farms,
                         [](farm::Farm& f) { return f.active_central(); })))
      return false;
  } else {
    if (!stable(first_of(farms, [](farm::Farm& f) {
          return f.active_root_tier_central();
        })))
      return false;
    if (first_of(farms, [](farm::Farm& f) {
          return f.active_root_central();
        }) == nullptr)
      return false;
    for (std::uint32_t d = 0;
         d < static_cast<std::uint32_t>(spec.hier_domains); ++d)
      if (!stable(first_of(farms, [d](farm::Farm& f) {
            return f.active_domain_central(d);
          })))
        return false;
  }
  when = latest;
  return true;
}

// --- Fault schedule ----------------------------------------------------------

struct Fault {
  enum class Kind : std::uint8_t { kNode, kSwitch, kFailover, kMove };
  Kind kind = Kind::kNode;
  SimTime at = 0;     // scheduled injection
  SimTime until = 0;  // scheduled recovery; moves have none
  std::size_t node = 0;
  util::SwitchId sw;
  std::uint32_t domain = 0;  // failover: the domain whose Central dies
  // Move: every (adapter, new VLAN) pair handed to Central::move_node.
  std::vector<std::pair<util::AdapterId, util::VlanId>> moves;
  std::vector<util::IpAddress> ips;  // adapters timed for detect/recover
  SimTime injected = -1;
  SimTime recovered = -1;
  bool ok = true;  // failover and move outcome
};

// Open-loop schedule in simulated time, drawn from the seed: arrivals come
// at fixed simulated instants whatever the program does, so the generator is
// never late. Faults never overlap within one key (a domain, or a node of a
// flat farm), which keeps every injected fault individually detectable.
class Planner {
 public:
  Planner(const Shape& shape, const Deployment& d, std::uint64_t seed)
      : shape_(shape), farm_(*d.farms().front()), rng_(seed ^ 0xFA17ull) {
    hier_ = shape.spec.is_hierarchical();
    for (std::size_t i = 0; i < farm_.node_count(); ++i) {
      if (farm_.role(i) != farm::NodeRole::kGeneric) continue;
      candidates_[key_of(i)].push_back(i);
    }
    if (!hier_) {
      // The two highest admin IPs host Central and its standby.
      for (std::size_t i = farm_.node_count() - 2; i < farm_.node_count(); ++i)
        candidates_.erase(key_of(i));
    }
  }

  std::vector<Fault> plan(SimTime t0) {
    std::vector<Fault> faults;
    const SimDuration margin = sim::seconds(30);
    if (shape_.switch_loss) plan_switch(t0 + sim::seconds(10), margin, faults);
    if (shape_.gsc_failover) {
      const SimTime at = t0 + sim::seconds(20);
      auto d = pick_key(at, [](std::uint32_t) { return true; });
      auto host = d ? farm_.expected_domain_gsc_node(*d) : std::nullopt;
      if (host) {
        Fault f;
        f.kind = Fault::Kind::kFailover;
        f.at = at;
        f.until = at + sim::seconds(40);
        f.domain = *d;
        f.node = *host;
        hold(*d, f.until + margin);
        faults.push_back(f);
      }
    }
    const SimDuration window =
        shape_.fault_spacing * std::max(shape_.node_faults, 1);
    for (int m = 0; m < shape_.moves; ++m) {
      const SimTime at = t0 + sim::seconds(5) + window * m / shape_.moves;
      plan_move(at, margin, faults);
    }
    for (int k = 0; k < shape_.node_faults; ++k) {
      const SimTime at = t0 + sim::seconds(2) + shape_.fault_spacing * k;
      auto key = pick_key(at, [](std::uint32_t) { return true; });
      if (!key) continue;
      Fault f;
      f.at = at;
      f.until = at + rng_.range(shape_.down_min, shape_.down_max);
      f.node = pick(candidates_.at(*key));
      f.ips = ips_of(f.node);
      hold(*key, f.until + margin);
      faults.push_back(f);
    }
    return faults;
  }

 private:
  std::uint32_t key_of(std::size_t node) const {
    return hier_ ? farm_.domain_of(node).value()
                 : static_cast<std::uint32_t>(node);
  }
  util::IpAddress ip_of(std::size_t node) const {
    return farm_.fabric().adapter(farm_.node_adapters(node)[1]).ip();
  }
  std::vector<util::IpAddress> ips_of(std::size_t node) const {
    std::vector<util::IpAddress> ips;
    for (util::AdapterId id : farm_.node_adapters(node))
      ips.push_back(farm_.fabric().adapter(id).ip());
    return ips;
  }
  bool free(std::uint32_t key, SimTime at) const {
    auto it = busy_.find(key);
    return it == busy_.end() || it->second <= at;
  }
  void hold(std::uint32_t key, SimTime until) {
    busy_[key] = std::max(busy_[key], until);
  }
  std::size_t pick(const std::vector<std::size_t>& v) {
    return v[rng_.below(v.size())];
  }
  template <typename Pred>
  std::optional<std::uint32_t> pick_key(SimTime at, Pred pred) {
    std::vector<std::uint32_t> keys;
    for (const auto& [key, nodes] : candidates_)
      if (free(key, at) && pred(key)) keys.push_back(key);
    if (keys.empty()) return std::nullopt;
    return keys[rng_.below(keys.size())];
  }

  void plan_switch(SimTime at, SimDuration margin, std::vector<Fault>& out) {
    net::Fabric& fabric = farm_.fabric();
    std::vector<std::pair<util::SwitchId, std::set<std::uint32_t>>> usable;
    for (util::SwitchId sw : fabric.all_switches()) {
      std::set<std::uint32_t> keys;
      bool workers_only = true;
      for (util::AdapterId id : fabric.nic_switch(sw).wired_adapters()) {
        const std::size_t node = fabric.adapter(id).node().value();
        workers_only &= farm_.role(node) == farm::NodeRole::kGeneric;
        keys.insert(key_of(node));
      }
      if (workers_only && !keys.empty()) usable.emplace_back(sw, keys);
    }
    if (usable.empty()) return;
    const auto& [sw, keys] = usable[rng_.below(usable.size())];
    Fault f;
    f.kind = Fault::Kind::kSwitch;
    f.at = at;
    f.until = at + sim::seconds(30);
    f.sw = sw;
    for (util::AdapterId id : fabric.nic_switch(sw).wired_adapters())
      f.ips.push_back(fabric.adapter(id).ip());
    for (std::uint32_t key : keys) hold(key, f.until + margin);
    out.push_back(f);
  }

  // Moves to higher-numbered segments: a moved adapter keeps its IP, so it
  // joins below the target's members and never displaces their leader. In a
  // hierarchical farm the whole worker node changes domain (both adapters);
  // in a flat farm one data adapter changes segment.
  void plan_move(SimTime at, SimDuration margin, std::vector<Fault>& out) {
    Fault f;
    f.kind = Fault::Kind::kMove;
    f.at = at;
    if (hier_) {
      const std::uint32_t last =
          static_cast<std::uint32_t>(shape_.spec.hier_domains) - 1;
      auto from = pick_key(at, [last](std::uint32_t k) { return k < last; });
      if (!from) return;
      auto to = pick_key(at, [&](std::uint32_t k) { return k > *from; });
      if (!to) return;
      std::vector<std::size_t>& workers = candidates_.at(*from);
      // Never the data segment's leader, its highest-IP worker: a moved
      // leader merges its stale group into the target AMG and leaves two
      // memberships under one view number (README.md, "Known behaviour").
      const auto leader = std::max_element(
          workers.begin(), workers.end(), [this](std::size_t a, std::size_t b) {
            return ip_of(a) < ip_of(b);
          });
      std::size_t i = rng_.below(workers.size() - 1);
      if (i >= static_cast<std::size_t>(leader - workers.begin())) ++i;
      f.node = workers[i];
      // A moved node keeps its stale view for ~30 s before it joins its new
      // domain, and it no longer belongs to the domain it was listed under:
      // it takes no further faults.
      workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(i));
      const auto& ids = farm_.node_adapters(f.node);
      f.moves = {{ids[0], farm::domain_admin_vlan(*to)},
                 {ids[1], farm::internal_vlan(*to)}};
      hold(*from, at + 2 * margin);
      hold(*to, at + 2 * margin);
    } else {
      auto key = pick_key(at, [](std::uint32_t) { return true; });
      if (!key) return;
      f.node = *key;
      f.moves = {{farm_.node_adapters(f.node)[1], farm::uniform_vlan(2)}};
      hold(*key, at + margin);
    }
    f.domain = hier_ ? key_of(f.node) : 0;
    out.push_back(f);
  }

  const Shape& shape_;
  farm::Farm& farm_;
  util::Rng rng_;
  bool hier_ = false;
  std::map<std::uint32_t, std::vector<std::size_t>> candidates_;
  std::map<std::uint32_t, SimTime> busy_;
};

// --- Spans -------------------------------------------------------------------

class Tracer {
 public:
  Tracer(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}
  [[nodiscard]] bool on() const { return on_; }

  std::size_t open(std::string_view name, std::string_view phase) {
    if (!on_) return 0;
    Span span;
    span.id = spans_.size() + 1;
    span.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    span.name = name;
    span.phase = phase;
    span.start_s = seconds_since(origin_);
    stack_.push_back(spans_.size());
    spans_.push_back(std::move(span));
    return stack_.back();
  }
  void close(std::size_t index, SimTime sim_now, std::vector<Metric> counters) {
    Span& span = spans_[index];
    span.end_s = seconds_since(origin_);
    span.sim_end_us = sim_now;
    span.counters = std::move(counters);
    stack_.pop_back();
  }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// --- One life cycle ----------------------------------------------------------

struct CycleResult {
  std::vector<double> setup_s;
  std::vector<double> boot_wall_s;
  double timed_wall_s = 0;  // boot + fault window + steady window
  SimTime stable = 0;
  std::vector<double> churn_rates;   // host s per sim s, per slice
  std::vector<double> steady_rates;
  std::vector<SimDuration> detect;
  std::vector<SimDuration> recover;
  double frames_per_adapter_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> misses;
  std::uint64_t digest = 0;
  std::vector<Metric> layers;
  std::vector<Span> spans;
};

class Cycle {
 public:
  Cycle(const Shape& shape, std::uint64_t seed, bool detect, bool traced,
        Clock::time_point origin, HostProbe& probe)
      : shape_(shape),
        probe_(probe),
        seed_(seed),
        detect_(detect),
        tracer_(traced, origin) {}

  // The steady window keeps slicing until `budget_end`, past its fixed
  // prefix of min_slices.
  CycleResult run(int boots, Clock::time_point budget_end) {
    const std::size_t root = tracer_.open("life_cycle", "all");
    setup();
    if (boot(boots) && settle("boot") && faults() && settle("quiesce")) {
      digest_tables(d_->farms(), fnv_);
      steady(budget_end);
      check("steady");
    }
    out_.digest = fnv_.h;
    if (tracer_.on()) {
      tracer_.close(root, d_->now(), snapshot());
      out_.layers = layer_counters(*d_, *taps_, extras_);
      out_.spans = tracer_.take();
    }
    return std::move(out_);
  }

 private:
  // Wraps one call into the program in a span (traced mode only).
  template <typename Fn>
  void call(std::string_view name, std::string_view phase, Fn&& fn) {
    const std::size_t span = tracer_.open(name, phase);
    fn();
    if (tracer_.on()) tracer_.close(span, d_->now(), snapshot());
  }

  std::vector<Metric> snapshot() {
    std::vector<Metric> counters = layer_counters(*d_, *taps_, extras_);
    for (std::size_t k = 0; k < kKinds; ++k) {
      const auto kind = static_cast<obs::TraceKind>(k);
      counters.push_back({"trace." + std::string(obs::to_string(kind)),
                          static_cast<double>(taps_->count(kind)), "count"});
    }
    return counters;
  }

  // Builds a fresh deployment (timed into setup_s) with its trace taps.
  void rebuild() {
    taps_.reset();
    d_.reset();  // one deployment alive at a time
    const std::size_t span = tracer_.open("build", "setup");
    const Clock::time_point t0 = Clock::now();
    d_ = build(shape_, seed_);
    out_.setup_s.push_back(probe_.normalize(seconds_since(t0)));
    taps_ = std::make_unique<Taps>(*d_, detect_, tracer_.on());
    if (tracer_.on()) tracer_.close(span, d_->now(), snapshot());
  }

  void setup() {
    const std::size_t phase = tracer_.open("setup", "setup");
    for (int b = 0; b < shape_.setup_builds; ++b) rebuild();
    if (tracer_.on()) tracer_.close(phase, d_->now(), snapshot());
  }

  // Cold start to GSC-stable, `boots` times on fresh deployments; every
  // boot must reach the same simulated outcome.
  bool boot(int boots) {
    for (int b = 0; b < boots; ++b) {
      if (b > 0) rebuild();
      const std::size_t phase = tracer_.open("boot", "boot");
      // Only the program's own calls are timed (not the stability check),
      // in chunks of 1 sim-s, each normalized by its own probe.
      double wall = 0;
      double chunk = 0;
      int steps = 0;
      auto timed = [&chunk](auto&& fn) {
        const Clock::time_point t0 = Clock::now();
        fn();
        chunk += seconds_since(t0);
      };
      timed([this] { call("start", "boot", [this] { d_->start(); }); });
      const SimTime deadline = sim::seconds(600);
      bool stable = false;
      SimTime when = 0;
      while (!stable && d_->now() < deadline) {
        timed([this] {
          call("run_until", "boot",
               [this] { d_->run_until(d_->now() + sim::milliseconds(100)); });
        });
        stable = gsc_stable(d_->farms(), when);
        if (++steps % 10 == 0 || stable) {
          wall += probe_.normalize(chunk);
          chunk = 0;
        }
      }
      out_.boot_wall_s.push_back(wall);
      out_.timed_wall_s += wall;
      if (tracer_.on()) tracer_.close(phase, d_->now(), snapshot());
      if (!stable) {
        out_.errors.push_back(
            "boot: Central never declared the topology stable");
        return false;
      }
      if (b > 0 && when != out_.stable) {
        out_.errors.push_back("boot: stable time differs between boots");
        return false;
      }
      out_.stable = when;
    }
    fnv_.add_time(out_.stable);
    return true;
  }

  // Ground truth after a phase: runs on (untimed, in 1 s steps, at most
  // 60 sim-s) until the farm converges, then checks every Central table.
  bool settle(const std::string& when) {
    const SimTime deadline = d_->now() + sim::seconds(60);
    while (!check_converged()) {
      if (d_->now() >= deadline) {
        out_.errors.push_back(when + ": farm did not converge");
        return false;
      }
      call("run_until", when,
           [this] { d_->run_until(d_->now() + sim::seconds(1)); });
    }
    return check(when);
  }

  bool check_converged() {
    bool converged = false;
    call("check", "check", [&] {
      const Clock::time_point t0 = Clock::now();
      converged = d_->converged();
      extras_.check_s += seconds_since(t0);
    });
    return converged;
  }

  bool check(const std::string& when) {
    const std::size_t before = out_.errors.size();
    if (!check_converged())
      out_.errors.push_back(when + ": farm not converged");
    call("check", "check", [&] {
      const Clock::time_point t0 = Clock::now();
      check_tables(d_->farms(), out_.errors, when);
      extras_.check_s += seconds_since(t0);
    });
    return out_.errors.size() == before;
  }

  bool faults() {
    const std::size_t phase = tracer_.open("faults", "faults");
    const SimTime t0 = d_->now();
    std::vector<Fault> plan = Planner(shape_, *d_, seed_).plan(t0);
    struct Action {
      SimTime at;
      std::size_t fault;
      bool inject;
    };
    std::vector<Action> actions;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      actions.push_back({plan[i].at, i, true});
      if (plan[i].kind != Fault::Kind::kMove)
        actions.push_back({plan[i].until, i, false});
    }
    std::stable_sort(
        actions.begin(), actions.end(),
        [](const Action& a, const Action& b) { return a.at < b.at; });
    const SimTime end =
        (actions.empty() ? t0 : actions.back().at) + shape_.quiesce;

    std::size_t next = 0;
    for (SimTime s = t0; s < end; s += shape_.slice) {
      const SimTime e = std::min(s + shape_.slice, end);
      const Clock::time_point w0 = Clock::now();
      while (next < actions.size() && actions[next].at <= e) {
        const Action& a = actions[next++];
        call("run_until", "faults", [&] { d_->run_until(a.at); });
        execute(plan[a.fault], a.inject);
      }
      call("run_until", "faults", [&] { d_->run_until(e); });
      const double wall = probe_.normalize(seconds_since(w0));
      out_.timed_wall_s += wall;
      out_.churn_rates.push_back(wall / sim::to_seconds(e - s));
    }
    if (tracer_.on()) tracer_.close(phase, d_->now(), snapshot());
    evaluate(plan);
    return true;
  }

  void execute(Fault& f, bool inject) {
    farm::Farm& farm0 = *d_->farms().front();
    switch (f.kind) {
      case Fault::Kind::kNode:
        if (inject) {
          call("fail_node", "faults", [&] { d_->fail_node(f.node); });
          f.injected = d_->now();
        } else {
          call("recover_node", "faults", [&] { d_->recover_node(f.node); });
          f.recovered = d_->now();
        }
        break;
      case Fault::Kind::kSwitch:
        if (inject) {
          call("fail_switch", "faults",
               [&] { farm0.fabric().fail_switch(f.sw); });
          f.injected = d_->now();
        } else {
          call("recover_switch", "faults",
               [&] { farm0.fabric().recover_switch(f.sw); });
          f.recovered = d_->now();
        }
        break;
      case Fault::Kind::kFailover:
        if (inject) {
          call("fail_node", "faults", [&] { d_->fail_node(f.node); });
          f.injected = d_->now();
        } else {
          // Before the old host returns, the standby must have taken over.
          const proto::Central* central =
              first_of(d_->farms(), [&f](farm::Farm& fm) {
                return fm.active_domain_central(f.domain);
              });
          const util::IpAddress old_ip =
              farm0.fabric().adapter(farm0.node_adapters(f.node)[0]).ip();
          f.ok = central != nullptr && central->self_ip() != old_ip;
          call("recover_node", "faults", [&] { d_->recover_node(f.node); });
          f.recovered = d_->now();
        }
        break;
      case Fault::Kind::kMove: {
        proto::Central* central =
            shape_.spec.is_hierarchical()
                ? first_of(d_->farms(),
                           [&f](farm::Farm& fm) {
                             return fm.active_domain_central(f.domain);
                           })
                : first_of(d_->farms(),
                           [](farm::Farm& fm) { return fm.active_central(); });
        bool moved = false;
        call("move_node", "faults", [&] {
          if (central == nullptr) return;
          const Clock::time_point t0 = Clock::now();
          moved = central->move_node(
              util::NodeId(static_cast<std::uint32_t>(f.node)), f.moves);
          extras_.move_us.push_back(seconds_since(t0) * 1e6);
        });
        f.ok = moved;
        f.injected = d_->now();
        break;
      }
    }
  }

  // Matches every fault against the Central decisions the masked tap saw.
  void evaluate(const std::vector<Fault>& plan) {
    std::map<util::IpAddress, std::vector<SimTime>> commits, alives;
    for (const ShardTap& tap : taps_->shards()) {
      for (const auto& [t, ip] : tap.commits) commits[ip].push_back(t);
      for (const auto& [t, ip] : tap.alives) alives[ip].push_back(t);
    }
    for (auto* m : {&commits, &alives})
      for (auto& [ip, times] : *m) std::sort(times.begin(), times.end());
    auto first_after = [](const auto& m, util::IpAddress ip, SimTime from) {
      auto it = m.find(ip);
      if (it == m.end()) return SimTime{-1};
      auto t = std::lower_bound(it->second.begin(), it->second.end(), from);
      return t == it->second.end() ? SimTime{-1} : *t;
    };
    farm::Farm& farm0 = *d_->farms().front();
    for (const Fault& f : plan) {
      fnv_.add(static_cast<std::uint64_t>(f.kind));
      fnv_.add_time(f.injected);
      switch (f.kind) {
        case Fault::Kind::kNode:
        case Fault::Kind::kSwitch:
          for (util::IpAddress ip : f.ips) {
            out_.attempted += 2;
            if (!detect_) continue;
            const SimTime c = first_after(commits, ip, f.injected);
            const SimTime a = first_after(alives, ip, f.recovered);
            fnv_.add_time(c);
            fnv_.add_time(a);
            if (c < 0 || c > f.recovered)
              miss(f, ip, "failure never committed while down");
            else
              out_.detect.push_back(c - f.injected);
            if (a < 0)
              miss(f, ip, "never marked alive after recovery");
            else
              out_.recover.push_back(a - f.recovered);
          }
          break;
        case Fault::Kind::kFailover:
          ++out_.attempted;
          fnv_.add(f.ok);
          if (!f.ok) miss(f, {}, "standby domain Central did not take over");
          break;
        case Fault::Kind::kMove: {
          ++out_.attempted;
          // Expected moves suppress the failure notification entirely.
          bool ok = f.ok;
          util::IpAddress bad;
          for (const auto& [id, vlan] : f.moves) {
            const util::IpAddress ip = farm0.fabric().adapter(id).ip();
            if (farm0.fabric().vlan_of(id) != vlan ||
                (detect_ && first_after(commits, ip, f.injected) >= 0)) {
              ok = false;
              bad = ip;
            }
          }
          fnv_.add(ok);
          if (!ok)
            miss(f, bad, f.ok ? "move not completed silently"
                              : "Central::move_node refused the move");
          break;
        }
      }
    }
  }

  void miss(const Fault& f, util::IpAddress ip, const char* what) {
    ++out_.failed;
    static constexpr const char* kKind[] = {"node", "switch", "failover",
                                            "move"};
    out_.misses.push_back(std::string(kKind[static_cast<int>(f.kind)]) +
                          " fault at " + std::to_string(f.injected) +
                          " us (node " + std::to_string(f.node) + ", " +
                          ip.to_string() + "): " + what);
  }

  void steady(Clock::time_point budget_end) {
    const std::size_t phase = tracer_.open("steady", "steady");
    auto frames_sent = [this] {
      std::uint64_t n = 0;
      for (farm::Farm* f : d_->farms()) n += f->fabric().total_frames_sent();
      return n;
    };
    const std::uint64_t frames0 = frames_sent();
    const SimTime t0 = d_->now();
    for (int k = 0; k < shape_.min_slices || Clock::now() < budget_end; ++k) {
      const SimTime e = d_->now() + shape_.slice;
      const Clock::time_point w0 = Clock::now();
      call("run_until", "steady", [&] { d_->run_until(e); });
      const double wall = probe_.normalize(seconds_since(w0));
      out_.timed_wall_s += wall;
      out_.steady_rates.push_back(wall / sim::to_seconds(shape_.slice));
      if (k + 1 == shape_.min_slices) {
        const std::uint64_t frames = frames_sent() - frames0;
        fnv_.add(frames);
        out_.frames_per_adapter_s =
            static_cast<double>(frames) /
            static_cast<double>(shape_.spec.total_adapters()) /
            sim::to_seconds(d_->now() - t0);
      }
    }
    if (tracer_.on()) tracer_.close(phase, d_->now(), snapshot());
  }

  const Shape& shape_;
  HostProbe& probe_;
  std::uint64_t seed_;
  bool detect_;
  Tracer tracer_;
  std::unique_ptr<Deployment> d_;
  std::unique_ptr<Taps> taps_;  // declared after d_: unsubscribes first
  Extras extras_;
  Fnv fnv_;
  CycleResult out_;
};

}  // namespace

RunResult run_workload(const RunOptions& options) {
  const Shape shape = shape_of(options.workload);
  HostProbe probe;
  const Clock::time_point origin = Clock::now();
  const Clock::time_point budget_end =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(options.seconds));
  RunResult result;

  auto merge_outcomes = [&result](const CycleResult& c) {
    result.attempted += c.attempted;
    result.failed += c.failed;
    result.errors.insert(result.errors.end(), c.errors.begin(), c.errors.end());
    result.misses.insert(result.misses.end(), c.misses.begin(), c.misses.end());
  };

  if (options.traced) {
    // Same fixed-length life cycle twice: untraced for the overhead base,
    // then traced for the counters and spans.
    CycleResult base = Cycle(shape, options.seed, options.subscribe, false,
                             origin, probe).run(1, Clock::now());
    CycleResult traced = Cycle(shape, options.seed, options.subscribe, true,
                               origin, probe).run(1, Clock::now());
    merge_outcomes(traced);
    if (base.digest != traced.digest)
      result.errors.push_back("tracing changed the simulated outcome");
    result.metrics = std::move(traced.layers);
    result.metrics.push_back(
        {"obs.trace_overhead", ratio(traced.timed_wall_s, base.timed_wall_s),
         "ratio"});
    result.digest = traced.digest;
    result.spans = std::move(traced.spans);
    return result;
  }

  std::vector<CycleResult> cycles;
  do {
    // Repeated cycles (boot) each take the fixed steady prefix only.
    const Clock::time_point steady_end =
        shape.repeat ? Clock::now() : budget_end;
    cycles.push_back(Cycle(shape, options.seed, options.subscribe, false,
                           origin, probe).run(shape.boots, steady_end));
    merge_outcomes(cycles.back());
    if (cycles.back().digest != cycles.front().digest)
      result.errors.push_back("repeated life cycle diverged at a fixed seed");
  } while (shape.repeat && Clock::now() < budget_end && result.errors.empty());

  std::vector<double> setup, boot, churn, steady;
  for (const CycleResult& c : cycles) {
    setup.insert(setup.end(), c.setup_s.begin(), c.setup_s.end());
    boot.insert(boot.end(), c.boot_wall_s.begin(), c.boot_wall_s.end());
    churn.insert(churn.end(), c.churn_rates.begin(), c.churn_rates.end());
    steady.insert(steady.end(), c.steady_rates.begin(), c.steady_rates.end());
  }
  // Simulated-time outcomes repeat exactly across cycles; take the first.
  const CycleResult& first = cycles.front();
  result.digest = first.digest;
  result.metrics = {
      {"setup_s", median(setup), "s"},
      {"boot_wall_s", median(boot), "s"},
      {"steady_wall_per_sim_s", median(steady), "s/s"},
      {"churn_wall_per_sim_s", median(churn), "s/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"stable_sim_s", sim::to_seconds(first.stable), "s"},
      {"wire_frames_per_adapter_s", first.frames_per_adapter_s, "1/s"},
  };
  if (options.subscribe) {
    result.metrics.push_back(
        {"detect_p50_sim_ms", percentile_ms(first.detect, 0.5), "ms"});
    result.metrics.push_back(
        {"detect_p90_sim_ms", percentile_ms(first.detect, 0.9), "ms"});
    result.metrics.push_back(
        {"recover_p50_sim_ms", percentile_ms(first.recover, 0.5), "ms"});
    result.metrics.push_back(
        {"recover_p90_sim_ms", percentile_ms(first.recover, 0.9), "ms"});
  }
  return result;
}

}  // namespace gs::e2e

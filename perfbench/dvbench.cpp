// dvbench: the repository benchmark driver (see README.md).
//
//   dvbench --workload steady|churn|reconfig --seed N --seconds S
//           --trace 0|1 [--trace-out FILE]
//
// One process, one driver thread, closed loop: the next packet is sent
// only after the previous call returns. Set-up builds the Fig. 2 chain on
// the Fig. 9 placement through the public API six times (the median is
// setup_s): three times before the timed phase, giving the switch under
// test and two idle spares, and once after each of its three segments.
// The first of those is the oracle twin that replays the first block of
// the stream on the interpreter afterwards; the others are dropped. Host
// times are scaled to a reference host speed, gauged by a probe that runs
// in a child process forked at start (probe.hpp). The last
// stdout line is one JSON object: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "alloc_hook.hpp"
#include "control/auditor.hpp"
#include "control/channel.hpp"
#include "control/deployment.hpp"
#include "control/journal.hpp"
#include "control/live_update.hpp"
#include "control/replay_target.hpp"
#include "control/session.hpp"
#include "control/snapshot.hpp"
#include "cost/cost.hpp"
#include "explore/explorer.hpp"
#include "route/routing.hpp"
#include "sfc/header.hpp"
#include "sim/compiled/compiled_pipeline.hpp"
#include "sim/replay.hpp"
#include "probe.hpp"
#include "trace.hpp"

namespace dv = dejavu;
using perfbench::now_ns;
using perfbench::Tracer;

namespace {

// ---------------------------------------------------------------------------
// Workload constants. Changing any of them changes the benchmark.

/// Established flows (fig2_replay_flows splits them 50/30/20 over the
/// three paths, so ~4k are path-1 flows whose LB sessions set-up learns).
constexpr std::uint32_t kEstablishedFlows = 8192;
/// Packets per block: the stream of established traffic repeats every
/// block, the first block is the count window (exact counts, oracle
/// replay), and the traced run alternates traced and untraced blocks.
/// A multiple of kNewFlowEvery, kTickEvery and kUpdateEvery.
constexpr std::uint32_t kBlock = 16000;
/// churn: one brand-new path-1 flow per this many packets.
constexpr std::uint32_t kNewFlowEvery = 64;
/// churn: new flows generated before the timed phase; the timed phase
/// ends early if it uses them all.
constexpr std::uint32_t kFreshFlows = 65536;
/// churn: LB sessions of the most recent new flows kept installed. Each
/// new flow past this many evicts the oldest one's session after its own
/// call returns, so the session table stays at its set-up size plus this
/// however many new flows a run gets through.
constexpr std::size_t kLiveNewFlows = 64;
/// reconfig: an audit tick every kTickEvery packets, a hitless update
/// every kUpdateEvery packets.
constexpr std::uint32_t kTickEvery = 100;
constexpr std::uint32_t kUpdateEvery = 500;
/// Set-up repetitions (setup_s is their median) and timed segments:
/// three set-ups run before the timed phase (the switch under test and
/// two spares) and one after each segment.
constexpr int kSetupReps = 6;
constexpr int kSegments = kSetupReps - 3;
/// Probe ticks: this often during the timed phase, the host probe runs
/// and idle spare switches take the control events the workload's own
/// traffic lacks: kSpareNewFlows new flows on one (not in churn) and one
/// hitless update on the other (not in reconfig). Probe time is not
/// timed time.
constexpr std::int64_t kProbeEveryNs = 100'000'000;
constexpr int kSpareNewFlows = 8;
/// New flows generated for the spare switch; probes stop when used up.
constexpr std::uint32_t kSpareFreshFlows = 8192;
/// Spans kept by a traced run (32 B each).
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;
constexpr std::size_t kPayloads[] = {64, 512, 1400};

enum class Workload { kSteady, kChurn, kReconfig };

// Span names, in Tracer name-table order.
enum Name : std::uint16_t {
  kSetup,
  kBuild,
  kExplore,
  kCost,
  kPrefill,
  kSessionConnect,
  kCompile,
  kInject,
  kCompiledProcess,
  kServicePunts,
  kAuditorProcess,
  kAuditorTick,
  kSessionUpdate,
};
const std::vector<std::string> kNames = {
    "setup",
    "control.deployment.build",
    "explore.run",
    "cost.run",
    "setup.prefill",
    "setup.session_connect",
    "sim.compiled.compile",
    "driver.inject",
    "sim.compiled.process",
    "control.control_plane.service_punts",
    "control.auditor.process",
    "control.auditor.tick",
    "control.session.update",
};
// Span flags.
constexpr std::uint16_t kFlagRecompiled = 1;  ///< process() recompiled
constexpr std::uint16_t kFlagServiced = 2;    ///< service_punts() handled >= 1
constexpr std::uint16_t kFlagNewFlow = 4;     ///< inject of a new flow

// ---------------------------------------------------------------------------
// Traffic, generated from the seed before anything is timed.

struct Item {
  dv::net::Packet packet;
  std::uint16_t in_port = 0;
  std::uint16_t path = 0;
  bool new_flow = false;
};

struct Traffic {
  std::vector<dv::sim::ReplayFlow> flows;  ///< established; set-up prefills
  std::vector<Item> block;                 ///< kBlock established packets
  std::vector<Item> fresh;                 ///< churn's new flows, in order
  std::vector<Item> spare_fresh;           ///< new flows for the spare switch
};

Traffic make_traffic(Workload w, std::uint64_t seed) {
  Traffic t;
  t.flows = dv::control::fig2_replay_flows(kEstablishedFlows, seed);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::uniform_int_distribution<std::size_t> pick_flow(0, t.flows.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_payload(0, 2);
  t.block.reserve(kBlock);
  for (std::uint32_t i = 0; i < kBlock; ++i) {
    const dv::sim::ReplayFlow& f = t.flows[pick_flow(rng)];
    dv::net::PacketSpec spec = f.flow.spec;
    spec.payload_size = kPayloads[pick_payload(rng)];
    t.block.push_back(
        Item{dv::net::Packet::make(spec), f.in_port, f.path_id, false});
  }
  // New flows: the same service as the established path-1 flows, with
  // sources from a /16 that no established flow uses, so each is a flow
  // the switch has not seen.
  const auto path1 = std::find_if(t.flows.begin(), t.flows.end(),
                                  [](const auto& f) { return f.path_id == 1; });
  auto new_flows = [&](std::uint32_t count, std::uint8_t src_octet,
                       std::uint64_t mix_seed) {
    dv::sim::FlowMix mix;
    mix.flows = count;
    mix.dst = path1->flow.spec.ip_dst;
    mix.src_base = dv::net::Ipv4Addr(192, src_octet, 0, 0);
    mix.seed = mix_seed;
    std::vector<Item> items;
    items.reserve(count);
    for (auto& f : dv::sim::make_path_flows(mix, 1, path1->in_port)) {
      f.flow.spec.payload_size = kPayloads[pick_payload(rng)];
      items.push_back(
          Item{dv::net::Packet::make(f.flow.spec), f.in_port, 1, true});
    }
    return items;
  };
  if (w == Workload::kChurn) {
    t.fresh = new_flows(kFreshFlows, 172, seed * 0x100000001b3ull + 7);
  }
  t.spare_fresh = new_flows(kSpareFreshFlows, 173, seed * 0x100000001b3ull + 11);
  return t;
}

// ---------------------------------------------------------------------------
// One switch: deployment, controller session, compiled engine.

struct Switch {
  dv::control::Fig2Deployment fx;
  dv::cost::CostResult cost;
  std::unique_ptr<dv::control::SwitchAgent> agent;
  std::unique_ptr<dv::control::Channel> channel;
  std::unique_ptr<dv::control::Session> session;
  dv::control::Journal journal;
  dv::route::RoutingPlan full_plan;
  dv::route::RoutingPlan bypass_plan;
  bool on_bypass = false;
  std::unique_ptr<dv::sim::CompiledPipeline> compiled;

  dv::control::Deployment& dep() { return *fx.deployment; }
  dv::sim::DataPlane& dp() { return fx.deployment->dataplane(); }
  dv::control::ControlPlane& cp() { return fx.deployment->control(); }

  /// The routing diff that moves the chain to its other plan.
  dv::control::RuleDiff next_diff() {
    return on_bypass
               ? dv::control::routing_rule_diff(bypass_plan, full_plan, dp())
               : dv::control::routing_rule_diff(full_plan, bypass_plan, dp());
  }
};

/// The Fig. 2 policies with the load balancer taken out of every chain,
/// routed on the same placement.
dv::route::RoutingPlan lb_bypass_plan(dv::control::Deployment& dep) {
  dv::sfc::PolicySet reduced;
  for (const dv::sfc::ChainPolicy& p : dep.policies().policies()) {
    dv::sfc::ChainPolicy rp = p;
    std::erase(rp.nfs, std::string(dv::sfc::kLoadBalancer));
    reduced.add(std::move(rp));
  }
  dv::route::RoutingPlan plan = dv::route::build_routing(
      reduced, dep.placement(), dep.dataplane().config());
  if (!plan.feasible) {
    throw std::runtime_error("LB-bypass plan infeasible: " +
                             plan.infeasible_reason);
  }
  return plan;
}

/// Opens a span when tracing; a no-op otherwise.
struct Scope {
  Tracer* tr;
  std::uint32_t id;
  Scope(Tracer* t, Name name, std::uint32_t packet)
      : tr(t), id(t ? t->begin(name, packet) : 0) {}
  void close(std::uint16_t flags = 0) {
    if (tr) tr->end(id, flags);
    tr = nullptr;
  }
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

double us_since(std::int64_t t0) { return (now_ns() - t0) / 1e3; }

/// Runs the host probe in a child process forked at construction, once
/// per call(), while the caller waits. The child keeps the heap it was
/// forked with, so nothing the parent allocates or frees afterwards
/// changes the probe's work.
class ProbeChild {
 public:
  ProbeChild() {
    int down[2], up[2];
    if (pipe(down) != 0 || pipe(up) != 0) throw std::runtime_error("pipe failed");
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      close(down[1]);
      close(up[0]);
      serve(down[0], up[1]);
    }
    close(down[0]);
    close(up[1]);
    to_child_ = down[1];
    from_child_ = up[0];
  }

  ~ProbeChild() {
    close(to_child_);  // the child exits at end of input
    close(from_child_);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  ProbeChild(const ProbeChild&) = delete;
  ProbeChild& operator=(const ProbeChild&) = delete;

  /// One probe's duration in microseconds; nullopt if the child failed.
  std::optional<double> call() {
    const char go = 'p';
    double us = -1;
    if (write(to_child_, &go, 1) != 1 ||
        read(from_child_, &us, sizeof us) != sizeof us || us < 0) {
      return std::nullopt;
    }
    return us;
  }

 private:
  [[noreturn]] static void serve(int in, int out) {
    char cmd = 0;
    while (read(in, &cmd, 1) == 1) {
      double us = -1;
      try {
        us = perfbench::run_host_probe_us();
      } catch (...) {
      }
      if (write(out, &us, sizeof us) != sizeof us) break;
    }
    _exit(0);
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

/// The host's speed, from the median of the last kWindow probes (one
/// probe alone is noisy). `scale` turns a host time measured now into
/// the time on the reference host. The probe runs in a child forked
/// before anything else, on a small heap the program never touches.
class HostSpeed {
 public:
  static constexpr std::size_t kWindow = 5;
  double scale = 1;
  std::vector<double> probe_us;

  void sample(int probes = 1) {
    for (int i = 0; i < probes; ++i) {
      const std::optional<double> us = probe_.call();
      if (!us) throw std::runtime_error("host probe process failed");
      probe_us.push_back(*us);
    }
    const std::size_t n = std::min(kWindow, probe_us.size());
    scale = perfbench::kProbeReferenceUs /
            perfbench::median(std::vector<double>(probe_us.end() - n,
                                                  probe_us.end()));
  }

 private:
  ProbeChild probe_;
};

/// Host-time samples as measured and scaled to the reference host.
struct Samples {
  std::vector<double> raw, scaled;
  void add(double us, double scale) {
    raw.push_back(us);
    scaled.push_back(us * scale);
  }
};

/// Set-up, in order: gated build (verify), explorer, cost certifier,
/// session prefill, controller session, compile.
std::unique_ptr<Switch> set_up(const Traffic& traffic, Tracer* tr) {
  auto sw = std::make_unique<Switch>();
  Scope setup(tr, kSetup, 0);
  {
    Scope s(tr, kBuild, 0);
    sw->fx = dv::control::make_fig9_deployment();
  }
  const dv::explore::ExploreResult* exploration = nullptr;
  {
    Scope s(tr, kExplore, 0);
    exploration = &sw->dep().run_explorer();
  }
  if (!exploration->report.ok()) {
    throw std::runtime_error("explorer reported errors");
  }
  {
    Scope s(tr, kCost, 0);
    dv::cost::CostOptions options;
    options.routing = &sw->dep().routing();
    sw->cost = dv::cost::run(sw->dp(), sw->fx.policies, *exploration, options);
  }
  if (!sw->cost.report.ok()) {
    throw std::runtime_error("cost certifier reported errors");
  }
  {
    Scope s(tr, kPrefill, 0);
    for (const dv::sim::ReplayFlow& f : traffic.flows) {
      const dv::sim::SwitchOutput out =
          sw->cp().inject(f.flow.packet(), f.in_port);
      if (!out.delivered() || out.dropped || !out.to_cpu.empty()) {
        throw std::runtime_error("prefill packet not delivered");
      }
    }
  }
  {
    Scope s(tr, kSessionConnect, 0);
    dv::sim::DataPlane& dp = sw->dp();
    sw->agent = std::make_unique<dv::control::SwitchAgent>(dp);
    dv::control::SwitchAgent* agent = sw->agent.get();
    sw->channel = std::make_unique<dv::control::Channel>(
        dv::sim::FaultPlan{},
        [agent](const dv::control::SessionMsg& m) { return agent->handle(m); });
    auto mirror = std::make_unique<dv::sim::DataPlane>(dp.program(), dp.ids(),
                                                       dp.config());
    if (!dv::control::restore_snapshot(dv::control::take_snapshot(dp), *mirror)
             .empty()) {
      throw std::runtime_error("session mirror restore incomplete");
    }
    sw->session = std::make_unique<dv::control::Session>(*sw->channel,
                                                         std::move(mirror));
    if (!sw->session->hello()) throw std::runtime_error("session hello failed");
    sw->full_plan = sw->dep().routing();
    sw->bypass_plan = lb_bypass_plan(sw->dep());
  }
  {
    Scope s(tr, kCompile, 0);
    sw->compiled = std::make_unique<dv::sim::CompiledPipeline>(
        sw->dp(), dv::explore::compile_seed(*exploration));
  }
  if (!sw->compiled->compiled_ok()) {
    throw std::runtime_error("compile failed: " + sw->compiled->compile_error());
  }
  return sw;
}

// ---------------------------------------------------------------------------
// Per-packet checks.

/// What the switch did with a packet, as the checks compare it.
struct Outcome {
  bool delivered = false;
  bool dropped = false;
  dv::sim::DropCode drop_code = dv::sim::DropCode::kNone;
  std::uint16_t first_port = 0;
  std::size_t emissions = 0;
  std::size_t punts_left = 0;
  std::uint32_t recirculations = 0;
  std::uint32_t resubmissions = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const dv::sim::SwitchOutput& out) {
  Outcome o;
  o.delivered = out.delivered();
  o.dropped = out.dropped;
  o.drop_code = out.drop_code;
  o.first_port = out.out.empty() ? 0 : out.out.front().port;
  o.emissions = out.out.size();
  o.punts_left = out.to_cpu.size();
  o.recirculations = out.recirculations;
  o.resubmissions = out.resubmissions;
  return o;
}

/// Per-path tallies for the §4 model and the report.
struct PathTally {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::vector<std::uint32_t> loop_pipelines;  ///< first delivered packet's
  bool have_loop = false;
};

// ---------------------------------------------------------------------------
// The timed phase.

/// Counts over the first block (the count window), so they repeat
/// exactly between runs of one seed. Collected by traced runs only.
struct WindowCounts {
  // sim.compiled
  std::uint64_t process_calls = 0;  ///< calls that did not recompile
  std::uint64_t process_allocs = 0;
  std::uint64_t all_process_calls = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t recompiles = 0;
  // control.control_plane
  std::uint64_t punts = 0;
  std::uint64_t punt_allocs = 0;
  // control.auditor
  std::uint64_t audit_calls = 0;
  std::uint64_t audit_allocs = 0;
  // control.session
  std::uint64_t writes = 0;
  std::uint64_t write_attempts = 0;
};

struct RunResult {
  std::uint64_t packets = 0;
  std::uint64_t updates = 0;
  std::uint64_t spare_ops = 0;  ///< spare-switch new flows and updates
  std::uint64_t failed = 0;
  double active_s = 0;  ///< timed time, set-up and probe pauses excluded
  double scaled_active_s = 0;
  perfbench::Histogram latency, scaled_latency;
  Samples new_flow_us;
  Samples update_us;
  // Over the count window.
  std::uint64_t delivered = 0;
  std::uint64_t recirculations = 0;
  std::map<std::uint16_t, PathTally> paths;
  std::uint64_t findings = 0;
  bool fresh_exhausted = false;
  // Traced runs only.
  WindowCounts window;
  std::int64_t traced_ns = 0, untraced_ns = 0;
  std::uint64_t traced_pkts = 0, untraced_pkts = 0;
  std::vector<std::string> errors;
};

/// One session-routed hitless update of `sw` to its other plan. Returns
/// its duration in microseconds, or nullopt if it did not commit.
std::optional<double> hitless_update(Switch& sw) {
  const dv::control::RuleDiff diff = sw.next_diff();
  const std::int64_t t0 = now_ns();
  const dv::control::UpdateReport rep =
      dv::control::run_update_via_session(*sw.session, diff, &sw.journal);
  const double us = us_since(t0);
  if (!rep.committed) return std::nullopt;
  sw.on_bypass = !sw.on_bypass;
  return us;
}

/// Removes the LB session with `key` from every instance of the session
/// table; false if some instance did not hold it.
bool remove_lb_session(Switch& sw, std::uint32_t key) {
  bool ok = true;
  for (dv::sim::RuntimeTable* t : sw.dp().tables_named("LB.lb_session")) {
    ok = t->remove_exact({key}) && ok;
  }
  return ok;
}

/// A packet's first outcome class is learned when first seen and every
/// later packet of the class must match it; the oracle replay checks the
/// first block, where every class first appears.
struct OutcomeBook {
  std::map<int, Outcome> expected;
  std::map<int, std::uint64_t> first_seen;  ///< packet index

  bool check(int key, const Outcome& o, std::uint64_t index) {
    auto [it, fresh] = expected.emplace(key, o);
    if (fresh) first_seen.emplace(key, index);
    return fresh || it->second == o;
  }
};

class Driver {
 public:
  /// The spares are idle switches that take the control events the
  /// workload's traffic lacks (see kSpareNewFlows).
  Driver(Workload w, Switch& sw, Switch& flow_spare, Switch& update_spare,
         const Traffic& traffic, Tracer* tracer, HostSpeed& host)
      : w_(w), sw_(sw), flow_spare_(flow_spare), update_spare_(update_spare),
        traffic_(traffic), tracer_(tracer), host_(host) {
    if (w_ == Workload::kReconfig) {
      auditor_ = std::make_unique<dv::control::Auditor>(
          sw_.dp(), sw_.session->mirror());
    }
  }

  /// Drive the stream for `seconds` of timed time, split into kSegments
  /// equal segments; `between` runs, untimed, after each segment.
  RunResult run(double seconds, const std::function<void()>& between) {
    RunResult r;
    window_out_.reserve(kBlock);
    const auto segment_ns = static_cast<std::int64_t>(seconds * 1e9 / kSegments);
    std::size_t next_fresh = 0;
    std::uint64_t i = 0;
    std::int64_t active_ns = 0;
    for (int seg = 0; seg < kSegments; ++seg) {
      host_.sample(HostSpeed::kWindow);
      std::int64_t seg_ns = 0;
      std::int64_t last_probe = now_ns();
      std::int64_t t_prev = last_probe;
      // The first segment runs at least the whole count window.
      while (seg_ns < segment_ns || i < kBlock) {
        if (t_prev - last_probe >= kProbeEveryNs) {
          host_.sample();
          spare_events(r);
          t_prev = last_probe = now_ns();
        }
        if (i == kBlock) window_done(r);
        // Odd blocks run untraced: their pps against the traced blocks'
        // is trace.overhead_frac.
        Tracer* tr = (tracer_ && (i / kBlock) % 2 == 0) ? tracer_ : nullptr;
        const Item* item = &traffic_.block[i % kBlock];
        if (w_ == Workload::kChurn && i % kNewFlowEvery == kNewFlowEvery - 1) {
          if (next_fresh == traffic_.fresh.size()) {
            r.fresh_exhausted = true;
            break;
          }
          item = &traffic_.fresh[next_fresh++];
        }
        if (w_ == Workload::kReconfig && i > 0) {
          if (i % kTickEvery == 0) tick(r, tr, i);
          if (i % kUpdateEvery == 0) {
            ++r.updates;
            Scope s(tr, kSessionUpdate, static_cast<std::uint32_t>(i));
            const auto us = hitless_update(sw_);
            s.close();
            if (us) {
              r.update_us.add(*us, host_.scale);
            } else {
              fail(r, "update did not commit");
            }
          }
        }
        const std::int64_t t = one_packet(r, tr, *item, i);
        seg_ns += t - t_prev;
        r.scaled_active_s += (t - t_prev) * host_.scale / 1e9;
        if (tracer_) {
          (tr ? r.traced_ns : r.untraced_ns) += t - t_prev;
          ++(tr ? r.traced_pkts : r.untraced_pkts);
        }
        t_prev = t;
        ++i;
      }
      active_ns += seg_ns;
      between();
      if (r.fresh_exhausted) break;
    }
    if (i <= kBlock) window_done(r);
    r.active_s = active_ns / 1e9;
    r.packets = i;
    if (auditor_) r.findings = auditor_->findings().size();
    r.failed += r.findings;
    return r;
  }

  /// Replay the first block on the oracle twin's interpreter and compare
  /// every output. Returns the number of mismatching packets.
  std::uint64_t oracle_check(Switch& twin, RunResult& r) {
    std::uint64_t bad = 0;
    std::size_t next_fresh = 0;
    std::size_t next_eviction = 0;
    for (std::uint64_t i = 0; i < window_out_.size(); ++i) {
      const Item* item = &traffic_.block[i];
      if (w_ == Workload::kChurn && i % kNewFlowEvery == kNewFlowEvery - 1) {
        item = &traffic_.fresh[next_fresh++];
      }
      if (w_ == Workload::kReconfig && i > 0 && i % kUpdateEvery == 0) {
        dv::control::LiveUpdate direct(twin.dp());
        if (!direct.run(twin.next_diff()).committed) {
          r.errors.push_back("oracle twin update did not commit");
          return window_out_.size();
        }
        twin.on_bypass = !twin.on_bypass;
      }
      const dv::sim::SwitchOutput ref =
          w_ == Workload::kReconfig
              ? twin.dp().process(item->packet, item->in_port)
              : twin.cp().inject(item->packet, item->in_port);
      if (!dv::sim::semantically_equal(window_out_[i], ref)) {
        if (bad == 0) {
          r.errors.push_back("packet " + std::to_string(i) +
                             " differs from the interpreter oracle");
        }
        ++bad;
      }
      for (; next_eviction < evictions_.size() &&
             evictions_[next_eviction].first == i;
           ++next_eviction) {
        if (!remove_lb_session(twin, evictions_[next_eviction].second)) {
          r.errors.push_back("oracle twin lacks an evicted session");
          ++bad;
        }
      }
    }
    for (const auto& [key, index] : book_.first_seen) {
      if (index >= window_out_.size()) {
        r.errors.push_back("outcome class " + std::to_string(key) +
                           " first seen after the oracle window");
        ++bad;
      }
    }
    return bad;
  }

 private:
  /// The control events the workload's own traffic lacks, on the spares:
  /// new flows through ControlPlane::inject (not in churn) and a hitless
  /// update (not in reconfig).
  void spare_events(RunResult& r) {
    for (int k = 0; w_ != Workload::kChurn && k < kSpareNewFlows &&
                    next_spare_ < traffic_.spare_fresh.size();
         ++k) {
      const Item& item = traffic_.spare_fresh[next_spare_++];
      const std::size_t learned = flow_spare_.cp().sessions_learned();
      const std::int64_t t0 = now_ns();
      const dv::sim::SwitchOutput out =
          flow_spare_.cp().inject(item.packet, item.in_port);
      r.new_flow_us.add(us_since(t0), host_.scale);
      ++r.spare_ops;
      if (!out.delivered() || out.dropped || !out.to_cpu.empty() ||
          flow_spare_.cp().sessions_learned() != learned + 1) {
        fail(r, "spare new flow " + std::to_string(next_spare_) +
                    " was not learned and delivered");
      }
    }
    if (w_ != Workload::kReconfig) {
      ++r.spare_ops;
      if (const auto us = hitless_update(update_spare_)) {
        r.update_us.add(*us, host_.scale);
      } else {
        fail(r, "spare update did not commit");
      }
    }
  }

  void fail(RunResult& r, std::string what) {
    ++r.failed;
    if (r.errors.size() < 8) r.errors.push_back(std::move(what));
  }

  void window_done(RunResult& r) {
    const dv::sim::CompiledStats& cs = sw_.compiled->stats();
    const dv::control::SessionStats& ss = sw_.session->stats();
    r.window.fallbacks = cs.fallback_packets - fallbacks0_;
    r.window.recompiles = cs.recompiles - recompiles0_;
    r.window.writes = ss.writes - writes0_;
    r.window.write_attempts = ss.write_attempts - attempts0_;
  }

  /// Send one packet; returns the time its call returned.
  std::int64_t one_packet(RunResult& r, Tracer* tr, const Item& item,
                          std::uint64_t i) {
    const bool in_window = i < kBlock;
    const bool counting = tracer_ && in_window;
    const auto id = static_cast<std::uint32_t>(i);
    dv::net::Packet packet = item.packet;
    dv::sim::SwitchOutput out;
    std::size_t serviced = 0;
    std::optional<std::uint32_t> new_session;
    std::int64_t key_read_ns = 0;

    Scope inject(tr, kInject, id);
    const std::int64_t t0 = now_ns();
    if (w_ == Workload::kReconfig) {
      Scope s(tr, kAuditorProcess, id);
      const std::uint64_t a0 = perfbench::alloc_count();
      out = auditor_->process(std::move(packet), item.in_port);
      const std::uint64_t a1 = perfbench::alloc_count();
      s.close();
      if (counting) {
        ++r.window.audit_calls;
        r.window.audit_allocs += a1 - a0;
      }
    } else {
      dv::sim::CompiledPipeline& engine = *sw_.compiled;
      const std::uint64_t rec0 = engine.stats().recompiles;
      Scope s(tr, kCompiledProcess, id);
      const std::uint64_t a0 = perfbench::alloc_count();
      out = engine.process(std::move(packet), item.in_port);
      const std::uint64_t a1 = perfbench::alloc_count();
      const bool recompiled = engine.stats().recompiles != rec0;
      s.close(recompiled ? kFlagRecompiled : 0);
      if (counting) {
        ++r.window.all_process_calls;
        if (!recompiled) {
          ++r.window.process_calls;
          r.window.process_allocs += a1 - a0;
        }
      }
      if (!out.to_cpu.empty()) {
        // The session key the control plane is about to learn, as it
        // computes it, so that churn can evict the session later. The
        // read is left out of the packet's latency.
        if (item.new_flow) {
          const std::int64_t k0 = now_ns();
          if (const auto tuple = out.to_cpu.front().packet.five_tuple(
                  dv::sfc::kSfcHeaderSize)) {
            new_session = tuple->session_hash();
          }
          key_read_ns = now_ns() - k0;
        }
        Scope p(tr, kServicePunts, id);
        const std::uint64_t b0 = perfbench::alloc_count();
        serviced = sw_.cp().service_punts(out);
        const std::uint64_t b1 = perfbench::alloc_count();
        p.close(serviced ? kFlagServiced : 0);
        if (counting && serviced) {
          r.window.punts += serviced;
          r.window.punt_allocs += b1 - b0;
        }
      }
    }
    const std::int64_t t1 = now_ns();
    inject.close(item.new_flow ? kFlagNewFlow : 0);

    const std::int64_t took = t1 - t0 - key_read_ns;
    r.latency.add(took);
    r.scaled_latency.add(static_cast<std::int64_t>(took * host_.scale));
    if (item.new_flow) r.new_flow_us.add(took / 1e3, host_.scale);
    if (!check(r, item, out, serviced, i)) {
      fail(r, "packet " + std::to_string(i) + " on path " +
                  std::to_string(item.path) + " failed its checks");
    }
    if (serviced && new_session) evict_oldest(r, *new_session, i);
    if (in_window) window_out_.push_back(std::move(out));
    return t1;
  }

  /// churn: remember a new flow's session; past kLiveNewFlows of them,
  /// remove the oldest, so the table does not grow with the run.
  void evict_oldest(RunResult& r, std::uint32_t key, std::uint64_t i) {
    live_sessions_.push_back(key);
    if (live_sessions_.size() <= kLiveNewFlows) return;
    const std::uint32_t oldest = live_sessions_.front();
    live_sessions_.pop_front();
    if (!remove_lb_session(sw_, oldest)) {
      fail(r, "evicted session of a new flow was not installed");
    }
    if (i < kBlock) evictions_.emplace_back(i, oldest);
  }

  bool check(RunResult& r, const Item& item, const dv::sim::SwitchOutput& out,
             std::size_t serviced, std::uint64_t i) {
    // The simulated tallies cover the count window only, so that they
    // repeat exactly for a seed.
    if (i < kBlock) {
      PathTally& path = r.paths[item.path];
      ++path.offered;
      if (out.delivered()) {
        ++path.delivered;
        ++r.delivered;
        r.recirculations += out.recirculations;
        if (!path.have_loop && serviced == 0) {
          for (const std::uint16_t port : out.recirc_ports) {
            path.loop_pipelines.push_back(sw_.dp().pipeline_of(port));
          }
          path.have_loop = true;
        }
      }
    }
    // Every packet of these workloads is delivered; only a new flow's
    // first packet may punt (and it must be fully serviced).
    const Outcome o = outcome_of(out);
    bool ok = o.delivered && !o.dropped && o.punts_left == 0 &&
              (serviced == 0 || item.new_flow);
    // No packet may take more passes than the cost certifier proved.
    if (serviced == 0 &&
        1 + o.recirculations + o.resubmissions > sw_.cost.deployment_pass_bound) {
      ok = false;
    }
    const int key = item.path * 8 + (sw_.on_bypass ? 4 : 0) +
                    (serviced ? 2 : 0) + (item.new_flow ? 1 : 0);
    return book_.check(key, o, i) && ok;
  }

  void tick(RunResult& r, Tracer* tr, std::uint64_t i) {
    Scope s(tr, kAuditorTick, static_cast<std::uint32_t>(i));
    const std::size_t found = auditor_->tick();
    s.close();
    if (found && r.errors.size() < 8) {
      r.errors.push_back("audit tick found " + std::to_string(found) +
                         " divergences");
    }
  }

  Workload w_;
  Switch& sw_;
  Switch& flow_spare_;
  Switch& update_spare_;
  std::size_t next_spare_ = 0;
  const Traffic& traffic_;
  Tracer* tracer_;
  HostSpeed& host_;
  std::unique_ptr<dv::control::Auditor> auditor_;
  std::vector<dv::sim::SwitchOutput> window_out_;
  OutcomeBook book_;
  std::deque<std::uint32_t> live_sessions_;  ///< churn's, oldest first
  /// churn's evictions in the count window: (packet index, session key).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> evictions_;
  std::uint64_t fallbacks0_ = sw_.compiled->stats().fallback_packets;
  std::uint64_t recompiles0_ = sw_.compiled->stats().recompiles;
  std::uint64_t writes0_ = sw_.session->stats().writes;
  std::uint64_t attempts0_ = sw_.session->stats().write_attempts;
};

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  Metric(std::string n, double v, std::string u, double r)
      : name(std::move(n)), value(v), unit(std::move(u)), raw(r) {}
  /// A value that needs no host-speed scaling.
  Metric(std::string n, double v, std::string u)
      : Metric(std::move(n), v, std::move(u), v) {}

  std::string name;
  double value;
  std::string unit;
  double raw;  ///< as measured, before scaling to the reference host
};

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

/// §4 fluid model at twice the front-panel capacity, fed with the run's
/// per-path packet shares, delivery fractions and recirculation loops.
double model_gbps(const RunResult& r, const dv::asic::SwitchConfig& config) {
  dv::sim::ReplayReport report;
  for (const auto& [id, t] : r.paths) {
    dv::sim::PathCounters& pc = report.counters.per_path[id];
    pc.offered = t.offered;
    pc.delivered = t.delivered;
    pc.loop_pipelines = t.loop_pipelines;
    report.counters.packets += t.offered;
  }
  return dv::sim::replay_throughput(report, config,
                                    2 * config.external_capacity_gbps())
      .total_delivered_gbps;
}

/// Untainted spans of `name` whose flags, masked, equal `want`: their
/// durations or self times, divided by `divisor`.
std::vector<double> span_values(const Tracer& tr,
                                const std::vector<std::int64_t>& self,
                                Name name, bool use_self, double divisor,
                                std::uint16_t mask, std::uint16_t want) {
  std::vector<double> v;
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    if (s.name != name || (s.flags & Tracer::kTainted)) continue;
    if ((s.flags & mask) != want) continue;
    v.push_back((use_self ? self[i] : s.duration_ns()) / divisor);
  }
  return v;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  Workload workload = Workload::kSteady;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload_name = value;
      if (value == "steady") a.workload = Workload::kSteady;
      else if (value == "churn") a.workload = Workload::kChurn;
      else if (value == "reconfig") a.workload = Workload::kReconfig;
      else throw std::invalid_argument("unknown workload " + value);
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload_name.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// new_flow_* come from churn's own new flows or else from the spare
/// switch; update_* from reconfig's own updates or else from the spare.
std::vector<Metric> end_to_end(const RunResult& r, const Samples& setup_s,
                               Switch& sut, std::uint64_t attempted) {
  using perfbench::percentile;
  const Samples& new_flow = r.new_flow_us;
  const Samples& updates = r.update_us;
  auto pct = [](const Samples& s, double q, const char* name) {
    return Metric{name, percentile(s.scaled, q), "us", percentile(s.raw, q)};
  };
  return {
      {"pps", r.packets / r.scaled_active_s, "1/s", r.packets / r.active_s},
      {"pkt_p50_us", r.scaled_latency.percentile_us(0.50), "us",
       r.latency.percentile_us(0.50)},
      {"pkt_p99_us", r.scaled_latency.percentile_us(0.99), "us",
       r.latency.percentile_us(0.99)},
      pct(new_flow, 0.50, "new_flow_p50_us"),
      pct(new_flow, 0.99, "new_flow_p99_us"),
      pct(updates, 0.50, "update_p50_us"),
      pct(updates, 0.90, "update_p90_us"),
      {"setup_s", perfbench::median(setup_s.scaled), "s",
       perfbench::median(setup_s.raw)},
      {"ok_frac", 1.0 - ratio(r.failed, attempted), "fraction"},
      {"recircs_per_pkt", ratio(r.recirculations, r.delivered), "count"},
      {"model_gbps", model_gbps(r, sut.dp().config()), "Gbps"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Per-layer host times are as measured; host.probe_us gives the host
/// speed they were measured at.
std::vector<Metric> per_layer(const Args& args, const RunResult& r,
                              const Tracer& tr, Switch& sut,
                              const HostSpeed& host) {
  const bool reconfig = args.workload == Workload::kReconfig;
  const auto self = perfbench::self_times_ns(tr.spans());
  auto med = [&](Name n, bool use_self, double div, std::uint16_t mask = 0,
                 std::uint16_t want = 0) {
    return perfbench::median(span_values(tr, self, n, use_self, div, mask, want));
  };
  const WindowCounts& w = r.window;
  // Outside reconfig the session's only writes are set-up's self-test.
  const dv::control::SessionStats& ss = sut.session->stats();
  const double attempts_per_write =
      reconfig ? ratio(w.write_attempts, w.writes)
               : ratio(ss.write_attempts, ss.writes);
  const double traced_pps = ratio(r.traced_pkts, r.traced_ns / 1e9);
  const double untraced_pps = ratio(r.untraced_pkts, r.untraced_ns / 1e9);
  return {
      {"control.deployment.build_ms", med(kBuild, false, 1e6), "ms"},
      {"explore.run_ms", med(kExplore, false, 1e6), "ms"},
      {"cost.run_ms", med(kCost, false, 1e6), "ms"},
      {"sim.compiled.compile_ms", med(kCompile, false, 1e6), "ms"},
      {"setup.prefill_ms", med(kPrefill, false, 1e6), "ms"},
      {"sim.compiled.process_us",
       med(kCompiledProcess, true, 1e3, kFlagRecompiled, 0), "us"},
      {"sim.compiled.allocs_per_pkt",
       ratio(w.process_allocs, w.process_calls), "count"},
      {"sim.compiled.fallback_frac", ratio(w.fallbacks, w.all_process_calls),
       "fraction"},
      {"sim.compiled.recompiles", static_cast<double>(w.recompiles), "count"},
      {"sim.compiled.recompile_us",
       med(kCompiledProcess, false, 1e3, kFlagRecompiled, kFlagRecompiled),
       "us"},
      {"control.control_plane.service_punts_us",
       med(kServicePunts, false, 1e3, kFlagServiced, kFlagServiced), "us"},
      {"control.control_plane.punts", static_cast<double>(w.punts), "count"},
      {"control.control_plane.allocs_per_punt", ratio(w.punt_allocs, w.punts),
       "count"},
      {"control.auditor.process_us", med(kAuditorProcess, true, 1e3), "us"},
      {"control.auditor.allocs_per_pkt", ratio(w.audit_allocs, w.audit_calls),
       "count"},
      {"control.auditor.tick_us", med(kAuditorTick, false, 1e3), "us"},
      {"control.auditor.findings", static_cast<double>(r.findings), "count"},
      {"control.session.update_us", perfbench::median(r.update_us.raw), "us"},
      {"control.session.attempts_per_write", attempts_per_write, "count"},
      {"driver.self_us", med(kInject, true, 1e3), "us"},
      {"trace.overhead_frac", 1.0 - ratio(traced_pps, untraced_pps), "fraction"},
      {"host.probe_us", perfbench::median(host.probe_us), "us"},
  };
}

int run(const Args& args) {
  // A dead probe child must show as a failed probe, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  // Forked first, while the heap is small: see HostSpeed.
  HostSpeed host;
  const Traffic traffic = make_traffic(args.workload, args.seed);
  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>(kNames, kSpanCapacity);

  // Repetition 0 is the switch under test, 1 and 2 the spares; the one
  // after the first segment is the oracle twin; the rest are dropped.
  // Those run between timed segments, so set-up samples the same host
  // conditions as the traffic. Each is scaled by the probes just before.
  Samples setup_s;
  auto set_up_once = [&]() -> std::unique_ptr<Switch> {
    host.sample(HostSpeed::kWindow);
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Switch> sw = set_up(traffic, tracer.get());
    setup_s.add((now_ns() - t0) / 1e9, host.scale);
    return sw;
  };
  std::unique_ptr<Switch> sut = set_up_once();
  std::unique_ptr<Switch> flow_spare = set_up_once();
  std::unique_ptr<Switch> update_spare = set_up_once();
  std::unique_ptr<Switch> twin;
  Driver driver(args.workload, *sut, *flow_spare, *update_spare, traffic,
                tracer.get(), host);
  RunResult r = driver.run(args.seconds, [&] {
    std::unique_ptr<Switch> sw = set_up_once();
    if (!twin) twin = std::move(sw);
  });
  while (setup_s.raw.size() < static_cast<std::size_t>(kSetupReps)) {
    set_up_once();
  }

  const std::uint64_t oracle_bad = driver.oracle_check(*twin, r);
  r.failed += oracle_bad;
  const std::uint64_t attempted = r.packets + r.updates + r.spare_ops;
  const bool correct = r.failed == 0;
  std::fprintf(stderr,
               "dvbench %s seed=%llu: %llu packets in %.3f s, %llu updates, "
               "%llu failed (oracle mismatches %llu), %zu new flows%s; "
               "host probe median %.1f us over %zu probes\n",
               args.workload_name.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(r.packets), r.active_s,
               static_cast<unsigned long long>(r.updates),
               static_cast<unsigned long long>(r.failed),
               static_cast<unsigned long long>(oracle_bad),
               r.new_flow_us.raw.size(),
               r.fresh_exhausted ? " (new-flow pool used up)" : "",
               perfbench::median(host.probe_us), host.probe_us.size());
  for (std::size_t k = 0; k < setup_s.raw.size(); ++k) {
    std::fprintf(stderr, "  set-up %zu: %.3f s as measured, %.3f s scaled\n",
                 k, setup_s.raw[k], setup_s.scaled[k]);
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "  error: %s\n", e.c_str());
  }

  const std::vector<Metric> metrics =
      args.trace ? per_layer(args, r, *tracer, *sut, host)
                 : end_to_end(r, setup_s, *sut, attempted);
  if (args.trace && !args.trace_out.empty() &&
      !tracer->write_csv(args.trace_out)) {
    std::fprintf(stderr, "dvbench: cannot write %s\n", args.trace_out.c_str());
    return 2;
  }
  std::printf("%-40s %16s %16s\n", "metric", "value", "as measured");
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.4f %16.4f %s\n", m.name.c_str(), m.value, m.raw,
                m.unit.c_str());
  }
  print_json(correct, attempted, r.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvbench: %s\n", e.what());
    return 2;
  }
}

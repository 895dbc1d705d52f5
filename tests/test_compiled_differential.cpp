// Differential oracle for the compiled fast path (DESIGN.md §12): for
// every packet the compiled engine accepts, its outcome — emissions,
// punts, drop code + reason, epoch stamp, recirculation bookkeeping,
// register and counter side effects — must be bit-identical to the
// interpreter's. The replay half reuses the PR 1 determinism harness:
// merged ReplayCounters are compared across engines and across 1/2/8
// workers, mid-stream live updates included.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "control/live_update.hpp"
#include "control/replay_target.hpp"
#include "control/snapshot.hpp"
#include "control/transaction.hpp"
#include "explore/explorer.hpp"
#include "explore_test_util.hpp"
#include "merge/compose.hpp"
#include "nf/parser_lib.hpp"
#include "route/routing.hpp"
#include "sfc/header.hpp"
#include "sim/compiled/compiled_pipeline.hpp"
#include "sim/replay.hpp"

namespace dejavu::sim {
namespace {

/// The canonical mid-stream update: route every chain around the LB
/// (same diff as test_live_update's).
control::RuleDiff bypass_lb_diff(control::Deployment& dep) {
  sfc::PolicySet reduced;
  for (const sfc::ChainPolicy& p : dep.policies().policies()) {
    sfc::ChainPolicy rp = p;
    std::erase(rp.nfs, std::string(sfc::kLoadBalancer));
    reduced.add(std::move(rp));
  }
  route::RoutingPlan plan = route::build_routing(
      reduced, dep.placement(), dep.dataplane().config());
  EXPECT_TRUE(plan.feasible) << plan.infeasible_reason;
  return control::routing_rule_diff(dep.routing(), plan, dep.dataplane());
}

ReplayConfig config_for(std::uint32_t workers, EngineKind engine) {
  ReplayConfig config;
  config.workers = workers;
  config.packets_per_flow = 3;
  config.engine = engine;
  return config;
}

std::vector<ReplayFlow> mixed_flows() {
  return control::fig2_replay_flows(/*total_flows=*/40, /*seed=*/7);
}

TEST(CompiledDifferential, ReplayCountersEngineAndWorkerInvisible) {
  const auto flows = mixed_flows();
  const auto interp = run_replay(control::fig2_replay_factory(), flows,
                                 config_for(1, EngineKind::kInterpreter));
  const auto one = run_replay(control::fig2_replay_factory(), flows,
                              config_for(1, EngineKind::kCompiled));
  const auto two = run_replay(control::fig2_replay_factory(), flows,
                              config_for(2, EngineKind::kCompiled));
  const auto eight = run_replay(control::fig2_replay_factory(), flows,
                                config_for(8, EngineKind::kCompiled));

  // The workload exercised everything the merge covers.
  EXPECT_GT(interp.counters.delivered, 0u);
  EXPECT_GT(interp.counters.recirculations, 0u);
  EXPECT_EQ(interp.counters.per_path.size(), 3u);

  // The engine switch and the worker count are both invisible in the
  // deterministic half of the report.
  EXPECT_EQ(interp.counters, one.counters);
  EXPECT_EQ(interp.counters, two.counters);
  EXPECT_EQ(interp.counters, eight.counters);

  // ...and the fast path actually ran (this was not fallback-only
  // agreement).
  EXPECT_EQ(interp.engine, EngineKind::kInterpreter);
  EXPECT_EQ(interp.compiled_packets, 0u);
  EXPECT_EQ(one.engine, EngineKind::kCompiled);
  EXPECT_EQ(one.compiled_packets, one.counters.packets);
  EXPECT_EQ(one.fallback_packets, 0u);
  EXPECT_EQ(eight.compiled_packets, eight.counters.packets);
}

TEST(CompiledDifferential, BareDataPlaneCountersAgree) {
  // No control plane behind the switch: session misses stay punted.
  const auto flows = mixed_flows();
  const auto factory = control::fig2_replay_factory(/*fig9=*/true,
                                                    /*service_punts=*/false);
  const auto interp =
      run_replay(factory, flows, config_for(2, EngineKind::kInterpreter));
  const auto compiled =
      run_replay(factory, flows, config_for(2, EngineKind::kCompiled));

  EXPECT_GT(interp.counters.punted, 0u);
  EXPECT_EQ(interp.counters, compiled.counters);
  EXPECT_EQ(compiled.compiled_packets, compiled.counters.packets);
}

TEST(CompiledDifferential, MidStreamLiveUpdateAgrees) {
  // The §11 flip mid-stream: the compiled engine must notice the epoch
  // move (trace invalidation) and keep the merged counters — including
  // per-epoch packet attribution — identical to the interpreter's, at
  // every worker count.
  auto run_at = [](std::uint32_t workers, EngineKind engine) {
    ReplayEngine engine_obj(control::fig2_replay_factory());
    ReplayConfig config;
    config.workers = workers;
    config.packets_per_flow = 6;
    config.engine = engine;
    config.update = ReplayConfig::ReplayUpdate{};
    config.update->at_packet = 3;
    config.update->apply = [](ReplayTarget& t, std::uint32_t) {
      auto& dt = static_cast<control::DeploymentTarget&>(t);
      control::Deployment& dep = *dt.fixture().deployment;
      control::LiveUpdate update(t.dataplane());
      const control::UpdateReport report = update.run(bypass_lb_diff(dep));
      ASSERT_TRUE(report.committed) << report.error;
    };
    return engine_obj.run(control::fig2_replay_flows(48), config);
  };

  const ReplayReport interp = run_at(1, EngineKind::kInterpreter);
  const ReplayReport one = run_at(1, EngineKind::kCompiled);
  const ReplayReport two = run_at(2, EngineKind::kCompiled);
  const ReplayReport eight = run_at(8, EngineKind::kCompiled);

  EXPECT_EQ(interp.counters, one.counters);
  EXPECT_EQ(interp.counters, two.counters);
  EXPECT_EQ(interp.counters, eight.counters);

  // Both generations saw traffic, attributed exactly.
  EXPECT_EQ(one.counters.packets_by_epoch.size(), 2u);
  std::uint64_t attributed = 0;
  for (const auto& [epoch, n] : one.counters.packets_by_epoch) {
    attributed += n;
  }
  EXPECT_EQ(attributed, one.counters.packets);
  EXPECT_GT(one.compiled_packets, 0u);
}

/// Seeded random packet streams through both engines on cloned
/// switches, packet by packet, across every shipped chain target —
/// the "random chains × random packet streams" axis. Oracles: per-
/// packet semantic equality, then byte-identical port counters and
/// switch snapshots (rules + registers) at the end of the stream.
TEST(CompiledDifferential, SeededRandomStreamsAgreePacketByPacket) {
  const std::vector<std::string> targets = {"fig2", "fig9", "quickstart",
                                            "stateful"};
  for (const std::string& name : targets) {
    auto target = test::build_explore_target(name);
    DataPlane interp = target.deployment->dataplane();
    DataPlane fast_dp = target.deployment->dataplane();
    CompiledPipeline fast(fast_dp);
    ASSERT_TRUE(fast.compiled_ok()) << name << ": " << fast.compile_error();

    std::mt19937_64 rng(0xc0de + std::hash<std::string>{}(name));
    auto u8 = [&](int lo, int hi) {
      return static_cast<std::uint8_t>(
          std::uniform_int_distribution<int>(lo, hi)(rng));
    };
    const net::Ipv4Addr dsts[] = {
        net::Ipv4Addr(10, 1, 0, 10), net::Ipv4Addr(10, 2, 0, 20),
        net::Ipv4Addr(10, 3, 0, 1), net::Ipv4Addr(10, 0, 0, 1)};
    const std::uint16_t ports[] = {0, 1, 2, 3, 7, 500};

    for (int i = 0; i < 400; ++i) {
      net::PacketSpec spec;
      spec.ip_src = net::Ipv4Addr(u8(10, 192), u8(0, 255), u8(0, 255),
                                  u8(1, 254));
      spec.ip_dst = dsts[rng() % 4];
      spec.protocol = i % 5 == 0 ? u8(0, 255) : (i % 2 ? 6 : 17);
      spec.src_port = static_cast<std::uint16_t>(rng());
      spec.dst_port = i % 3 ? static_cast<std::uint16_t>(rng() % 1024) : 80;
      spec.ttl = i % 7 == 0 ? u8(0, 2) : 64;
      const std::uint16_t in_port = ports[rng() % 6];

      const net::Packet packet = net::Packet::make(spec);
      const SwitchOutput a = interp.process(packet, in_port);
      const SwitchOutput b = fast.process(packet, in_port);
      ASSERT_TRUE(semantically_equal(a, b))
          << name << " packet " << i << " in_port " << in_port
          << "\ninterp: " << a.drop_reason << "\ncompiled: " << b.drop_reason;
    }

    EXPECT_GT(fast.stats().compiled_packets, 0u) << name;
    EXPECT_EQ(interp.all_port_counters(), fast_dp.all_port_counters())
        << name;
    EXPECT_EQ(control::take_snapshot(interp).to_text(),
              control::take_snapshot(fast_dp).to_text())
        << name;
  }
}

TEST(CompiledDifferential, ExplorerSeededCompileValidatesWitnesses) {
  // The explorer's path equivalence classes as the compile seed: every
  // witness gates the compile differentially, and replaying them
  // afterwards stays on the fast path (their shapes are the trace set).
  auto fx = control::make_fig9_deployment();
  const explore::ExploreResult& exploration = fx.deployment->run_explorer();
  ASSERT_GT(exploration.paths.size(), 0u);
  const CompileSeed seed = explore::compile_seed(exploration);
  EXPECT_EQ(seed.witnesses.size(), exploration.paths.size());

  DataPlane interp = fx.deployment->dataplane();
  DataPlane fast_dp = fx.deployment->dataplane();
  CompiledPipeline fast(fast_dp, seed);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();

  for (const CompileSeed::Witness& w : seed.witnesses) {
    const SwitchOutput a = interp.process(w.packet, w.in_port);
    const SwitchOutput b = fast.process(w.packet, w.in_port);
    ASSERT_TRUE(semantically_equal(a, b)) << a.drop_reason;
  }
  EXPECT_EQ(fast.stats().fallback_packets, 0u);
  EXPECT_EQ(fast.stats().compiled_packets, seed.witnesses.size());
}

TEST(CompiledDifferential, TableCountersStayTruthful) {
  // The §7 health monitor reads per-table hit/miss counters; the fast
  // path matches against its own lowered maps but must keep them
  // moving exactly as lookup() would.
  auto fx_a = control::make_fig9_deployment();
  auto fx_b = control::make_fig9_deployment();
  DataPlane& interp = fx_a.deployment->dataplane();
  DataPlane& fast_dp = fx_b.deployment->dataplane();
  CompiledPipeline fast(fast_dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();

  for (const ReplayFlow& rf : control::fig2_replay_flows(12)) {
    interp.process(rf.flow.packet(), rf.in_port);
    fast.process(rf.flow.packet(), rf.in_port);
  }
  for (const std::string& table :
       {std::string("LB.lb_session"), std::string("Router.ipv4_lpm"),
        std::string("Classifier.traffic_class")}) {
    const auto a = interp.tables_named(table);
    const auto b = fast_dp.tables_named(table);
    ASSERT_EQ(a.size(), b.size()) << table;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i]->hits(), b[i]->hits()) << table;
      EXPECT_EQ(a[i]->misses(), b[i]->misses()) << table;
    }
  }
}

// --- incremental lowering (DESIGN.md §12): table writes interleaved
// with traffic must re-lower entries or tables, never the program, and
// stay bit-identical to the interpreter throughout.

/// One switch under an interleaved stream: a deployment whose control
/// plane services punts, plus the compiled engine on the fast side
/// (null on the interpreter twin).
struct Side {
  control::Fig2Deployment fx;
  std::unique_ptr<CompiledPipeline> fast;

  DataPlane& dp() { return fx.deployment->dataplane(); }
  control::ControlPlane& cp() { return fx.deployment->control(); }
  SwitchOutput send(const net::Packet& packet, std::uint16_t port) {
    SwitchOutput out =
        fast ? fast->process(packet, port) : dp().process(packet, port);
    cp().service_punts(out);
    return out;
  }
};

void evict_session(DataPlane& dp, std::uint64_t key) {
  for (RuntimeTable* t : dp.tables_named("LB.lb_session")) {
    t->remove_exact({key});
  }
}

/// The flip half of LiveUpdate::run (shadow transaction, register
/// banks, version gate), so traffic can run between the flip and the
/// gc that retires the old generation.
void flip(DataPlane& dp, const control::RuleDiff& diff) {
  const std::uint32_t from = dp.epoch();
  control::Transaction txn(dp);
  control::fill_shadow_transaction(txn, diff, dp, from, from + 1);
  ASSERT_TRUE(txn.commit().committed);
  control::apply_register_banks(dp, diff, from + 1, /*only_untagged=*/false);
  dp.set_epoch(from + 1);
}

void run_interleaved_stream(const std::string& name,
                            control::Fig2Deployment (*make)()) {
  Side fast{make(), nullptr};
  Side twin{make(), nullptr};
  fast.fast = std::make_unique<CompiledPipeline>(fast.dp());
  ASSERT_TRUE(fast.fast->compiled_ok()) << name << ": "
                                        << fast.fast->compile_error();
  const CompiledStats start = fast.fast->stats();

  // Every write lands on both switches.
  auto both = [&](auto&& write) {
    write(fast);
    write(twin);
  };

  const auto flows = control::fig2_replay_flows(600, /*seed=*/11);
  std::mt19937_64 rng(0x1ea4 + std::hash<std::string>{}(name));
  constexpr int kPackets = 2400;
  constexpr int kPureChurnEnd = 600;  // learns and evictions only before
  constexpr int kBurstAt = 700;
  constexpr int kFlipAt = 1800;
  constexpr int kGcAt = 2100;
  std::uint64_t recompiles_before_flip = 0;

  for (int i = 0; i < kPackets; ++i) {
    if (i == kPureChurnEnd) {
      EXPECT_EQ(fast.fast->stats().recompiles, start.recompiles)
          << name << ": learns and evictions forced a full recompile";
      EXPECT_GT(fast.fast->stats().entry_deltas, start.entry_deltas) << name;
    }
    if (i > 0 && i % 41 == 0) {
      // Evict one installed session (sorted, so both sides agree).
      std::vector<std::uint64_t> keys;
      for (const auto& e :
           fast.dp().tables_named("LB.lb_session").at(0)->exact_entries()) {
        if (e.window.open()) keys.push_back(e.key.at(0));
      }
      if (!keys.empty()) {
        std::sort(keys.begin(), keys.end());
        const std::uint64_t key = keys[rng() % keys.size()];
        both([&](Side& s) { evict_session(s.dp(), key); });
      }
    }
    if (i >= kPureChurnEnd && i < kFlipAt && i % 157 == 0) {
      // Transactions on an exact and an LPM table.
      // A fresh /24 each time; the first one shadows path 3's traffic.
      const std::uint64_t key = rng() & 0xffffffff;
      const auto net24 = static_cast<std::uint8_t>((i - kPureChurnEnd) / 157);
      const std::uint64_t dmac = 0x4200 + (rng() % 64);
      both([&](Side& s) {
        control::Transaction txn(s.dp());
        txn.install_exact("LB.lb_session", {key},
                          {"LB.modify_dstIp", {{"dip", 0x0a010201}}});
        txn.install_lpm("Router.ipv4_lpm",
                        net::Ipv4Addr(10, 3, net24, 0).value(), 24,
                        {"Router.route", {{"port", 1}, {"dmac", dmac}}});
        const auto result = txn.commit();
        ASSERT_TRUE(result.committed) << name << ": " << result.to_string();
      });
    }
    if (i == kBurstAt) {
      // More session installs than the change log holds.
      std::vector<std::uint32_t> keys;
      for (std::size_t j = 0; j < RuntimeTable::kChangeLogCapacity + 36; ++j) {
        keys.push_back(static_cast<std::uint32_t>(rng()));
      }
      both([&](Side& s) {
        for (std::uint32_t key : keys) {
          s.cp().install_lb_session(key, net::Ipv4Addr(10, 1, 1, 1));
        }
      });
    }
    if (i == kFlipAt) {
      recompiles_before_flip = fast.fast->stats().recompiles;
      both([&](Side& s) { flip(s.dp(), bypass_lb_diff(*s.fx.deployment)); });
    }
    if (i == kGcAt) {
      both([&](Side& s) { s.dp().gc_epochs(s.dp().epoch()); });
    }

    const ReplayFlow& rf = flows[rng() % flows.size()];
    const net::Packet packet = rf.flow.packet();
    const SwitchOutput a = twin.send(packet, rf.in_port);
    const SwitchOutput b = fast.send(packet, rf.in_port);
    ASSERT_TRUE(semantically_equal(a, b))
        << name << " packet " << i << " path " << rf.path_id
        << "\ninterp: " << a.drop_reason << "\ncompiled: " << b.drop_reason;
  }

  const CompiledStats& end = fast.fast->stats();
  EXPECT_GT(twin.cp().sessions_learned(), 0u) << name;
  EXPECT_GT(end.compiled_packets, 0u) << name;
  // Every write before the flip was absorbed without a full recompile:
  // entry deltas for sessions, table re-lowers for LPM installs and for
  // the burst that overran the change log.
  EXPECT_EQ(recompiles_before_flip, start.recompiles) << name;
  EXPECT_GT(end.log_gaps, 0u) << name;
  EXPECT_GT(end.table_relowers, end.log_gaps) << name;
  // The flip is an epoch move, the one event that re-lowers everything.
  EXPECT_EQ(end.recompile_causes.epoch, 1u) << name;
  EXPECT_EQ(twin.dp().all_port_counters(), fast.dp().all_port_counters())
      << name;
  EXPECT_EQ(control::take_snapshot(twin.dp()).to_text(),
            control::take_snapshot(fast.dp()).to_text())
      << name;
}

/// Give `packet` an SFC header the switch did not write: path `path`,
/// a random service index below 4, random platform metadata with the
/// reserved bits [8:0] dirty, random context slots.
void dirty_encapsulate(net::Packet& packet, std::mt19937_64& rng,
                       std::uint32_t path) {
  sfc::push_sfc(packet, sfc::SfcHeader{});
  auto h = packet.data().mutable_slice(net::EthernetHeader::kSize,
                                       sfc::kSfcHeaderSize);
  h[0] = static_cast<std::byte>(path >> 8);
  h[1] = static_cast<std::byte>(path & 0xff);
  h[2] = static_cast<std::byte>(rng() % 4);
  for (std::size_t b = 3; b < 19; ++b) {
    h[b] = static_cast<std::byte>(rng() & 0xff);
  }
  h[6] |= std::byte{0x01};
}

control::Fig2Deployment make_fig2() { return control::make_fig2_deployment(); }
control::Fig2Deployment make_fig9() { return control::make_fig9_deployment(); }

TEST(CompiledIncremental, InterleavedWritesAgreeOnFig2) {
  run_interleaved_stream("fig2", make_fig2);
}

TEST(CompiledIncremental, InterleavedWritesAgreeOnFig9) {
  run_interleaved_stream("fig9", make_fig9);
}

/// The first path-1 flow of the canonical workload (its first packet
/// misses LB.lb_session and is punted to be learned).
const ReplayFlow& first_lb_flow(const std::vector<ReplayFlow>& flows) {
  return *std::find_if(flows.begin(), flows.end(),
                       [](const ReplayFlow& rf) { return rf.path_id == 1; });
}

TEST(CompiledIncremental, NewFlowCostIsFlatInInstalledSessions) {
  // A control event costs in proportion to the state it changes
  // (counted, not timed): learning one flow re-lowers one entry per
  // LB.lb_session instance, whether 1k or 10k sessions are installed.
  const auto flows = control::fig2_replay_flows(8);
  const ReplayFlow& rf = first_lb_flow(flows);
  std::vector<std::uint64_t> relowered;
  for (const std::uint32_t sessions : {1000u, 10000u}) {
    auto fx = control::make_fig9_deployment();
    DataPlane& dp = fx.deployment->dataplane();
    control::ControlPlane& cp = fx.deployment->control();
    std::mt19937 rng(sessions);
    for (std::uint32_t i = 0; i < sessions; ++i) {
      cp.install_lb_session(rng(), net::Ipv4Addr(10, 1, 1, 1));
    }
    CompiledPipeline fast(dp);
    ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();
    const CompiledStats before = fast.stats();

    SwitchOutput out = fast.process(rf.flow.packet(), rf.in_port);
    ASSERT_EQ(out.to_cpu.size(), 1u);  // session miss
    ASSERT_GE(cp.service_punts(out), 1u);
    // The next packet catches the engine up and hits the new session.
    out = fast.process(rf.flow.packet(), rf.in_port);
    EXPECT_TRUE(out.to_cpu.empty());
    EXPECT_TRUE(out.delivered()) << out.drop_reason;

    const CompiledStats& after = fast.stats();
    EXPECT_EQ(after.recompiles, before.recompiles) << sessions;
    EXPECT_EQ(after.table_relowers, before.table_relowers) << sessions;
    EXPECT_EQ(after.entry_deltas - before.entry_deltas,
              dp.tables_named("LB.lb_session").size())
        << sessions;
    relowered.push_back(after.entry_deltas - before.entry_deltas);
  }
  EXPECT_EQ(relowered[0], relowered[1]);
}

TEST(CompiledIncremental, OpArenaStaysBoundedUnderLearnEvictChurn) {
  auto fx = control::make_fig9_deployment();
  DataPlane& dp = fx.deployment->dataplane();
  control::ControlPlane& cp = fx.deployment->control();
  for (std::uint32_t key = 0; key < 1000; ++key) {
    cp.install_lb_session(0x80000000u + key, net::Ipv4Addr(10, 1, 1, 1));
  }
  CompiledPipeline fast(dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();
  const CompiledStats start = fast.stats();

  // Routed traffic: every packet revalidates, none of it punts.
  const auto flows = control::fig2_replay_flows(8);
  const ReplayFlow& routed = flows.back();
  ASSERT_EQ(routed.path_id, 3u);
  const net::Packet packet = routed.flow.packet();

  constexpr std::uint32_t kCycles = 20000;
  constexpr std::size_t kLive = 64;  // newest sessions kept, as in churn
  std::deque<std::uint32_t> live;
  std::size_t after_100 = 0;
  for (std::uint32_t cycle = 0; cycle < kCycles; ++cycle) {
    cp.install_lb_session(cycle, net::Ipv4Addr(10, 1, 1, 2));
    live.push_back(cycle);
    if (live.size() > kLive) {
      evict_session(dp, live.front());
      live.pop_front();
    }
    ASSERT_TRUE(fast.process(packet, routed.in_port).delivered());
    if (cycle + 1 == 100) after_100 = fast.op_arena_size();
  }
  EXPECT_LE(fast.op_arena_size(), after_100 + 64);
  EXPECT_EQ(fast.stats().recompiles, start.recompiles);
  const std::uint64_t instances = dp.tables_named("LB.lb_session").size();
  EXPECT_EQ(fast.stats().entry_deltas - start.entry_deltas,
            instances * (2 * kCycles - kLive));
}

/// Fig. 2 / Fig. 9 traffic of which three packets in four arrive
/// already encapsulated, with an SFC header the switch did not write:
/// dirty reserved platform-metadata bits [8:0], random context slots.
/// The shipped chains take only plain traffic at the edge, so those
/// packets must be dropped exactly as the interpreter drops them, while
/// the plain ones run the classifier's and the VGW's set-context.
void run_dirty_sfc_stream(const std::string& name,
                          control::Fig2Deployment (*make)()) {
  Side fast{make(), nullptr};
  Side twin{make(), nullptr};
  fast.fast = std::make_unique<CompiledPipeline>(fast.dp());
  ASSERT_TRUE(fast.fast->compiled_ok()) << name << ": "
                                        << fast.fast->compile_error();

  const auto flows = control::fig2_replay_flows(400, /*seed=*/23);
  std::mt19937_64 rng(0xd1c7 + std::hash<std::string>{}(name));
  for (int i = 0; i < 1200; ++i) {
    const ReplayFlow& rf = flows[rng() % flows.size()];
    net::Packet packet = rf.flow.packet();
    if (i % 4 != 0) dirty_encapsulate(packet, rng, rf.path_id);
    const SwitchOutput a = twin.send(packet, rf.in_port);
    const SwitchOutput b = fast.send(packet, rf.in_port);
    ASSERT_TRUE(semantically_equal(a, b))
        << name << " packet " << i << " path " << rf.path_id
        << "\ninterp: " << a.drop_reason << "\ncompiled: " << b.drop_reason;
  }
  EXPECT_EQ(fast.fast->stats().compiled_packets, 1200u) << name;
  EXPECT_EQ(twin.dp().all_port_counters(), fast.dp().all_port_counters())
      << name;
}

TEST(CompiledIncremental, DirtyReservedSfcBitsAgreeOnFig2) {
  run_dirty_sfc_stream("fig2", make_fig2);
}

TEST(CompiledIncremental, DirtyReservedSfcBitsAgreeOnFig9) {
  run_dirty_sfc_stream("fig9", make_fig9);
}

/// A switch that takes encapsulated traffic and forwards it with its
/// SFC header on, after two set-context primitives (one keyed on the
/// service path, one on the service index): the canonical form of the
/// header each one writes is visible in the emitted bytes.
TEST(CompiledIncremental, SetContextOnForeignSfcHeadersAgrees) {
  p4ir::TupleIdTable ids;
  p4ir::Program program{"tagger"};
  nf::add_standard_parser(program, ids);
  p4ir::ControlBlock c(
      merge::pipelet_control_name({0, asic::PipeKind::kIngress}));
  p4ir::Action tag;
  tag.name = "tag";
  tag.params = {{"value", 16}};
  tag.primitives = {p4ir::set_context(7, "value"),
                    p4ir::set_imm("standard_metadata.egress_spec", 1)};
  c.add_action(tag);
  p4ir::Action tag_index;
  tag_index.name = "tag_index";
  tag_index.params = {{"value", 16}};
  tag_index.primitives = {p4ir::set_context(9, "value")};
  c.add_action(tag_index);
  p4ir::Action fwd;
  fwd.name = "fwd";
  fwd.primitives = {p4ir::set_imm("standard_metadata.egress_spec", 2)};
  c.add_action(fwd);
  p4ir::Table by_path;
  by_path.name = "by_path";
  by_path.keys = {{"sfc.service_path_id", p4ir::MatchKind::kExact, 16}};
  by_path.actions = {"tag", "fwd"};
  by_path.default_action = "fwd";
  c.add_table(by_path);
  p4ir::Table by_index;
  by_index.name = "by_index";
  by_index.keys = {{"sfc.service_index", p4ir::MatchKind::kExact, 8}};
  by_index.actions = {"tag_index"};
  c.add_table(by_index);
  c.apply_table("by_path");
  c.apply_table("by_index");
  const std::string control_name = c.name();
  program.add_control(std::move(c));

  DataPlane twin(program, ids, asic::SwitchConfig{asic::TargetSpec::mini()});
  for (std::uint64_t path = 1; path <= 12; ++path) {
    twin.table_in(control_name, "by_path")
        ->add_exact({path}, ActionCall{"tag", {{"value", 0x100 + path}}});
  }
  for (std::uint64_t index = 0; index < 3; ++index) {
    twin.table_in(control_name, "by_index")
        ->add_exact({index}, ActionCall{"tag_index", {{"value", index}}});
  }
  DataPlane fast_dp = twin;
  CompiledPipeline fast(fast_dp);
  ASSERT_TRUE(fast.compiled_ok()) << fast.compile_error();

  std::mt19937_64 rng(0x7a66);
  std::size_t canonicalized = 0;
  for (int i = 0; i < 2000; ++i) {
    net::Packet packet = net::Packet::make({});
    dirty_encapsulate(packet, rng, 1 + rng() % 16);
    const SwitchOutput a = twin.process(packet, 0);
    const SwitchOutput b = fast.process(packet, 0);
    ASSERT_TRUE(semantically_equal(a, b)) << "packet " << i << "\ninterp: "
                                          << a.drop_reason << "\ncompiled: "
                                          << b.drop_reason;
    ASSERT_EQ(a.out.size(), 1u) << a.drop_reason;
    canonicalized += a.out[0].port == 1 &&
                     a.out[0].packet.data().view()[net::EthernetHeader::kSize +
                                                   6] == std::byte{0};
  }
  EXPECT_EQ(fast.stats().compiled_packets, 2000u);
  EXPECT_GT(canonicalized, 1000u);  // tagged packets leave canonical
  EXPECT_EQ(twin.all_port_counters(), fast_dp.all_port_counters());
}

}  // namespace
}  // namespace dejavu::sim

#include "sim/runtime_table.hpp"

#include <gtest/gtest.h>

#include "control/deployment.hpp"
#include "sim/dataplane.hpp"

namespace dejavu::sim {
namespace {

using p4ir::MatchKind;
using p4ir::Table;
using p4ir::TableKey;

Table exact_table() {
  Table t;
  t.name = "exact";
  t.keys = {TableKey{"a.x", MatchKind::kExact, 16},
            TableKey{"a.y", MatchKind::kExact, 8}};
  t.actions = {"hit_act"};
  t.default_action = "miss_act";
  t.max_entries = 4;
  return t;
}

Table lpm_table() {
  Table t;
  t.name = "lpm";
  t.keys = {TableKey{"ipv4.dst", MatchKind::kLpm, 32}};
  t.actions = {"route"};
  t.default_action = "miss";
  t.max_entries = 16;
  return t;
}

TEST(RuntimeTable, ExactHitAndMiss) {
  Table def = exact_table();
  RuntimeTable rt(def);
  rt.add_exact({100, 2}, ActionCall{"hit_act", {{"p", 7}}});

  auto hit = rt.lookup({100, 2});
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.action.action, "hit_act");
  EXPECT_EQ(hit.action.args.at("p"), 7u);

  auto miss = rt.lookup({100, 3});
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.action.action, "miss_act");
}

TEST(RuntimeTable, MissingFieldIsAMiss) {
  Table def = exact_table();
  RuntimeTable rt(def);
  rt.add_exact({100, 2}, ActionCall{"hit_act", {}});
  auto res = rt.lookup({std::nullopt, 2});
  EXPECT_FALSE(res.hit);
}

TEST(RuntimeTable, ExactReinstallOverwrites) {
  Table def = exact_table();
  RuntimeTable rt(def);
  rt.add_exact({1, 1}, ActionCall{"hit_act", {{"p", 1}}});
  rt.add_exact({1, 1}, ActionCall{"hit_act", {{"p", 2}}});
  EXPECT_EQ(rt.entry_count(), 1u);
  EXPECT_EQ(rt.lookup({1, 1}).action.args.at("p"), 2u);
}

TEST(RuntimeTable, TableFullThrows) {
  Table def = exact_table();  // max_entries = 4
  RuntimeTable rt(def);
  for (std::uint64_t i = 0; i < 4; ++i) {
    rt.add_exact({i, 0}, ActionCall{"hit_act", {}});
  }
  EXPECT_THROW(rt.add_exact({9, 0}, ActionCall{"hit_act", {}}),
               std::invalid_argument);
}

TEST(RuntimeTable, ArityMismatchThrows) {
  Table def = exact_table();
  RuntimeTable rt(def);
  EXPECT_THROW(rt.add_exact({1}, ActionCall{"hit_act", {}}),
               std::invalid_argument);
}

TEST(RuntimeTable, KindMismatchThrows) {
  Table exact = exact_table();
  RuntimeTable rt_exact(exact);
  EXPECT_THROW(rt_exact.add_lpm(0, 8, ActionCall{}), std::invalid_argument);
  EXPECT_THROW(rt_exact.add_ternary({}, 0, ActionCall{}),
               std::invalid_argument);

  Table lpm = lpm_table();
  RuntimeTable rt_lpm(lpm);
  EXPECT_THROW(rt_lpm.add_exact({1}, ActionCall{}), std::invalid_argument);
}

TEST(RuntimeTable, LpmLongestPrefixWins) {
  Table def = lpm_table();
  RuntimeTable rt(def);
  rt.add_lpm(0x0a000000, 8, ActionCall{"route", {{"port", 8}}});
  rt.add_lpm(0x0a010000, 16, ActionCall{"route", {{"port", 16}}});

  EXPECT_EQ(rt.lookup({0x0a010203}).action.args.at("port"), 16u);
  EXPECT_EQ(rt.lookup({0x0a990203}).action.args.at("port"), 8u);
  EXPECT_FALSE(rt.lookup({0x0b000001}).hit);
}

TEST(RuntimeTable, LpmDefaultRoute) {
  Table def = lpm_table();
  RuntimeTable rt(def);
  rt.add_lpm(0, 0, ActionCall{"route", {{"port", 1}}});
  EXPECT_TRUE(rt.lookup({0xffffffff}).hit);
}

TEST(RuntimeTable, LpmPrefixTooLongThrows) {
  Table def = lpm_table();
  RuntimeTable rt(def);
  EXPECT_THROW(rt.add_lpm(0, 33, ActionCall{}), std::invalid_argument);
}

TEST(RuntimeTable, TernaryPriorityOrder) {
  Table def;
  def.name = "acl";
  def.keys = {TableKey{"ipv4.src", MatchKind::kTernary, 32}};
  def.actions = {"permit", "deny"};
  def.default_action = "deny";
  def.max_entries = 8;
  RuntimeTable rt(def);
  rt.add_ternary({net::TernaryField{0, 0}}, 0, ActionCall{"deny", {}});
  rt.add_ternary({net::TernaryField{0x0a000000, 0xff000000}}, 10,
                 ActionCall{"permit", {}});

  EXPECT_EQ(rt.lookup({0x0a123456}).action.action, "permit");
  EXPECT_EQ(rt.lookup({0x0b000000}).action.action, "deny");
  EXPECT_TRUE(rt.lookup({0x0b000000}).hit);  // wildcard entry hit
}

TEST(RuntimeTable, KeylessAlwaysHitsDefault) {
  Table def;
  def.name = "keyless";
  def.default_action = "always";
  RuntimeTable rt(def);
  auto res = rt.lookup({});
  EXPECT_TRUE(res.hit);
  EXPECT_EQ(res.action.action, "always");
}

TEST(RuntimeTable, ClearResets) {
  Table def = exact_table();
  RuntimeTable rt(def);
  rt.add_exact({1, 1}, ActionCall{"hit_act", {}});
  rt.clear();
  EXPECT_EQ(rt.entry_count(), 0u);
  EXPECT_FALSE(rt.lookup({1, 1}).hit);
  rt.add_exact({1, 1}, ActionCall{"hit_act", {}});  // usable after clear
  EXPECT_TRUE(rt.lookup({1, 1}).hit);
}


// --- change log (the compiled fast path's delta feed, DESIGN.md §12) ---

using Kind = RuntimeTable::Change::Kind;

/// The change that produced the table's current revision, checked to be
/// covered from the revision just before it.
const RuntimeTable::Change& last_change(const RuntimeTable& rt) {
  EXPECT_TRUE(rt.log_covers(rt.revision() - 1));
  return rt.change(rt.revision());
}

TEST(RuntimeTableLog, ExactMutatorsLogTheirKey) {
  Table def = exact_table();
  RuntimeTable rt(def);
  const std::vector<std::uint64_t> key{7, 1};
  const EpochWindow shadow{1, kEpochOpen};

  auto expect_logged = [&](std::uint64_t rev_before, const char* what) {
    EXPECT_EQ(rt.revision(), rev_before + 1) << what;
    const RuntimeTable::Change& c = last_change(rt);
    EXPECT_EQ(c.kind, Kind::kExact) << what;
    EXPECT_EQ(c.key, key) << what;
  };

  std::uint64_t rev = rt.revision();
  rt.add_exact(key, ActionCall{"hit_act", {{"p", 1}}});  // new key
  expect_logged(rev, "add_exact (new key)");
  rev = rt.revision();
  rt.add_exact(key, ActionCall{"hit_act", {{"p", 2}}});  // overwrite
  expect_logged(rev, "add_exact (overwrite)");
  rev = rt.revision();
  ASSERT_TRUE(rt.retire_exact(key, 0));
  expect_logged(rev, "retire_exact");
  rev = rt.revision();
  ASSERT_TRUE(rt.unretire_exact(key, 0));
  expect_logged(rev, "unretire_exact");
  rev = rt.revision();
  ASSERT_TRUE(rt.remove_exact(key));
  expect_logged(rev, "remove_exact");
  rt.add_exact(key, ActionCall{"hit_act", {}}, shadow);
  rev = rt.revision();
  ASSERT_TRUE(rt.remove_exact_version(key, shadow));
  expect_logged(rev, "remove_exact_version");

  // A refused write changes nothing and logs nothing.
  rev = rt.revision();
  EXPECT_FALSE(rt.remove_exact(key));
  EXPECT_EQ(rt.revision(), rev);
}

TEST(RuntimeTableLog, TernaryMutatorsLogTheirHandle) {
  Table def = lpm_table();
  RuntimeTable rt(def);

  std::uint64_t rev = rt.revision();
  const std::size_t lpm = rt.add_lpm(0x0a000000, 8, ActionCall{"route", {}});
  EXPECT_EQ(rt.revision(), rev + 1);
  EXPECT_EQ(last_change(rt).kind, Kind::kTernary);
  EXPECT_EQ(last_change(rt).handle, lpm);

  const std::size_t tern = rt.add_ternary({net::TernaryField{0x0b000000,
                                                             0xff000000}},
                                          3, ActionCall{"route", {}});
  EXPECT_EQ(last_change(rt).kind, Kind::kTernary);
  EXPECT_EQ(last_change(rt).handle, tern);

  rev = rt.revision();
  ASSERT_TRUE(rt.retire_ternary(lpm, 0));
  EXPECT_EQ(rt.revision(), rev + 1);
  EXPECT_EQ(last_change(rt).handle, lpm);
  ASSERT_TRUE(rt.unretire_ternary(lpm, 0));
  EXPECT_EQ(rt.revision(), rev + 2);
  EXPECT_EQ(last_change(rt).kind, Kind::kTernary);
  EXPECT_EQ(last_change(rt).handle, lpm);
  ASSERT_TRUE(rt.erase_ternary(tern));
  EXPECT_EQ(rt.revision(), rev + 3);
  EXPECT_EQ(last_change(rt).kind, Kind::kTernary);
  EXPECT_EQ(last_change(rt).handle, tern);
}

TEST(RuntimeTableLog, GcAndClearLogTheWholeTable) {
  Table def = exact_table();
  RuntimeTable rt(def);
  rt.add_exact({1, 1}, ActionCall{"hit_act", {}});
  ASSERT_TRUE(rt.retire_exact({1, 1}, 0));

  std::uint64_t rev = rt.revision();
  EXPECT_EQ(rt.gc(1), 1u);
  EXPECT_EQ(rt.revision(), rev + 1);
  EXPECT_EQ(last_change(rt).kind, Kind::kTable);

  rev = rt.revision();
  EXPECT_EQ(rt.gc(1), 0u);  // nothing removed: no mutation, no record
  EXPECT_EQ(rt.revision(), rev);

  rt.add_exact({2, 2}, ActionCall{"hit_act", {}});
  rev = rt.revision();
  rt.clear();
  EXPECT_EQ(rt.revision(), rev + 1);
  EXPECT_EQ(last_change(rt).kind, Kind::kTable);
}

TEST(RuntimeTableLog, SnapshotOlderThanTheLogIsNotCovered) {
  Table def = exact_table();
  def.max_entries = 1024;
  RuntimeTable rt(def);
  EXPECT_TRUE(rt.log_covers(0));  // nothing happened yet
  for (std::uint64_t i = 0; i <= RuntimeTable::kChangeLogCapacity; ++i) {
    rt.add_exact({i, 0}, ActionCall{"hit_act", {}});
  }
  const std::uint64_t rev = rt.revision();
  EXPECT_EQ(rev, RuntimeTable::kChangeLogCapacity + 1);
  EXPECT_FALSE(rt.log_covers(0));  // one mutation too many ago
  EXPECT_TRUE(rt.log_covers(1));
  EXPECT_TRUE(rt.log_covers(rev));
  EXPECT_FALSE(rt.log_covers(rev + 1));  // a revision it never had
  // Every covered revision still names its own key.
  for (std::uint64_t r = 2; r <= rev; ++r) {
    EXPECT_EQ(rt.change(r).key, (std::vector<std::uint64_t>{r - 1, 0}));
  }
}

TEST(RuntimeTableLog, CopiedDataPlaneCarriesItsOwnLog) {
  auto fx = control::make_fig9_deployment();
  DataPlane& original = fx.deployment->dataplane();
  RuntimeTable& orig_lpm = *original.tables_named("Router.ipv4_lpm").at(0);
  const std::uint64_t orig_rev = orig_lpm.revision();
  ASSERT_GT(orig_rev, 0u);

  DataPlane copy = original;
  RuntimeTable& copy_lpm = *copy.tables_named("Router.ipv4_lpm").at(0);
  EXPECT_EQ(copy_lpm.revision(), orig_rev);
  // The copy's log starts at the copied revision: a reader of the
  // original's history is told to re-read the copy in full.
  EXPECT_TRUE(copy_lpm.log_covers(orig_rev));
  EXPECT_FALSE(copy_lpm.log_covers(orig_rev - 1));

  const std::size_t handle =
      copy_lpm.add_lpm(0x0a4d0000, 16, ActionCall{"Router.route", {}});
  EXPECT_EQ(copy_lpm.revision(), orig_rev + 1);
  EXPECT_TRUE(copy_lpm.log_covers(orig_rev));
  EXPECT_EQ(copy_lpm.change(orig_rev + 1).kind, Kind::kTernary);
  EXPECT_EQ(copy_lpm.change(orig_rev + 1).handle, handle);

  // The original neither moved nor saw the copy's write.
  EXPECT_EQ(orig_lpm.revision(), orig_rev);
  EXPECT_FALSE(orig_lpm.log_covers(orig_rev + 1));
}

TEST(RuntimeTableLog, CorruptionStaysSilent) {
  // The auditor's quarantine path (DESIGN.md §16) is the only detector
  // of silent corruption: corrupt() must neither bump the revision nor
  // leave a log record a delta reader could act on.
  Table def = exact_table();
  RuntimeTable rt(def);
  rt.add_exact({1, 1}, ActionCall{"hit_act", {{"p", 1}}});
  rt.add_exact({2, 2}, ActionCall{"hit_act", {{"p", 2}}});
  const std::uint64_t rev = rt.revision();
  for (auto kind : {RuntimeTable::CorruptKind::kActionFlip,
                    RuntimeTable::CorruptKind::kKeyFlip,
                    RuntimeTable::CorruptKind::kDuplicate,
                    RuntimeTable::CorruptKind::kDelete}) {
    ASSERT_NE(rt.corrupt(kind, 42), "");
    EXPECT_EQ(rt.revision(), rev);
    EXPECT_EQ(rt.change(rev).kind, Kind::kExact);
    EXPECT_EQ(rt.change(rev).key, (std::vector<std::uint64_t>{2, 2}));
  }

  Table tdef = lpm_table();
  RuntimeTable tern(tdef);
  tern.add_lpm(0x0a000000, 8, ActionCall{"route", {{"port", 1}}});
  const std::uint64_t trev = tern.revision();
  ASSERT_NE(tern.corrupt(RuntimeTable::CorruptKind::kKeyFlip, 7), "");
  EXPECT_EQ(tern.revision(), trev);
  EXPECT_EQ(tern.change(trev).kind, Kind::kTernary);
}

}  // namespace
}  // namespace dejavu::sim

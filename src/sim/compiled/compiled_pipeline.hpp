// The compiled fast path (DESIGN.md §12): lower a deployed chain —
// merged parser graph, per-pipelet match-action tables with their
// installed rules, resubmit/recirc disposition — into flat dispatch
// arrays executed over a reusable, zero-heap-allocation per-packet
// scratch state. This is the reproduction's stand-in for the ASIC's
// compiled pipeline: the generic interpreter (sim::DataPlane::process)
// re-parses dotted field names, rebuilds parse results, and copies
// ActionCall maps on every packet; the compiled form resolves all of
// that once, at compile time, against the *currently installed* rules
// and the *current* chain generation.
//
// Semantics contract: for every packet the compiled engine accepts, the
// outcome is bit-identical to the interpreter — same SwitchOutput
// (minus the debug trace / pipelets_visited), same port counters, same
// register side effects, same punt-ledger movement, same per-table
// hit/miss counters, same DropCode attribution, same pass cap. Packets
// it does not accept *escape* to the interpreter before any side
// effect and count as fallback_packets:
//   - CPU reinjections and epoch-stamped packets (from_cpu / stamp):
//     the slow path stays on the interpreter by design;
//   - packets whose parse shape (ordered set of extracted headers) is
//     outside the compiled trace set seeded from the explorer's path
//     equivalence classes (malformed/truncated/unknown headers);
//   - everything, when compilation failed (uncompilable construct,
//     witness disagreement) — the engine degrades to a pure
//     interpreter shim rather than guess.
//
// Invalidation contract: compilation snapshots every lowered
// RuntimeTable's revision() and the dataplane's epoch. Before each
// packet the snapshot is revalidated (one revision compare per table);
// what has moved decides how much is re-lowered:
//   - one exact entry: a table write (LB session learning, an eviction,
//     an exact install/remove/retire in a Transaction) is read back
//     from the table's change log and only the touched keys are
//     re-lowered in place;
//   - one table: a ternary/LPM write, a gc or clear, or a table whose
//     change log no longer reaches back to the snapshot re-lowers that
//     table's entry list;
//   - everything: an epoch move (LiveUpdate flip, ChainRepair swap),
//     quarantine(), recompile(), a retry after a failed compile, a
//     delta that cannot be lowered, and arena compaction re-lower the
//     whole program.
// Either way the next packet sees exactly the installed rules, so a
// retired generation is never served from stale traces.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/bits.hpp"
#include "sim/compiled/trace_certificate.hpp"
#include "sim/dataplane.hpp"

namespace dejavu::sim {

/// Explorer-derived compile seed: witness packets, one per path
/// equivalence class (explore::compile_seed converts an ExploreResult).
/// The witnesses (a) define the compiled trace set — a packet whose
/// parse shape no witness exhibits escapes to the interpreter — and
/// (b) gate compilation: each witness is replayed through interpreter
/// and compiled engine on cloned dataplanes, and any disagreement
/// rejects the compile. An empty seed compiles every shape the parser
/// graph can produce and skips witness validation.
///
/// `certificates` (from the cost certifier, cost::run) additionally
/// lower the certified classes into straight-line specialized traces;
/// each certificate is audited at compile time (freshness stamp,
/// register-taint flag, witness-trace cross-check) and revoked or
/// rejected rather than trusted blindly.
struct CompileSeed {
  struct Witness {
    net::Packet packet;
    std::uint16_t in_port = 0;
  };
  std::vector<Witness> witnesses;
  std::vector<TraceCertificate> certificates;
};

/// Why the whole program was re-lowered (each full compile attempt,
/// successful or not, counts under exactly one cause).
struct RecompileCauses {
  std::uint64_t initial = 0;     ///< construction
  std::uint64_t epoch = 0;       ///< the chain generation moved
  std::uint64_t quarantine = 0;  ///< first compile after quarantine()
  std::uint64_t compaction = 0;  ///< dead arena slots outnumbered live
  std::uint64_t request = 0;     ///< an explicit recompile() call
  std::uint64_t delta_error = 0; ///< a delta could not be lowered
};

/// Engine observability (perf half — never part of replay counters).
struct CompiledStats {
  std::uint64_t compiled_packets = 0;  ///< ran fully on the fast path
  std::uint64_t fallback_packets = 0;  ///< delegated to the interpreter
  std::uint64_t recompiles = 0;  ///< successful full re-lowers
  std::uint64_t failed_compiles = 0;
  RecompileCauses recompile_causes;
  /// Exact entries re-lowered in place from a table's change log.
  std::uint64_t entry_deltas = 0;
  /// Single tables re-lowered (ternary/LPM write, gc/clear, log gap).
  std::uint64_t table_relowers = 0;
  /// Of those, exact tables whose change log no longer reached back to
  /// the snapshot revision (more than kChangeLogCapacity writes).
  std::uint64_t log_gaps = 0;
  std::uint64_t shape_escapes = 0;        ///< parse shape not compiled
  std::uint64_t reinjection_escapes = 0;  ///< from_cpu / stamped packets
  /// Trace specialization (certificate consumption, DESIGN.md §14).
  std::uint64_t specialized_packets = 0;  ///< ran a certified trace end-to-end
  std::uint64_t spec_aborts = 0;     ///< entered a trace but diverged mid-run
  std::uint64_t certs_rejected = 0;  ///< failed the consume-time audit
  std::uint64_t certs_revoked = 0;   ///< stale epoch/fingerprint at compile
  std::uint64_t certs_active = 0;    ///< classes currently lowered (snapshot)
  std::uint64_t quarantines = 0;     ///< auditor-forced invalidations (§16)
};

/// SwitchOutput equality over everything the engines must agree on:
/// emissions, punts, drop code + reason string, epoch, resubmission /
/// recirculation counts and ports. The debug trace and
/// pipelets_visited are interpreter-only diagnostics and excluded.
bool semantically_equal(const SwitchOutput& a, const SwitchOutput& b);

/// One compiled engine bound to one DataPlane. Not thread-safe: the
/// scratch state is reused across packets (the zero-allocation hot
/// path), so use one instance per replay worker, like the DataPlane
/// replicas themselves.
class CompiledPipeline {
 public:
  /// Compiles immediately against dp's current program + rules.
  /// `dp` must outlive the pipeline and keep a stable address.
  explicit CompiledPipeline(DataPlane& dp, CompileSeed seed = {});

  /// Drop-in replacement for DataPlane::process (same signature, same
  /// observable behavior); escapes delegate to it.
  SwitchOutput process(net::Packet packet, std::uint16_t in_port,
                       bool from_cpu = false,
                       std::optional<std::uint32_t> stamp = std::nullopt);

  /// Did the last (re)compile succeed? When false every packet falls
  /// back (still correct, no longer fast).
  bool compiled_ok() const { return compiled_ok_; }
  /// Why not, when it didn't.
  const std::string& compile_error() const { return compile_error_; }

  /// Moves on every change to the compiled form: each successful full
  /// compile and each applied delta — the invalidation property tests
  /// assert that a committed update moved this (re-lowered) or cleared
  /// compiled_ok() (fell back).
  std::uint64_t generation() const { return generation_; }

  /// Force a full recompile now; returns compiled_ok().
  bool recompile();

  /// State-integrity quarantine (DESIGN.md §16): the auditor detected
  /// silent corruption in the underlying dataplane, so nothing lowered
  /// from it can be trusted — the revision snapshot CANNOT catch this
  /// (silent corruption never bumps a revision; that is what makes it
  /// silent). Drops the compiled snapshot, revokes every active
  /// TraceCertificate lowering, and forces a fresh compile on the next
  /// packet (by then the repair has typically converged the state).
  void quarantine();

  const CompiledStats& stats() const { return stats_; }

  /// Slots in the action-op arena, live and dead: deltas recycle dead
  /// slots, so this stays bounded under learn/evict churn.
  std::size_t op_arena_size() const { return ops_.items.size(); }

  DataPlane& dataplane() { return *dp_; }

 private:
  // --- compiled program representation (flat arrays, arena-indexed) ---

  /// Where a resolved field lives. kNone reads nullopt / writes no-op —
  /// the lowered form of an unknown or unparseable dotted reference.
  enum class Space : std::uint8_t { kHeader, kMeta, kLocal, kNone };

  enum class MetaField : std::uint8_t {
    kIngressPort,
    kEgressSpec,
    kEgressPort,
    kPacketLength,
    kResubmitFlag,
    kRecirculateFlag,
    kDropFlag,
    kMirrorFlag,
    kToCpuFlag,
    kEpoch,    // readable, not writable (matches FieldView)
    kUnknown,  // named standard_metadata.* field that doesn't exist
  };

  struct FieldRefC {
    Space space = Space::kNone;
    MetaField meta = MetaField::kUnknown;
    std::uint16_t header = 0;  // header-type index
    std::uint32_t bit_off = 0;
    std::uint16_t bits = 0;
    /// The field's bytes relative to its header's start, lowered at
    /// compile time: a header access is one bounds compare plus one
    /// load_bits/store_bits.
    ByteSlice slice;
    std::uint16_t local_slot = 0;
    /// Writing this field can change what the parser extracts (its
    /// bits overlap a parser selector) — invalidate the cached parse.
    bool affects_parse = false;
  };

  struct OpC {
    p4ir::PrimitiveOp op = p4ir::PrimitiveOp::kNoop;
    FieldRefC dst;
    FieldRefC src;   // kCopy source / register index field
    FieldRefC vsrc;  // kRegisterWrite value source
    std::uint64_t imm = 0;  // immediate / baked action argument
    std::uint8_t ctx_key = 0;
    std::uint16_t ctx_value = 0;
    std::vector<std::uint64_t>* reg = nullptr;
    std::uint64_t reg_mask = 0;
    bool reg_index_from_imm = false;
    bool reg_value_from_imm = false;
    bool reg_write_dst = false;  // kRegisterAdd: dst non-empty
    std::uint32_t hash_begin = 0;  // kHash: slice of hash_srcs_
    std::uint32_t hash_count = 0;
  };

  struct HashSrc {
    FieldRefC ref;
    std::uint8_t bytes = 4;
  };

  /// A compiled action body: slice of ops_. count == 0 means "no
  /// action" (empty action name).
  struct ActionRef {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };

  static constexpr std::size_t kMaxKeyArity = 8;

  struct ExactKey {
    std::uint64_t v[kMaxKeyArity] = {};
    std::uint8_t n = 0;
    bool operator==(const ExactKey& o) const {
      if (n != o.n) return false;
      for (std::uint8_t i = 0; i < n; ++i) {
        if (v[i] != o.v[i]) return false;
      }
      return true;
    }
  };
  struct ExactKeyHash {
    std::size_t operator()(const ExactKey& k) const {
      std::uint64_t h = 1469598103934665603ull;
      for (std::uint8_t i = 0; i < k.n; ++i) {
        h ^= k.v[i];
        h *= 1099511628211ull;
      }
      return static_cast<std::size_t>(h);
    }
  };

  /// One lowered ternary entry: value/mask pairs in vm_, TCAM priority
  /// order preserved, epoch-filtered at compile time.
  struct TernEntryC {
    std::uint32_t vm_begin = 0;
    std::uint32_t vm_count = 0;
    ActionRef action;
  };

  struct TableC {
    const RuntimeTable* rt = nullptr;  // for record_lookup + revision
    bool keyless = false;
    bool is_tcam = false;
    std::uint32_t key_begin = 0;  // slice of key_refs_
    std::uint32_t key_count = 0;
    std::unordered_map<ExactKey, ActionRef, ExactKeyHash> exact;
    std::vector<TernEntryC> tern;
    ActionRef default_action;
  };

  struct EntryC {
    std::uint32_t table = 0;
    std::int32_t branch = -1;  // -1 = unconditional
    bool has_field_guard = false;
    FieldRefC guard_field;
    std::uint64_t guard_value = 0;
    p4ir::GuardCmp guard_cmp = p4ir::GuardCmp::kEq;
    std::uint32_t guard_begin = 0;  // slice of guard_tables_
    std::uint32_t guard_count = 0;
    p4ir::GuardMode mode = p4ir::GuardMode::kAlways;
  };

  struct ControlC {
    bool present = false;
    const p4ir::ControlBlock* block = nullptr;
    std::vector<EntryC> entries;
    std::vector<TableC> tables;
    std::uint32_t branch_count = 0;
  };

  struct ParseEdgeC {
    bool is_default = false;
    FieldRefC select;
    std::uint64_t value = 0;
    std::uint32_t to = 0;  // compiled state index
  };

  struct ParseStateC {
    bool valid = false;  // header type resolved
    std::uint16_t header = 0;
    std::uint32_t offset = 0;
    std::uint32_t width = 0;
    std::uint32_t edge_begin = 0;
    std::uint32_t edge_count = 0;
  };

  /// A table-guard reference: index into the owning control's tables,
  /// or kAbsentTable for a name never applied (always a miss).
  static constexpr std::uint32_t kAbsentTable = 0xffffffff;

  // --- trace specialization (certificate consumption, DESIGN.md §14) ---

  /// A certificate guard lowered to a resolved field reference.
  /// `field_idx` indexes the owning admission bucket's deduplicated
  /// field list, so the per-packet test is pure integer compares over
  /// values read once per bucket.
  struct SpecGuardC {
    FieldRefC field;
    std::uint16_t field_idx = 0;
    std::uint64_t known_mask = 0;
    std::uint64_t known_value = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = ~0ull;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> forbidden;  // v, m
  };

  /// Admission index over spec_classes_: one bucket per distinct
  /// (in_port, initial parse shape), holding the union of its classes'
  /// guard fields. Admission reads each field once, then walks the
  /// bucket's classes with cached values — the class scan no longer
  /// re-extracts the same header bytes per candidate.
  struct SpecBucketC {
    std::uint16_t in_port = 0;
    std::uint64_t shape_hash = 0;
    std::vector<FieldRefC> fields;
    std::vector<std::uint32_t> classes;  // indices into spec_classes_
  };

  /// One lookup on the proven spine. A hit on a keyed table carries the
  /// expected key (exact) or TCAM entry ordinal plus the action
  /// re-resolved against *this* instance's op arena, so execution can
  /// verify-and-skip the hash probe / priority scan. Misses and
  /// keyless steps run the generic lookup and merely verify the
  /// outcome. Doubles as the recording format for the compile-time
  /// witness cross-check.
  struct SpecStepC {
    std::uint32_t pass = 0;
    std::uint32_t control = 0;
    std::uint32_t entry = 0;
    bool hit = false;
    bool is_tcam = false;
    bool keyless = false;
    ExactKey key;
    std::uint32_t tern_ordinal = 0;
    ActionRef action;
  };

  struct SpecClassC {
    std::string class_id;
    std::uint16_t in_port = 0;
    std::uint64_t shape_hash = 0;
    std::vector<SpecGuardC> guards;
    std::vector<SpecStepC> steps;
  };

  /// A flat arena whose dead slices are recycled by length, so entry
  /// deltas reuse the slots of the entries they replace instead of
  /// growing the arena for as long as a run lasts.
  template <class T>
  struct Arena {
    std::vector<T> items;
    std::vector<std::vector<std::uint32_t>> free_slices;  // [length] -> begins
    std::size_t dead = 0;

    std::uint32_t alloc(std::size_t n) {
      if (n < free_slices.size() && !free_slices[n].empty()) {
        const std::uint32_t begin = free_slices[n].back();
        free_slices[n].pop_back();
        dead -= n;
        return begin;
      }
      const auto begin = static_cast<std::uint32_t>(items.size());
      items.resize(items.size() + n);
      return begin;
    }
    void release(std::uint32_t begin, std::size_t n) {
      if (n == 0) return;
      if (free_slices.size() <= n) free_slices.resize(n + 1);
      free_slices[n].push_back(begin);
      dead += n;
    }
    bool mostly_dead() const { return dead > items.size() - dead; }
    void clear() {
      items.clear();
      free_slices.clear();
      dead = 0;
    }
    T& operator[](std::size_t i) { return items[i]; }
  };

  /// One lowered table's snapshot revision (revisions_ entry).
  struct TableRev {
    const RuntimeTable* rt = nullptr;
    std::uint64_t rev = 0;
    std::uint32_t control = 0;  // index into controls_
    std::uint32_t table = 0;    // index into that control's tables
  };

  // --- compilation ---
  /// Full re-lower, counted under `cause`.
  bool recompile(std::uint64_t RecompileCauses::*cause);
  bool compile(std::string* err);
  bool compile_control(const std::string& control_name, ControlC& cc,
                       std::string* err);
  bool compile_action(const p4ir::ControlBlock& control,
                      const ActionCall& call, ActionRef& out,
                      std::string* err);
  /// Lower a table's installed entries visible at compiled_epoch_,
  /// releasing whatever it had lowered before.
  bool lower_entries(const p4ir::ControlBlock& control, TableC& t,
                     std::string* err);
  /// Re-lower the versions of one exact key.
  bool lower_exact_key(const p4ir::ControlBlock& control, TableC& t,
                       const std::vector<std::uint64_t>& key,
                       std::string* err);
  void release_action(ActionRef ref);
  /// Catch the compiled form up with drifted table revisions, entry by
  /// entry or table by table; false when it had to fall back to a full
  /// recompile that failed.
  bool apply_deltas();
  void size_local_scratch();
  FieldRefC resolve_field(const std::string& dotted);
  /// A header field; kNone when it does not resolve or is wider than
  /// 64 bits (the latter also recorded in wide_field_).
  FieldRefC resolve_header_field(const std::string& dotted);
  /// Fails the lowering in progress if it referenced a wide field.
  bool check_wide_fields(std::string* err) const;
  void mark_parse_selectors();
  void collect_shapes_from_witnesses();
  bool collect_all_shapes();
  bool shape_dfs(std::uint32_t state, std::uint64_t present,
                 std::uint64_t hash, std::size_t hop);
  bool validate_witnesses(std::string* err);
  bool ensure_valid();
  /// Audit every seed certificate against the freshly compiled program
  /// (freshness stamp, taint flag, recorded-vs-declared trace) and
  /// lower the survivors into spec_classes_.
  void compile_specializations();
  /// Build spec_buckets_ over the freshly lowered spec_classes_.
  void index_specializations();
  bool guards_admit(const SpecClassC& sc) const;

  // --- execution (per-packet scratch; single-threaded) ---
  SwitchOutput run(net::Packet packet, std::uint16_t in_port);
  void run_control(const ControlC& cc, net::Packet& packet,
                   StandardMetadata& meta);
  void run_action(ActionRef ref, net::Packet& packet, StandardMetadata& meta);
  void do_emit(net::Packet packet, std::uint16_t port, SwitchOutput& out);
  void run_parse(const net::Packet& packet);
  void ensure_parse(const net::Packet& packet);
  std::optional<std::uint64_t> read_field(const FieldRefC& f,
                                          const net::Packet& packet,
                                          const StandardMetadata& meta);
  void write_field(const FieldRefC& f, std::uint64_t value,
                   net::Packet& packet, StandardMetadata& meta);
  SwitchOutput fall_back(net::Packet packet, std::uint16_t in_port,
                         bool from_cpu, std::optional<std::uint32_t> stamp);

  DataPlane* dp_;
  CompileSeed seed_;
  bool compiled_ok_ = false;
  bool validated_once_ = false;
  std::string compile_error_;
  CompiledStats stats_;

  // Snapshot the compiled form is valid for.
  std::uint32_t compiled_epoch_ = 0;
  std::uint32_t attempted_epoch_ = 0;
  bool attempted_ = false;
  std::vector<TableRev> revisions_;
  std::uint64_t generation_ = 0;

  // Compiled program.
  std::vector<ControlC> controls_;  // [pipeline * 2 + (kind == egress)]
  std::uint32_t pipelines_ = 0;
  std::vector<ParseStateC> parse_states_;
  std::vector<ParseEdgeC> parse_edges_;
  std::uint32_t parse_start_ = 0;
  bool parser_empty_ = true;
  Arena<OpC> ops_;
  Arena<HashSrc> hash_srcs_;
  std::vector<FieldRefC> key_refs_;
  std::vector<std::uint32_t> guard_tables_;
  Arena<std::pair<std::uint64_t, std::uint64_t>> vm_;  // value, mask
  std::unordered_set<std::uint64_t> shapes_;
  std::unordered_map<std::string, std::uint16_t> header_index_;
  std::unordered_map<std::string, std::uint16_t> local_index_;
  /// First field wider than 64 bits a lowering referenced (empty if
  /// none): such a field cannot be lowered, so its compile fails.
  std::string wide_field_;
  std::int32_t ipv4_header_ = -1;
  std::int32_t sfc_header_ = -1;
  bool sfc_affects_parse_ = false;
  /// Per-header bit ranges the parser's edge selectors read; a write
  /// overlapping one can steer the next parse.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint16_t>>>
      selector_ranges_;

  // Per-packet scratch (reused; no allocation once warmed).
  std::vector<std::uint32_t> hdr_off_;
  std::uint64_t present_ = 0;
  std::uint64_t shape_hash_ = 0;
  bool parse_dirty_ = true;
  std::vector<std::uint64_t> local_val_;
  std::vector<std::uint32_t> local_stamp_;
  std::vector<std::uint8_t> hit_val_;
  std::vector<std::uint32_t> hit_stamp_;
  std::vector<std::uint32_t> branch_checked_stamp_;
  std::uint32_t pass_token_ = 0;

  // Trace specialization: audited classes, the admission index, the
  // per-packet cursor, and the recording hook the compile-time
  // cross-check uses.
  std::vector<SpecClassC> spec_classes_;
  std::vector<SpecBucketC> spec_buckets_;
  std::vector<std::optional<std::uint64_t>> spec_vals_;  // scratch
  const SpecClassC* spec_ = nullptr;
  std::size_t spec_next_ = 0;
  bool spec_ok_ = false;
  std::uint32_t cur_pass_ = 0;
  std::uint32_t cur_control_ = 0;
  std::vector<SpecStepC>* rec_ = nullptr;
};

}  // namespace dejavu::sim

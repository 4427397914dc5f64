// The synchronous simulation engine: drives Communicate-Compute-Move rounds
// over an adversary-controlled 1-interval connected dynamic graph until the
// configuration is dispersed (or a round budget runs out).
//
// Round r (Section II + Section VII):
//   0. robots scheduled to crash *before* Communicate vanish;
//   1. the adversary emits G_r (trap adversaries may first dry-run the
//      robots through the installed plan probe);
//   2. Communicate: packets are assembled per the communication model and
//      1-neighborhood switch, and every alive robot observes its view (which
//      borrows the round's broadcast and, for algorithms that read them,
//      the engine's per-robot store of start-of-round states);
//   3. Compute: each alive robot's step() returns an exit port;
//   4. robots scheduled to crash *after* Communicate vanish (they computed,
//      and other robots planned around them, but they do not move);
//   5. Move: remaining moves are applied simultaneously; robots that
//      stepped re-serialize their persistent state (into the state store
//      when it is kept), which is metered.
// Dispersion is detected between rounds (global communication makes this
// detectable by the robots themselves; for local algorithms the engine's
// check is an external oracle that merely stops the clock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "graph/algorithms.h"
#include "robots/configuration.h"
#include "sim/algorithm.h"
#include "sim/byzantine.h"
#include "sim/fault.h"
#include "sim/memory_meter.h"
#include "sim/round_context.h"
#include "sim/sensing.h"
#include "util/contract.h"
#include "util/rng.h"
#include "util/types.h"

namespace dyndisp {

class ThreadPool;

/// Robot activation models. The paper is synchronous (every robot executes
/// every CCM round); kRandomSubset is the semi-synchronous exploration the
/// paper names as future work -- each round every alive robot is activated
/// independently with a fixed probability (at least one robot is always
/// activated so no round is entirely empty). Inactive robots neither
/// compute nor move, but they remain physically present: they are sensed,
/// counted, and their node still broadcasts its packet.
enum class Activation {
  kSynchronous,
  kRandomSubset,
  /// Exactly one alive robot is activated per round, cycling by ID -- the
  /// sequential scheduler, the harshest classical weakening of synchrony
  /// (every async execution is a sequence of single activations).
  kRoundRobin,
};

/// Everything an observer may inspect about one executed round, assembled
/// after the Move phase and before the round's artifacts are recycled. All
/// references are valid only during the observer call.
struct RoundSnapshot {
  Round round = 0;
  const Graph& graph;           ///< G_r as emitted by the adversary.
  /// Configuration at the start of the round: after the round's
  /// kBeforeCommunicate crashes and before its kAfterCommunicate ones, so
  /// it is the configuration the broadcast was built from.
  const Configuration& before;
  const Configuration& after;   ///< Configuration after the Move phase.
  const MovePlan& plan;         ///< Exit ports chosen (id-1 indexed).
  /// The round's published broadcast, exactly as the robots received it
  /// (after any Byzantine tampering); falsy under local communication.
  const PacketSet& packets;
  std::size_t packet_bits = 0;  ///< Metered wire bits of `packets`.
  /// Nodes occupied this round that had never been occupied before.
  std::size_t newly_occupied = 0;
  bool crashed_this_round = false;
  /// Peak metered persistent memory over the run so far, in bits.
  std::size_t max_memory_bits = 0;
};

/// Raised by the engine when a per-round invariant fails: either its own
/// round-graph validation (oracle "round-graph") or a user-installed
/// on_round observer. Derives std::runtime_error so existing catch sites
/// keep working; carries the round and the oracle name so a fuzzer can
/// shrink toward the exact violation it first observed.
class InvariantViolation : public std::runtime_error {
 public:
  InvariantViolation(Round round, std::string oracle, const std::string& what)
      : std::runtime_error(what), round_(round), oracle_(std::move(oracle)) {}

  Round round() const { return round_; }
  const std::string& oracle() const { return oracle_; }

 private:
  Round round_;
  std::string oracle_;
};

/// Per-round hook: inspect the snapshot, and throw InvariantViolation to
/// abort the run at the offending round. Returning normally means the
/// round passed.
using RoundObserver = std::function<void(const RoundSnapshot&)>;

struct EngineOptions {
  CommModel comm = CommModel::kGlobal;
  bool neighborhood_knowledge = true;
  Activation activation = Activation::kSynchronous;
  /// Per-robot, per-round activation probability under kRandomSubset; the
  /// engine rejects values outside (0, 1] there.
  double activation_probability = 1.0;
  std::uint64_t activation_seed = 1;
  /// Hard stop; impossibility benches use this as the containment horizon.
  Round max_rounds = 100000;
  /// Record per-round occupied counts (cheap) for progress plots.
  bool record_progress = false;
  /// Allow running an algorithm whose declared requirements exceed what the
  /// options provide (used deliberately by the impossibility experiments).
  bool allow_model_mismatch = false;
  /// Byzantine liars (future-work exploration): tampers the packet layer
  /// and/or overrides the liars' moves. Null = all robots honest.
  std::shared_ptr<const ByzantineModel> byzantine;
  /// The one per-round hook: called once per executed round, after its
  /// Move phase, with the round's snapshot. The lemma and broadcast oracles
  /// (src/check), traces (record_into in sim/trace.h), the golden packet
  /// traces and the allocation pins all observe runs through it; it may
  /// throw InvariantViolation to stop the run at the offending round.
  /// Null = off, and then the engine copies no start-of-round snapshot.
  RoundObserver on_round;
  /// Compute-phase fan-out: packet assembly, view assembly, and step() calls
  /// are spread over this many threads (1 = fully serial, no pool). Results
  /// are bitwise identical at any value: robots only read the round's shared
  /// artifacts and mutate their own state, and every parallel loop writes to
  /// index-owned slots under a static partition.
  std::size_t threads = 1;
};

/// Round-loop effectiveness, counted (not estimated) per run. The round
/// loop (docs/PERFORMANCE.md) skips next_graph when the adversary promises
/// an unchanged graph (same_as_last), skips re-validating a graph already
/// validated, and hands robots valid ReuseHints so plan layers can memoize
/// Algorithm 1-3 structures across rounds (StructureCache, whose counters
/// live on the cache instance: StructureCache::stats()). Every round's
/// broadcast is assembled in full; the broadcast-reference oracle in
/// check/oracles.h checks it against an independent rebuild.
/// Observability only: these fields are deliberately excluded from run
/// digests (check/trial.cpp) and campaign records. The exclusion is
/// machine-checked: the DYNDISP_STATS tag makes any read of these fields
/// inside a digest/serialize function a digest-exclusion finding.
struct DYNDISP_STATS RoundLoopStats {
  std::size_t graph_reuses = 0;         ///< next_graph calls skipped (hint).
  std::size_t validations_skipped = 0;  ///< Re-validations of an unchanged graph skipped.
  /// Counters of the deleted broadcast reuse and delta routes. Nothing
  /// writes them, so they always read 0; they stay only because the
  /// benchmark harness (benchmark/main.cpp) still reads them, and go with
  /// the ROADMAP item "Benchmark definition v2".
  std::size_t broadcasts_reused = 0;
  std::size_t broadcast_deltas = 0;
  std::size_t packets_copied = 0;
  std::size_t packets_rebuilt = 0;
  /// Per-phase wall-time buckets, milliseconds summed over every executed
  /// round (util/phase_clock.h; observability only, digest-excluded like
  /// everything here). graph_build covers the round's activation draw, the
  /// RoundContext::begin_round node index (which the adversary's plan
  /// probes read), the adversary's next_graph and round-graph validation;
  /// broadcast covers packet assembly;
  /// plan is this engine's serial lead step, the first stepping robot's
  /// view fill and step (for a shared PlanCache, the round's miss:
  /// Algorithm 1-3 structures + Algorithm 4 plan derivation); compute is
  /// the compute phase's remainder (the other robots' view assembly and
  /// steps); move covers the Move phase and end-of-round state
  /// refresh/metering.
  double phase_graph_build_ms = 0;
  double phase_broadcast_ms = 0;
  double phase_plan_ms = 0;
  double phase_compute_ms = 0;
  double phase_move_ms = 0;
};

struct RunResult {
  bool dispersed = false;
  Round rounds = 0;                 ///< Rounds executed until dispersion/stop.
  std::size_t k = 0;                ///< Robots at the start.
  std::size_t initial_occupied = 0; ///< Distinct occupied nodes in Conf_0.
  std::size_t crashed = 0;          ///< Robots that crashed during the run.
  std::size_t total_moves = 0;      ///< Edge traversals performed.
  std::size_t max_memory_bits = 0;  ///< Peak persistent state, any robot.
  std::size_t packets_sent = 0;     ///< Info packets broadcast (global comm).
  std::size_t packet_bits_sent = 0; ///< Total wire bits of those packets.
  /// Rounds in which no previously-unoccupied node was newly occupied while
  /// a multiplicity node existed (Lemma 7 says 0 for Algorithm 4).
  std::size_t stalled_rounds = 0;
  /// Max occupied-node count ever reached (impossibility containment).
  std::size_t max_occupied = 0;
  /// Nodes visited (occupied at least once) over the whole run -- the
  /// exploration metric of the paper's related problem ("a solution to
  /// exploration is enough to solve DISPERSION but the reverse may not be
  /// true": dispersion can finish with explored_nodes < n when k < n).
  std::size_t explored_nodes = 0;
  /// First round after which every node had been visited; kNeverExplored
  /// when exploration did not complete within the run.
  static constexpr Round kNeverExplored = static_cast<Round>(-1);
  Round exploration_round = kNeverExplored;
  Configuration final_config;
  std::vector<std::size_t> occupied_per_round;  ///< If record_progress.
  RoundLoopStats stats;  ///< Reuse counters; excluded from digests/records.
};

class Engine {
 public:
  /// `initial.robot_count()` robots are instantiated through `factory`.
  Engine(Adversary& adversary, Configuration initial,
         const AlgorithmFactory& factory, EngineOptions options,
         FaultSchedule faults = FaultSchedule::none());

  ~Engine();  // out of line: ThreadPool is forward-declared here

  /// Runs to dispersion or the round budget; returns the collected result.
  RunResult run();

  /// Name of the algorithm under simulation (from robot 1's instance).
  std::string algorithm_name() const;

 private:
  Adversary& adversary_;
  Configuration conf_;
  EngineOptions options_;
  FaultSchedule faults_;
  std::vector<std::unique_ptr<RobotAlgorithm>> robots_;  // index id-1
  /// Non-owning view of robots_, built once: the compute phase hands
  /// plan_on a raw-pointer span every round, and rebuilding the vector per
  /// round was a per-round allocation.
  std::vector<RobotAlgorithm*> raw_robots_;
  /// Plan-probe robot arena (index id-1) and its raw-pointer span, created
  /// by the first probe (engines whose adversary never probes never pay
  /// for it) and refilled from robots_ through copy_into() on every probe;
  /// clone() only fills empty slots and those whose copy_into declines.
  /// Mutable for the same reason as views_arena_.
  mutable std::vector<std::unique_ptr<RobotAlgorithm>> probe_robots_;
  mutable std::vector<RobotAlgorithm*> probe_raw_;
  MemoryMeter meter_;
  Round probe_round_ = 0;  ///< Round whose graph the adversary is building.

  /// Port through which each robot entered its current node (id-1 indexed).
  std::vector<Port> arrival_ports_;

  /// Activation mask for the round being executed (id-1 indexed); shared
  /// with plan probes so the adversary sees the true schedule.
  std::vector<bool> active_;
  Rng activation_rng_{1};
  std::size_t round_robin_cursor_ = 0;  ///< Last activated ID (kRoundRobin).

  /// Each robot's serialized start-of-round state (id-1 indexed): one byte
  /// buffer per robot, overwritten in place (its capacity reused) at the
  /// end of every round the robot steps in, and borrowed by the round's
  /// views for their steps -- no robot writes it before the Move phase, so
  /// every view reads start-of-round bytes. Kept only when some robot reads
  /// exchanged states (needs_.colocated_states, the DFS baselines);
  /// otherwise empty, and refresh_state copies nothing.
  std::vector<std::vector<std::uint8_t>> states_;
  /// Bit count of each robot's latest serialization, kept for every run:
  /// the memory meter reads it -- the one serialization per robot per round
  /// the simulation performs.
  std::vector<std::size_t> state_bits_;
  BitWriter state_writer_;  ///< Reused serialization sink (refresh_state).

  /// The field-wise OR of every robot's declared ViewNeeds, and the
  /// persistent per-robot view arena plan_on fills in place (mutable: plan
  /// probes are const and share it -- probes and the real compute phase
  /// run strictly sequentially).
  ViewNeeds needs_;
  mutable std::vector<RobotView> views_arena_;
  /// The per-node empty-port lists the views of one plan_on call borrow,
  /// rebuilt in place by every call (mutable for the same reason).
  mutable EmptyPortIndex empty_ports_;

  /// Compute-phase pool (null when options_.threads <= 1).
  std::unique_ptr<ThreadPool> pool_;

  /// The executing round's shared artifacts; set by run() before the
  /// adversary (and its plan probes) are consulted.
  const RoundContext* round_ctx_ = nullptr;

  /// Round-loop persistence. ctx_ lives across rounds so its buffers are
  /// reused; graph_ holds G_{r-1} for same-graph detection and deltas; graph_validated_/validated_fp_ remember whether graph_
  /// already passed validate_round_graph.
  RoundContext ctx_;
  Graph graph_;
  /// Double buffer for adversary emission: next_graph_into fills this (the
  /// round-before-last's graph, whose arrays regenerating adversaries
  /// refill in place) and a swap promotes it to graph_.
  Graph scratch_graph_;
  bool have_graph_ = false;
  bool graph_validated_ = false;
  std::uint64_t validated_fp_ = 0;
  /// The round-graph check's connectivity BFS storage, kept across rounds.
  BfsScratch validate_scratch_;
  /// This round's graph-vs-last-round classification, stamped into the
  /// REAL round's hints (probes stay kUnknown: a candidate graph has no
  /// cross-round relation).
  GraphChange round_change_ = GraphChange::kUnknown;
  /// Scratch: the nodes whose adjacency differs between G_r and G_{r-1},
  /// filled by the small-delta probe and meaningful only when round_change_
  /// is kSmallDelta. Nothing reads the list itself: the probe's verdict
  /// sets the kSmallDelta class, which the StructureCache reads through the
  /// hints, and the list goes with that cache.
  std::vector<NodeId> graph_changed_;
  MovePlan plan_buf_;                ///< Retained compute-phase plan buffer.
  /// The start-of-round configuration observers see (RoundSnapshot::before).
  /// Refilled by copy-assignment only when on_round is set, so it reuses
  /// its capacity and is allocation-free in steady state.
  Configuration before_;

  /// Dry-runs all alive robots' compute phases on a candidate graph,
  /// reusing the current round's node index and state store.
  MovePlan probe_plan(const Graph& candidate) const;

  /// Runs the real compute phase on `g`, mutating robot state; `lead_ns`
  /// receives the lead step's wall time. Returns the retained plan_buf_
  /// (refilled in place each round; valid until the next compute_plan
  /// call).
  MovePlan& compute_plan(const Graph& g, Round round, const RoundContext& ctx,
                         std::uint64_t& lead_ns);

  /// Every alive, active robot assembles its view and steps. The lead (the
  /// lowest such index) steps alone first -- it derives the round's plan
  /// -- and the rest fan out over `pool` (null: serial), each filling its
  /// view just before its step; views read only the start-of-round
  /// snapshot, so state exchange stays synchronous. `packets` is the
  /// (possibly candidate) broadcast for `g`, which every view borrows for
  /// the call, as it borrows the per-robot state store `states` when
  /// `needs` declares exchanged states, and each view's empty ports borrow
  /// `empty_ports`, rebuilt for `g` when the model grants neighborhood
  /// knowledge. The node index comes from `ctx`;
  /// `hints` ride into every view (invalid hints when the broadcast is not a pure
  /// function of (g, conf, model)). Views are filled in place into `views`'
  /// slots under `needs` gating. `plan` is an out-parameter refilled via
  /// assign() so the round loop's retained buffer never reallocates in
  /// steady state. Returns the lead step's wall time in nanoseconds (0
  /// when no robot steps).
  static std::uint64_t plan_on(const Graph& g, const Configuration& conf,
                               Round round, const EngineOptions& options,
                               const std::vector<Port>& arrival_ports,
                               const std::vector<bool>& active,
                               const std::vector<RobotAlgorithm*>& robots,
                               const RoundContext& ctx, PacketSet packets,
                               const std::vector<std::vector<std::uint8_t>>& states,
                               const ReuseHints& hints, ThreadPool* pool,
                               std::vector<RobotView>& views,
                               EmptyPortIndex& empty_ports,
                               const ViewNeeds& needs, MovePlan& plan);

  /// Hints describing the broadcast for graph `g` this round; valid only
  /// when communication is global and no Byzantine model tampers packets.
  ReuseHints make_hints(const Graph& g) const;

  /// Re-serializes robot `id`'s persistent state: records its bit count in
  /// state_bits_ and, when views read exchanged states, copies its bytes
  /// into its states_ buffer.
  void refresh_state(RobotId id);

  /// Draws the activation mask for one round per options_.activation.
  void draw_activation();
};

}  // namespace dyndisp

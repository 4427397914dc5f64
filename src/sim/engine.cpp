#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "dynamic/validator.h"
#include "util/parallel.h"
#include "util/phase_clock.h"

namespace dyndisp {

Engine::Engine(Adversary& adversary, Configuration initial,
               const AlgorithmFactory& factory, EngineOptions options,
               FaultSchedule faults)
    : adversary_(adversary),
      conf_(std::move(initial)),
      options_(options),
      faults_(std::move(faults)) {
  if (adversary_.node_count() != conf_.node_count()) {
    throw std::invalid_argument(
        "engine: adversary and configuration disagree on node count");
  }
  // Written so that NaN fails too.
  if (options_.activation == Activation::kRandomSubset &&
      !(options_.activation_probability > 0.0 &&
        options_.activation_probability <= 1.0)) {
    throw std::invalid_argument(
        "engine: activation probability must be in (0, 1]");
  }
  const std::size_t k = conf_.robot_count();
  robots_.reserve(k);
  for (RobotId id = 1; id <= k; ++id) robots_.push_back(factory(id, k));
  raw_robots_.reserve(k);
  for (const auto& r : robots_) raw_robots_.push_back(r.get());
  arrival_ports_.assign(k, kInvalidPort);
  active_.assign(k, true);
  state_bits_.assign(k, 0);
  activation_rng_ = Rng(options_.activation_seed);
  // Aggregate view needs: a field is assembled if ANY robot declares it.
  if (!robots_.empty()) {
    needs_ = robots_.front()->view_needs();
    for (std::size_t i = 1; i < robots_.size(); ++i)
      needs_.merge(robots_[i]->view_needs());
  }
  // The state store exists only for runs whose views read exchanged states.
  if (needs_.colocated_states) states_.resize(k);
  if (options_.threads > 1) pool_ = std::make_unique<ThreadPool>(options_.threads);
  // Adversaries with counter-stream builders fan graph construction over
  // the compute pool (byte-identical at any lane count; null = serial).
  adversary_.set_thread_pool(pool_.get());
  if (!options_.allow_model_mismatch && !robots_.empty()) {
    const RobotAlgorithm& proto = *robots_.front();
    if (proto.requires_global_comm() && options_.comm != CommModel::kGlobal) {
      throw std::invalid_argument("engine: " + proto.name() +
                                  " requires global communication");
    }
    if (proto.requires_neighborhood() && !options_.neighborhood_knowledge) {
      throw std::invalid_argument("engine: " + proto.name() +
                                  " requires 1-neighborhood knowledge");
    }
  }
}

Engine::~Engine() = default;

std::string Engine::algorithm_name() const {
  return robots_.empty() ? "(none)" : robots_.front()->name();
}

void Engine::refresh_state(RobotId id) {
  BitWriter& w = state_writer_;
  w.clear();
  robots_[id - 1]->serialize(w);
  state_bits_[id - 1] = w.bit_count();
  // The meter needs only the bit count; the bytes are kept only when some
  // view reads exchanged states. Copy-assignment reuses the buffer's
  // capacity, so a warmed-up run copies without allocating.
  if (needs_.colocated_states) states_[id - 1] = w.bytes();
}

ReuseHints Engine::make_hints(const Graph& g) const {
  ReuseHints hints;
  hints.valid = options_.comm == CommModel::kGlobal &&
                options_.byzantine == nullptr;
  hints.neighborhood = options_.neighborhood_knowledge;
  hints.graph_fp = g.fingerprint();
  hints.conf_digest = ctx_.conf_digest();
  return hints;
}

std::uint64_t Engine::plan_on(const Graph& g, const Configuration& conf,
                              Round round, const EngineOptions& options,
                              const std::vector<Port>& arrival_ports,
                              const std::vector<bool>& active,
                              const std::vector<RobotAlgorithm*>& robots,
                              const RoundContext& ctx, PacketSet packets,
                              const std::vector<std::vector<std::uint8_t>>& states,
                              const ReuseHints& hints, ThreadPool* pool,
                              std::vector<RobotView>& views,
                              const ViewNeeds& needs, MovePlan& plan) {
  const bool neighborhood = options.neighborhood_knowledge;
  const std::size_t k = conf.robot_count();
  if (views.size() != k) views.resize(k);
  plan.assign(k, kInvalidPort);
  if (options.comm != CommModel::kGlobal) packets.reset();

  // The lead: the lowest-index robot that steps.
  std::size_t lead = 0;
  while (lead < k && !(conf.alive(static_cast<RobotId>(lead + 1)) &&
                       active[lead]))
    ++lead;
  if (lead == k) return 0;

  // One robot's compute phase: assemble its view against the synchronous
  // snapshot (its slot of the persistent arena is refilled in place, and
  // fields outside the run's declared needs are skipped), then step. Robots
  // mutate only their own state, and views read only the round's immutable
  // artifacts, so a robot's fill and step need no barrier between robots.
  const auto step_robot = [&](std::size_t i) {
    const RobotId id = static_cast<RobotId>(i + 1);
    if (!conf.alive(id) || !active[i]) return;
    RobotView& view = views[i];
    fill_view(view, g, conf, id, round, options.comm, neighborhood,
              ctx.index(), needs);
    view.arrival_port = arrival_ports[i];
    view.reuse = hints;
    // Borrowed: `packets` and `states` outlive every step of this call.
    view.shared_packets = &packets;
    if (needs.colocated_states) view.borrow_states(&states);
    const Port p = robots[i]->step(view);
    if (p != kInvalidPort && p > view.degree) {
      std::ostringstream os;
      os << "robot " << id << " chose invalid port " << p << " (degree "
         << view.degree << ") in round " << round;
      throw std::runtime_error(os.str());
    }
    plan[i] = options.byzantine
                  ? options.byzantine->override_move(id, p, view.degree, round)
                  : p;
  };

  // The lead steps alone first: by Lemma 4 every robot derives the same
  // plan from the one broadcast, so the lead pays the round's plan
  // derivation (a shared PlanCache miss) and the rest hit it. Being the
  // smallest stepping index, its exception is the one a sequential loop
  // would surface first.
  const std::uint64_t lead_t0 = phase_clock_ns();
  step_robot(lead);
  const std::uint64_t lead_ns = phase_clock_ns() - lead_t0;
  parallel_for(pool, k - lead - 1,
               [&](std::size_t j) { step_robot(lead + 1 + j); });
  return lead_ns;
}

MovePlan Engine::probe_plan(const Graph& candidate) const {
  assert(round_ctx_ != nullptr &&
         "probes only run while the engine is constructing a round");
  // Dry-run copies of the robots so the probe leaves persistent state
  // untouched -- the adversary predicts, it does not perturb. The copies
  // live in a retained arena refilled in place each probe, so no state
  // leaks from one probe into the next. The state store and the node index
  // are the round's; only the candidate's own packet broadcast is assembled.
  const std::size_t k = robots_.size();
  if (probe_robots_.size() != k) {
    probe_robots_.resize(k);
    probe_raw_.resize(k);
  }
  for (std::size_t i = 0; i < k; ++i) {
    std::unique_ptr<RobotAlgorithm>& copy = probe_robots_[i];
    // clone() only on the first probe or when copy_into declines.
    if (!copy || !robots_[i]->copy_into(*copy)) copy = robots_[i]->clone();
    probe_raw_[i] = copy.get();
  }
  // Probes run on the calling lane alone: an adversary scores many
  // candidates per round, and a fan-out per candidate paid more in
  // dispatch than it saved.
  PacketSet packets;
  if (options_.comm == CommModel::kGlobal) {
    packets = round_ctx_->assemble_candidate_packets(
        candidate, conf_, options_.neighborhood_knowledge,
        options_.byzantine.get(), nullptr);
  }
  // The probe round number equals the round being constructed; the engine
  // stores it in probe_round_ via the lambda installed in run(). Probe hints
  // carry the CANDIDATE's fingerprint: the dry-run broadcast is a function
  // of the candidate graph, and a cached structure only serves it after a
  // content compare, so probing can never leak a wrong plan.
  MovePlan plan;
  plan_on(candidate, conf_, probe_round_, options_, arrival_ports_, active_,
          probe_raw_, *round_ctx_, std::move(packets), states_,
          make_hints(candidate), nullptr, views_arena_, needs_, plan);
  return plan;
}

MovePlan& Engine::compute_plan(const Graph& g, Round round,
                               const RoundContext& ctx,
                               std::uint64_t& lead_ns) {
  // The real round carries the graph-change classification the loop just
  // derived; probe_plan's hints stay kUnknown (candidates have no
  // cross-round relation).
  ReuseHints hints = make_hints(g);
  hints.change = round_change_;
  lead_ns = plan_on(g, conf_, round, options_, arrival_ports_, active_,
                    raw_robots_, ctx, ctx.packets(), states_, hints,
                    pool_.get(), views_arena_, needs_, plan_buf_);
  return plan_buf_;
}

void Engine::draw_activation() {
  if (options_.activation == Activation::kSynchronous) {
    std::fill(active_.begin(), active_.end(), true);
    return;
  }
  if (options_.activation == Activation::kRoundRobin) {
    std::fill(active_.begin(), active_.end(), false);
    // Cycle to the next alive robot after the previous activation.
    const std::size_t k = conf_.robot_count();
    for (std::size_t step = 0; step < k; ++step) {
      round_robin_cursor_ = (round_robin_cursor_ % k) + 1;  // 1..k
      if (conf_.alive(static_cast<RobotId>(round_robin_cursor_))) {
        active_[round_robin_cursor_ - 1] = true;
        return;
      }
    }
    return;  // nobody alive
  }
  bool any = false;
  RobotId first_alive = kNoRobot;
  for (RobotId id = 1; id <= conf_.robot_count(); ++id) {
    const bool alive = conf_.alive(id);
    if (alive && first_alive == kNoRobot) first_alive = id;
    active_[id - 1] =
        alive && activation_rng_.chance(options_.activation_probability);
    any |= active_[id - 1];
  }
  // Fair scheduler guarantee: at least one alive robot acts per round.
  if (!any && first_alive != kNoRobot) active_[first_alive - 1] = true;
}

RunResult Engine::run() {
  RunResult res;
  res.k = conf_.robot_count();
  res.initial_occupied = conf_.occupied_count();
  res.max_occupied = res.initial_occupied;

  const auto finalize_stats = [&]() {
    const RoundContext::Counters& rc = ctx_.counters();
    res.stats.broadcasts_reused = rc.broadcasts_reused;
    res.stats.broadcast_deltas = rc.broadcast_deltas;
    res.stats.packets_copied = rc.packets_copied;
    res.stats.packets_rebuilt = rc.packets_rebuilt;
  };

  // Exploration tracking on occupancy bitset words: ever-occupied is the
  // running OR of the configuration's occupied words, and newly-occupied
  // counts are popcounts of occ & ~ever -- no per-node scan, no per-round
  // allocation.
  std::vector<std::uint64_t> ever_words = conf_.occupied_words();
  std::size_t explored = conf_.occupied_count();
  if (explored == conf_.node_count()) res.exploration_round = 0;

  if (options_.record_progress)
    res.occupied_per_round.push_back(conf_.occupied_count());

  // Initial snapshot: every robot's state serialized once before round 0.
  for (RobotId id = 1; id <= conf_.robot_count(); ++id)
    if (conf_.alive(id)) refresh_state(id);

  for (Round r = 0; r < options_.max_rounds; ++r) {
    for (const RobotId id : faults_.crashes_at(r, CrashPhase::kBeforeCommunicate)) {
      if (conf_.alive(id)) {
        conf_.kill(id);
        ++res.crashed;
      }
    }
    if (conf_.is_dispersed()) {
      res.dispersed = true;
      res.rounds = r;
      res.final_config = conf_;
      res.max_memory_bits = meter_.max_bits();
      res.explored_nodes = explored;
      finalize_stats();
      return res;
    }

    // Phase buckets (observability only; see RoundLoopStats). ph_* are
    // boundary timestamps: graph_build = [t0,t1) (activation, the round
    // context the adversary's probes read, emission and validation),
    // broadcast = [t1,t2), compute phase = [t2,t3) split into plan (the
    // serial lead step) and the remainder, move = [t3,t4).
    const std::uint64_t ph_t0 = phase_clock_ns();
    probe_round_ = r;
    draw_activation();
    // The round's node index, rebuilt into the persistent context's
    // retained buffers and valid for every candidate graph probed this
    // round.
    ctx_.begin_round(conf_);
    round_ctx_ = &ctx_;
    if (adversary_.wants_plan_probe()) {
      adversary_.set_plan_probe(
          [this](const Graph& g) { return probe_plan(g); });
    }

    bool same_graph = false;   // G_r provably operator== G_{r-1}
    bool small_delta = false;  // G_r near G_{r-1}; graph_changed_ holds the diff
    if (have_graph_ && adversary_.same_as_last(r, conf_)) {
      // Honest hint (conformance-tested per adversary): the graph the
      // adversary would emit equals the one it last emitted, which is
      // graph_. Skip constructing it at all.
      same_graph = true;
      ++res.stats.graph_reuses;
    } else {
      // Double-buffered emission: the adversary refills the round-before-
      // last's Graph in place (next_graph_into recycles its arrays), and a
      // swap promotes it -- no per-round Graph allocation in steady state.
      adversary_.next_graph_into(r, conf_, scratch_graph_);
      const Graph& g = scratch_graph_;
      if (have_graph_) {
        if (g.fingerprint() == graph_.fingerprint() && g == graph_) {
          same_graph = true;
        } else {
          // Capped scan: a delta is only useful up to n/4 changed nodes
          // (beyond that full reassembly is cheaper), so churn-heavy rounds
          // abandon the comparison as soon as that is certain instead of
          // paying for a full edge-level diff.
          small_delta = g.changed_nodes_into(graph_, graph_changed_,
                                             conf_.node_count() / 4);
        }
      }
      std::swap(graph_, scratch_graph_);
      have_graph_ = true;
      if (!same_graph) graph_validated_ = false;
    }
    round_change_ = same_graph    ? GraphChange::kSame
                    : small_delta ? GraphChange::kSmallDelta
                                  : GraphChange::kFullChurn;

    const std::uint64_t fp = graph_.fingerprint();
    if (same_graph && graph_validated_ && validated_fp_ == fp) {
      // The identical graph already passed validation; re-running it would
      // re-derive the same verdict.
      ++res.stats.validations_skipped;
    } else if (std::string err =
                   validate_round_graph(graph_, conf_.node_count(),
                                        validate_scratch_);
               !err.empty()) {
      round_ctx_ = nullptr;
      throw InvariantViolation(r, "round-graph",
                               "adversary " + adversary_.name() +
                                   " emitted invalid graph in round " +
                                   std::to_string(r) + ": " + err);
    } else {
      graph_validated_ = true;
      validated_fp_ = fp;
    }
    const std::uint64_t ph_t1 = phase_clock_ns();
    res.stats.phase_graph_build_ms += phase_ns_to_ms(ph_t1 - ph_t0);

    if (options_.comm == CommModel::kGlobal) {
      // One broadcast per round, by whichever route the context finds sound
      // (reuse, delta or full); graph_changed_ is read on kSmallDelta only.
      ctx_.publish_packets(graph_, conf_, options_.neighborhood_knowledge,
                           options_.byzantine.get(), round_change_,
                           graph_changed_, pool_.get());
      res.packets_sent += ctx_.packet_count();
      res.packet_bits_sent += ctx_.packet_bits();
    }

    const std::uint64_t ph_t2 = phase_clock_ns();
    res.stats.phase_broadcast_ms += phase_ns_to_ms(ph_t2 - ph_t1);

    std::uint64_t lead_ns = 0;
    MovePlan& plan = compute_plan(graph_, r, ctx_, lead_ns);
    const std::uint64_t ph_t3 = phase_clock_ns();
    // The compute phase's plan share is this engine's serial lead step
    // (timed inside [t2, t3)): the one robot that derives the round's plan
    // before the fan-out. The remainder is the other robots' view assembly
    // and steps.
    res.stats.phase_plan_ms += phase_ns_to_ms(lead_ns);
    res.stats.phase_compute_ms += phase_ns_to_ms(ph_t3 - ph_t2 - lead_ns);
    round_ctx_ = nullptr;

    // The start-of-round configuration exists solely for observers: the
    // Move phase reads each robot's source node from conf_ BEFORE its own
    // write, and no robot reads another robot's position. It is taken
    // before the kAfterCommunicate crashes, so it is the configuration the
    // broadcast was built from.
    if (options_.on_round) before_ = conf_;

    bool crashed_this_round =
        !faults_.crashes_at(r, CrashPhase::kBeforeCommunicate).empty();
    for (const RobotId id : faults_.crashes_at(r, CrashPhase::kAfterCommunicate)) {
      if (conf_.alive(id)) {
        conf_.kill(id);
        ++res.crashed;
        plan[id - 1] = kInvalidPort;
        crashed_this_round = true;
      }
    }

    for (RobotId id = 1; id <= conf_.robot_count(); ++id) {
      if (!conf_.alive(id)) continue;
      const Port p = plan[id - 1];
      if (p == kInvalidPort) continue;
      const HalfEdge& he = graph_.half_edge(conf_.position(id), p);
      conf_.set_position(id, he.to);
      arrival_ports_[id - 1] = he.reverse_port;
      ++res.total_moves;
    }

    // End of round: robots that stepped re-serialize (their state may have
    // changed); every alive robot's current state size is metered from the
    // stored bit counts -- no second serialization pass.
    for (RobotId id = 1; id <= conf_.robot_count(); ++id) {
      if (!conf_.alive(id)) continue;
      if (active_[id - 1]) refresh_state(id);
      meter_.record_bits(state_bits_[id - 1]);
    }
    res.stats.phase_move_ms += phase_ns_to_ms(phase_clock_ns() - ph_t3);

    std::size_t newly = 0;
    const std::vector<std::uint64_t>& occ_words = conf_.occupied_words();
    for (std::size_t w = 0; w < occ_words.size(); ++w) {
      const std::uint64_t fresh = occ_words[w] & ~ever_words[w];
      if (fresh == 0) continue;
      newly += static_cast<std::size_t>(std::popcount(fresh));
      ever_words[w] |= fresh;
    }
    explored += newly;
    if (explored == conf_.node_count() &&
        res.exploration_round == RunResult::kNeverExplored) {
      res.exploration_round = r + 1;
    }
    if (newly == 0 && !crashed_this_round) ++res.stalled_rounds;
    res.max_occupied = std::max(res.max_occupied, conf_.occupied_count());
    if (options_.record_progress)
      res.occupied_per_round.push_back(conf_.occupied_count());
    if (options_.on_round) {
      // Observers see the round exactly as executed: the emitted graph,
      // both configurations, the chosen plan, the published broadcast and
      // the metered memory peak.
      options_.on_round(RoundSnapshot{
          r, graph_, before_, conf_, plan, ctx_.packets(), ctx_.packet_bits(),
          newly, crashed_this_round, meter_.max_bits()});
    }
  }

  res.dispersed = conf_.is_dispersed();
  res.rounds = options_.max_rounds;
  res.final_config = conf_;
  res.max_memory_bits = meter_.max_bits();
  res.explored_nodes = explored;
  finalize_stats();
  return res;
}

}  // namespace dyndisp

#include "check/oracles.h"

#include <string>

#include "analysis/verify.h"
#include "sim/sensing.h"
#include "util/bits.h"

namespace dyndisp::check {

OracleProfile oracle_profile(const TrialConfig& config, bool claims_lemmas) {
  OracleProfile p;
  if (!claims_lemmas) return p;
  // The paper proves the lemmas under global communication; "default"
  // resolves to global for every algorithm that claims them. An explicit
  // --comm local run is a model mismatch and voids the guarantees.
  if (config.comm != "default" && config.comm != "global") return p;
  const bool fault_free = config.faults == 0;
  p.occupied_monotone = fault_free;
  p.progress = fault_free;
  p.memory = true;
  p.dispersal = true;
  p.round_bound = fault_free;
  p.faulty_round_bound = !fault_free;
  return p;
}

RoundObserver make_invariant_checker(const OracleProfile& profile,
                                     std::size_t k) {
  if (!profile.occupied_monotone && !profile.progress && !profile.memory)
    return nullptr;
  const OracleProfile p = profile;
  const std::size_t memory_bound =
      bit_width_for(static_cast<std::uint64_t>(k) + 1);
  return [p, memory_bound](const RoundSnapshot& s) {
    if (p.occupied_monotone &&
        s.after.occupied_count() < s.before.occupied_count()) {
      throw InvariantViolation(
          s.round, "occupied-monotone",
          "[occupied-monotone] Lemma 6: occupied nodes dropped from " +
              std::to_string(s.before.occupied_count()) + " to " +
              std::to_string(s.after.occupied_count()) + " in round " +
              std::to_string(s.round));
    }
    if (p.progress && s.newly_occupied == 0 && !s.crashed_this_round &&
        s.before.occupied_count() < s.before.alive_count()) {
      throw InvariantViolation(
          s.round, "progress",
          "[progress] Lemma 7: round " + std::to_string(s.round) +
              " occupied no new node while " +
              std::to_string(s.before.alive_count() -
                             s.before.occupied_count()) +
              " robot(s) were still sharing nodes");
    }
    if (p.memory && s.max_memory_bits > memory_bound) {
      throw InvariantViolation(
          s.round, "memory",
          "[memory] Lemma 8: peak robot memory " +
              std::to_string(s.max_memory_bits) + " bits exceeds ceil(log2(" +
              "k+1)) = " + std::to_string(memory_bound) + " bits at round " +
              std::to_string(s.round));
    }
  };
}

namespace {

/// One broadcast as the wire sees it, for the oracle's diagnostic.
std::string describe_broadcast(const PacketSet& packets, std::size_t bits) {
  return "count=" + std::to_string(packets.size()) +
         " bits=" + std::to_string(bits) +
         " digest=" + std::to_string(packet_set_digest(packets));
}

}  // namespace

std::shared_ptr<const std::size_t> install_broadcast_reference(
    EngineOptions& options) {
  if (options.comm != CommModel::kGlobal || options.byzantine) return nullptr;
  auto compared = std::make_shared<std::size_t>(0);
  options.on_round = [compared, observer = std::move(options.on_round),
                      neighborhood = options.neighborhood_knowledge](
                         const RoundSnapshot& s) {
    const PacketSet fresh(make_all_packets(s.graph, s.before, neighborhood));
    std::size_t bits = 0;
    for (std::size_t i = 0; i < fresh.size(); ++i)
      bits += packet_bit_size(fresh[i], s.before.robot_count(),
                              s.before.node_count());
    if (!(fresh == s.packets) || bits != s.packet_bits)
      throw InvariantViolation(
          s.round, "broadcast-reference",
          "[broadcast-reference] round " + std::to_string(s.round) +
              " published " + describe_broadcast(s.packets, s.packet_bits) +
              ", but a fresh make_all_packets gives " +
              describe_broadcast(fresh, bits));
    ++*compared;
    if (observer) observer(s);
  };
  return compared;
}

std::optional<Violation> post_run_violation(const OracleProfile& profile,
                                            const RunResult& result) {
  if (profile.dispersal && !result.dispersed) {
    return Violation{"dispersal", result.rounds,
                     "[dispersal] run ended after " +
                         std::to_string(result.rounds) +
                         " rounds without dispersing (" +
                         std::to_string(result.final_config.occupied_count()) +
                         "/" + std::to_string(result.k) + " nodes occupied)"};
  }
  if (profile.round_bound) {
    if (std::string err = analysis::check_round_bound(result); !err.empty())
      return Violation{"round-bound", result.rounds, "[round-bound] " + err};
  }
  if (profile.faulty_round_bound) {
    if (std::string err = analysis::check_faulty_round_bound(result);
        !err.empty())
      return Violation{"faulty-round-bound", result.rounds,
                       "[faulty-round-bound] " + err};
  }
  return std::nullopt;
}

}  // namespace dyndisp::check

// Tests for the PacketArena broadcast: the CSR pool + offset tables are
// pure storage, so the arena must hold exactly the records the independent
// struct-based reference (make_all_packets) builds, tamper exactly as the
// Byzantine model describes, and refill in place without allocating once
// warmed up; each of RoundContext::publish_packets' routes must publish
// what a fresh assembly builds. Engine-level identity is pinned by the
// golden packet traces (test_packet_golden.cpp) and the faithful-planner
// comparison (Dispersion.MemoizedModeIdenticalToFaithful).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "dynamic/random_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/byzantine.h"
#include "sim/packet_arena.h"
#include "sim/round_context.h"
#include "sim/sensing.h"
#include "util/parallel.h"
#include "util/rng.h"

/// Process-global operator-new counter, mirroring bench_roundtime's: the
/// arena's whole point is an allocation-free broadcast, so this binary
/// counts allocations and BroadcastAllocationsCollapseAtScale pins the
/// ceiling directly. TU-local replacement -- the library never pays for it.
std::atomic<std::uint64_t> g_heap_allocs{0};

// GCC's inliner pairs the replaceable operator new below with the default
// allocator in some expansions and flags the std::free as mismatched; the
// replacement is internally consistent (new -> malloc, delete -> free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dyndisp {
namespace {

// ---- Record-level equivalence: arena assembly vs the struct reference ----

TEST(PacketArena, AssemblyMatchesLegacyRecordForRecord) {
  const Graph g = builders::path(5);
  const Configuration conf(5, {0, 0, 1, 3, 3});
  const std::vector<InfoPacket> records = make_all_packets(g, conf, true);

  NodeIndex index;
  index.build(conf);
  PacketArena arena;
  std::size_t arena_bits = 0;
  assemble_arena_metered(arena, g, conf, true, index, &arena_bits);

  ASSERT_EQ(arena.headers.size(), records.size());
  const PacketSet flat{std::make_shared<const PacketArena>(std::move(arena))};
  const PacketSet vec(records);
  for (std::size_t i = 0; i < vec.size(); ++i) {
    SCOPED_TRACE("packet " + std::to_string(i));
    EXPECT_EQ(flat[i].sender(), vec[i].sender());
    EXPECT_EQ(flat[i].count(), vec[i].count());
    EXPECT_EQ(flat[i].degree(), vec[i].degree());
    EXPECT_TRUE(flat[i] == vec[i]);
  }
  EXPECT_TRUE(flat == vec);
  EXPECT_EQ(packet_set_digest(flat), packet_set_digest(vec));

  // Metering is part of the wire format: the metered total equals the sum
  // of the records' sizes, packet for packet.
  const std::size_t k = conf.robot_count(), n = conf.node_count();
  std::size_t record_bits = 0;
  for (const InfoPacket& p : records) record_bits += packet_bit_size(p, k, n);
  EXPECT_EQ(arena_bits, record_bits);
  for (std::size_t i = 0; i < vec.size(); ++i)
    EXPECT_EQ(packet_bit_size(flat[i], k, n), packet_bit_size(vec[i], k, n));
}

TEST(PacketArena, TamperRewritesOnlyLiarPackets) {
  // The lie rewrites the liar's header in place and leaves every honest
  // packet untouched.
  const Graph g = builders::path(4);
  const Configuration conf(4, {0, 0, 1});
  const std::vector<InfoPacket> honest = make_all_packets(g, conf, true);

  NodeIndex index;
  index.build(conf);
  PacketArena arena;
  assemble_arena_metered(arena, g, conf, true, index, nullptr);
  const ByzantineModel model({1}, ByzantineLie::kHideMultiplicity);
  model.tamper(arena);

  ASSERT_EQ(arena.headers.size(), 2u);
  const PacketView lied(arena, 0);
  EXPECT_EQ(lied.sender(), 1u);
  EXPECT_EQ(lied.count(), 1u);  // lied: really 2
  ASSERT_EQ(lied.robot_count(), 1u);
  EXPECT_EQ(lied.robot(0), 1u);
  EXPECT_TRUE(PacketView(arena, 1) == PacketSet(honest)[1]);
}

// ---- Warmed-up arena assembly at scale allocates nothing ----

TEST(PacketArena, BroadcastAllocationsCollapseAtScale) {
  // The mega-row regime: k = 10^5 robots, n = 1.5k, random placement,
  // random adversary, ~0.49n packets per round. Once the arena has grown to
  // the instance's high-water capacity, assembly clears and refills it in
  // place, so re-assembling the same rounds must stay under an absolute
  // allocation ceiling of zero -- where one InfoPacket vector per packet
  // and per occupied neighbor costs about 3 * 10^5 allocations per round.
  // (bench_roundtime's per-row heap_allocs includes graph construction and
  // planning; this isolates the broadcast itself.)
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const std::size_t k = 10000;  // sanitizer runs: same claim, smaller bill
#else
  const std::size_t k = 100000;
#endif
  const std::size_t n = k + k / 2, rounds = 3;
  constexpr std::uint64_t kAllocCeiling = 0;
  RandomAdversary adv(n, n / 10, 3);
  Rng rng(1234);
  const Configuration conf = placement::uniform_random(n, k, rng);
  NodeIndex index;
  index.build(conf);

  std::vector<Graph> graphs;
  graphs.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r)
    graphs.push_back(adv.next_graph(static_cast<Round>(r), conf));

  // Warm-up grows the arena to the high-water capacity of the instance.
  PacketArena arena;
  for (const Graph& g : graphs)
    assemble_arena_metered(arena, g, conf, true, index, nullptr);

  std::uint64_t packets_assembled = 0;
  const std::uint64_t before = g_heap_allocs.load();
  for (const Graph& g : graphs) {
    assemble_arena_metered(arena, g, conf, true, index, nullptr);
    packets_assembled += arena.headers.size();
  }
  const std::uint64_t allocs = g_heap_allocs.load() - before;

  RecordProperty("arena_allocs", static_cast<int>(allocs));
  std::printf("[          ] %llu packets: %llu arena allocs\n",
              static_cast<unsigned long long>(packets_assembled),
              static_cast<unsigned long long>(allocs));

  // Uniform placement occupies ~n(1 - e^(-k/n)) ~ 0.49n nodes; one packet
  // per occupied node per round.
  ASSERT_GT(packets_assembled, rounds * k / 2);
  EXPECT_LE(allocs, kAllocCeiling)
      << allocs << " allocations re-assembling " << rounds << " rounds";
}

// ---- RoundContext: one entry point, three routes, one reference ----

// Publishes three rounds through RoundContext::publish_packets -- full (no
// previous broadcast), delta (a robot moves at one end of a path and an
// edge is rewired at the other), and reuse (nothing changes) -- and checks
// every published set against the independent reference. The broadcast
// has 200-201 packets, above parallel_for's serial cutoff, so a multi-lane
// `pool` really fans the assembly out.
void expect_publish_routes_match_reference(ThreadPool* pool) {
  constexpr std::size_t n = 400;
  std::vector<NodeId> positions{0};  // robot 1 shares node 0 with robot 2
  for (NodeId v = 0; v < n; v += 2) positions.push_back(v);
  Configuration conf(n, positions);
  const std::size_t k = conf.robot_count();
  Graph g = builders::path(n);

  RoundContext ctx;
  std::size_t full_routes = 0;
  const auto publish = [&](GraphChange change,
                           const std::vector<NodeId>& changed_graph_nodes) {
    ctx.begin_round(conf);
    const std::size_t assemblies = packet_assembly_count();
    ctx.publish_packets(g, conf, true, nullptr, change, changed_graph_nodes,
                        pool);
    full_routes += packet_assembly_count() - assemblies;

    const std::vector<InfoPacket> reference = make_all_packets(g, conf, true);
    EXPECT_TRUE(ctx.packets() == PacketSet(reference));
    std::size_t published_bits = 0, reference_bits = 0;
    for (std::size_t i = 0; i < ctx.packet_count(); ++i)
      published_bits += packet_bit_size(ctx.packets()[i], k, n);
    for (const InfoPacket& p : reference)
      reference_bits += packet_bit_size(p, k, n);
    EXPECT_EQ(ctx.packet_bits(), published_bits);
    EXPECT_EQ(ctx.packet_bits(), reference_bits);
  };

  {
    SCOPED_TRACE("round 0: full");
    publish(GraphChange::kUnknown, {});
  }
  {
    SCOPED_TRACE("round 1: delta");
    conf.set_position(1, 1);
    const Graph prev = g;
    g.remove_edge(n - 2, n - 1);
    g.add_edge(n - 3, n - 1);
    std::vector<NodeId> changed_graph_nodes;
    ASSERT_TRUE(g.changed_nodes_into(prev, changed_graph_nodes, n));
    EXPECT_EQ(changed_graph_nodes, (std::vector<NodeId>{n - 3, n - 2, n - 1}));
    publish(GraphChange::kSmallDelta, changed_graph_nodes);
  }
  const PacketArena* delta_arena = ctx.packets().arena_handle().get();
  {
    SCOPED_TRACE("round 2: reuse");
    publish(GraphChange::kSame, {});
    EXPECT_EQ(ctx.packets().arena_handle().get(), delta_arena);
  }

  EXPECT_EQ(full_routes, 1u);
  EXPECT_EQ(ctx.counters().broadcast_deltas, 1u);
  EXPECT_EQ(ctx.counters().broadcasts_reused, 1u);
  // The delta round's dirty closure holds four occupied nodes: 0 and 1
  // (robot 1 moved), 2 (a new-graph neighbor of 1), and n - 2 (its edge to
  // n - 1 was rewired). The other 197 packets are copied.
  EXPECT_EQ(ctx.counters().packets_rebuilt, 4u);
  EXPECT_EQ(ctx.counters().packets_copied, 197u);
}

TEST(RoundContext, PublishRoutesMatchAFreshAssemblySerially) {
  expect_publish_routes_match_reference(nullptr);
}

TEST(RoundContext, PublishRoutesMatchAFreshAssemblyOnTwoLanes) {
  ThreadPool pool(2);
  expect_publish_routes_match_reference(&pool);
}

}  // namespace
}  // namespace dyndisp

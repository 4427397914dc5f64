// Hot-path contract annotations, read by the dyndisp_lint call-graph rules
// (src/lint/rules_hotpath.cpp) and invisible to the compiler -- every macro
// expands to nothing. They encode the phase-3 scaling invariants the
// massive-scale engine core rests on (see docs/STATIC_ANALYSIS.md):
//
//   * DYNDISP_HOT marks a function as a round-loop root: the function and
//     everything reachable from it through the call graph must stay free of
//     heap allocation (rule `hotpath-alloc`) and of blocking or I/O calls
//     (rule `hotpath-blocking`) in steady state. Place it on the definition,
//     before the return type:  DYNDISP_HOT void fill_view(...) { ... }
//
//   * DYNDISP_COLD marks a function as an acknowledged cold boundary:
//     transitive hot-path analysis stops there. Use it for slow paths a hot
//     root legitimately dispatches to on cache misses, first rounds, or
//     rebuilds -- the annotation is the reviewed statement that the call is
//     off the steady-state path, so hazards beyond it are not hot findings.
//
//   * DYNDISP_STATS tags a struct as observability-only: its fields exist
//     for reporting and must never feed a result digest or serialized
//     record (rule `digest-exclusion` -- the dual of the Lemma-8
//     metering-serialize-fields rule). Place it between the struct keyword
//     and the name:  struct DYNDISP_STATS RoundLoopStats { ... };
//
// The static rules have a runtime twin: util/memprobe.h counts real heap
// allocations so tests can pin the annotated paths to zero allocations per
// warmed-up round, measured through an EngineOptions::on_round observer
// (tests/test_memprobe.cpp). Static rule and dynamic probe cross-validate
// -- one catches hazards the other cannot see.
#pragma once

#define DYNDISP_HOT
#define DYNDISP_COLD
#define DYNDISP_STATS

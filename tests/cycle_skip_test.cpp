// Exact-cycle fast-forward identity suite.
//
// ExecOptions::cycle_skip lets the interpreter detect that a hung
// program's complete machine state repeats with period p and jump the
// instruction counter forward whole periods instead of re-executing
// them. The contract is byte-identity: trap, trap message, instruction
// count, backtrace, and every observer's final state must equal the
// unskipped run's — only wall-clock may differ. These tests pin that
// contract on hung loops (the CWE-835 shape that motivated the skip),
// on terminating programs (where the skip must be a no-op), and on the
// safety valve that disables skipping when an attached observer cannot
// snapshot its state.
//
// symex::ExecutorOptions::cycle_skip does the same for P2/P3 states.
// Its contract: SymexResult and every SymexStats counter identical with
// the skip on and off, except the intern counters — skipped steps build
// no expressions, so expr_intern_hits drops. The symbolic suite below
// pins that on Table II pair 3, on every generated fuel-loop pair of
// seeds 1 and 2, on synthetic loops (calls in the period, the global
// budget, solver queries, fault injection, frontier workers), and checks
// that the pipeline switch core::SetCycleSkip moves no report byte, no
// artifact key and no journal fingerprint.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cfg/cfg.h"
#include "core/artifact_store.h"
#include "core/journal.h"
#include "core/octopocs.h"
#include "core/report_io.h"
#include "corpus/extended.h"
#include "corpus/pairs.h"
#include "gen/generator.h"
#include "support/bytes.h"
#include "support/fault.h"
#include "symex/executor.h"
#include "taint/taint_engine.h"
#include "vm/asm.h"
#include "vm/interp.h"

namespace octopocs::vm {
namespace {

ExecResult Execute(const Program& program, const Bytes& input, bool cycle_skip,
               DispatchMode mode, std::uint64_t fuel,
               taint::TaintEngine* taint = nullptr) {
  ExecOptions exec;
  exec.fuel = fuel;
  exec.dispatch = mode;
  exec.cycle_skip = cycle_skip;
  Interpreter interp(program, ByteView(input), exec);
  if (taint != nullptr) interp.AddObserver(taint);
  return interp.Run();
}

void ExpectSameResult(const ExecResult& a, const ExecResult& b,
                      const char* what) {
  EXPECT_EQ(a.trap, b.trap) << what;
  EXPECT_EQ(a.return_value, b.return_value) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.fault_addr, b.fault_addr) << what;
  EXPECT_EQ(a.trap_message, b.trap_message) << what;
  ASSERT_EQ(a.backtrace.size(), b.backtrace.size()) << what;
  for (std::size_t i = 0; i < a.backtrace.size(); ++i) {
    EXPECT_EQ(a.backtrace[i].fn, b.backtrace[i].fn) << what << " " << i;
    EXPECT_EQ(a.backtrace[i].block, b.backtrace[i].block) << what << " " << i;
    EXPECT_EQ(a.backtrace[i].ip, b.backtrace[i].ip) << what << " " << i;
  }
}

/// A state-stationary hang: after the prologue the loop body recomputes
/// the same register values forever, so the machine state at the loop
/// head is literally periodic — the shape the fast-forward detects.
Program HungLoop() {
  return Assemble(
      "  func main()\n"
      "  L0:\n"
      "    movi %a, 1\n"
      "    jmp L1\n"
      "  L1:\n"
      "    movi %b, 7\n"
      "    add %a, %b, %b\n"
      "    movi %a, 1\n"
      "    jmp L1\n");
  // unreachable ret: the loop never exits
}

TEST(CycleSkip, HungLoopFuelTrapIsByteIdentical) {
  const Program p = HungLoop();
  for (const DispatchMode mode :
       {DispatchMode::kSwitch, DispatchMode::kThreaded}) {
    const ExecResult off = Execute(p, {}, /*cycle_skip=*/false, mode, 200'000);
    const ExecResult on = Execute(p, {}, /*cycle_skip=*/true, mode, 200'000);
    ExpectSameResult(off, on, "skip off vs on");
    EXPECT_EQ(on.trap, TrapKind::kFuelExhausted);
    EXPECT_EQ(on.instructions, 200'000u);
  }
}

TEST(CycleSkip, FuelResidualLandsMidPeriod) {
  // Sweep fuel values around the loop period so the residual after the
  // last whole-period jump lands on every instruction of the body; the
  // retired count and trap must match the unskipped run each time.
  const Program p = HungLoop();
  for (std::uint64_t fuel = 50'000; fuel < 50'012; ++fuel) {
    const ExecResult off =
        Execute(p, {}, false, DispatchMode::kThreaded, fuel);
    const ExecResult on = Execute(p, {}, true, DispatchMode::kThreaded, fuel);
    ExpectSameResult(off, on, "mid-period residual");
    EXPECT_EQ(on.instructions, fuel);
  }
}

TEST(CycleSkip, HungFileReadLoopWithTaintObserverIsIdentical) {
  // A loop that keeps issuing file reads: once the 2-byte PoC is
  // consumed, every further read returns short at EOF and the machine
  // state — including the file position and the taint engine's state,
  // which participates in the snapshot identity — becomes periodic. The
  // engine's final serialized state must match the unskipped run's.
  const Program p = Assemble(
      "  func main()\n"
      "  L0:\n"
      "    movi %n, 16\n"
      "    alloc %buf, %n\n"
      "    jmp L1\n"
      "  L1:\n"
      "    movi %one, 1\n"
      "    read %got, %buf, %one\n"
      "    jmp L1\n");
  const Bytes input = {0x41, 0x42};

  taint::TaintEngine off_engine(p);
  const ExecResult off = Execute(p, input, /*cycle_skip=*/false,
                             DispatchMode::kThreaded, 100'000, &off_engine);
  taint::TaintEngine on_engine(p);
  const ExecResult on = Execute(p, input, /*cycle_skip=*/true,
                            DispatchMode::kThreaded, 100'000, &on_engine);

  ExpectSameResult(off, on, "hung read loop");
  EXPECT_EQ(on.trap, TrapKind::kFuelExhausted);
  EXPECT_EQ(on.instructions, 100'000u);
  std::vector<std::uint8_t> off_state, on_state;
  ASSERT_TRUE(off_engine.SnapshotState(&off_state));
  ASSERT_TRUE(on_engine.SnapshotState(&on_state));
  EXPECT_EQ(on_state, off_state)
      << "taint state diverged between skip off and on";
}

TEST(CycleSkip, TerminatingProgramIsUntouched) {
  const Program p = Assemble(
      "  func main()\n"
      "  L0:\n"
      "    movi %i, 0\n"
      "    movi %n, 5000\n"
      "    movi %acc, 0\n"
      "    jmp L1\n"
      "  L1:\n"
      "    addi %acc, %acc, 3\n"
      "    addi %i, %i, 1\n"
      "    cmpltu %c, %i, %n\n"
      "    br %c, L1, L2\n"
      "  L2:\n"
      "    ret %acc\n");
  const ExecResult off = Execute(p, {}, false, DispatchMode::kThreaded, 100'000);
  const ExecResult on = Execute(p, {}, true, DispatchMode::kThreaded, 100'000);
  ExpectSameResult(off, on, "terminating program");
  EXPECT_EQ(on.trap, TrapKind::kNone);
  EXPECT_EQ(on.return_value, 15'000u);
}

/// An observer that cannot serialize its state (SnapshotState keeps the
/// default false return) but observes every retired instruction. With it
/// attached, the interpreter must refuse to skip — otherwise the
/// observer would miss the fast-forwarded instructions.
class CountingObserver : public ExecutionObserver {
 public:
  void OnInstr(FuncId, BlockId, std::size_t, const Instr&, std::uint64_t,
               std::uint64_t) override {
    ++instrs;
  }
  std::uint64_t instrs = 0;
};

TEST(CycleSkip, SnapshotlessObserverDisablesTheSkip) {
  const Program p = HungLoop();
  const Bytes no_input;
  std::uint64_t counts[2] = {0, 0};
  for (const bool skip : {false, true}) {
    ExecOptions exec;
    exec.fuel = 50'000;
    exec.cycle_skip = skip;
    CountingObserver counter;
    Interpreter interp(p, ByteView(no_input), exec);
    interp.AddObserver(&counter);
    const ExecResult r = interp.Run();
    EXPECT_EQ(r.trap, TrapKind::kFuelExhausted);
    counts[skip ? 1 : 0] = counter.instrs;
  }
  // The observer cannot snapshot, so the skip must disable itself: the
  // observer sees exactly as many retirements as in the honest run —
  // a fast-forward would have cut the count by orders of magnitude.
  EXPECT_EQ(counts[1], counts[0]);
  EXPECT_GT(counts[1], 25'000u);
}

}  // namespace
}  // namespace octopocs::vm

namespace octopocs::symex {
namespace {

void ExpectSameSymex(const SymexResult& off, const SymexResult& on,
                     const std::string& what) {
  EXPECT_EQ(off.status, on.status) << what;
  EXPECT_EQ(off.poc, on.poc) << what;
  EXPECT_EQ(off.bunch_offsets, on.bunch_offsets) << what;
  EXPECT_EQ(off.detail, on.detail) << what;
  EXPECT_EQ(off.loop_dead_observed, on.loop_dead_observed) << what;
  const SymexStats& a = off.stats;
  const SymexStats& b = on.stats;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.states_created, b.states_created) << what;
  EXPECT_EQ(a.peak_live_states, b.peak_live_states) << what;
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes) << what;
  EXPECT_EQ(a.solver_steps, b.solver_steps) << what;
  EXPECT_EQ(a.solver_cache_hits, b.solver_cache_hits) << what;
  EXPECT_EQ(a.solver_cache_misses, b.solver_cache_misses) << what;
  EXPECT_EQ(a.solver_exact_hits, b.solver_exact_hits) << what;
  EXPECT_EQ(a.solver_model_reuse_hits, b.solver_model_reuse_hits) << what;
  EXPECT_EQ(a.solver_subsumption_hits, b.solver_subsumption_hits) << what;
  // Skipped periods rebuild nodes the table already holds, so they only
  // ever cost hits, never distinct nodes.
  EXPECT_EQ(a.expr_intern_nodes, b.expr_intern_nodes) << what;
  EXPECT_LE(b.expr_intern_hits, a.expr_intern_hits) << what;
}

/// P2/P3 of one pair, set up exactly as the pipeline's CombinePhase sets
/// it up under default options: ep discovery and P1 on S, T's CFG seeded
/// with the PoC, the original PoC as solver hints.
struct Combine {
  explicit Combine(const corpus::Pair& p) : pair(p) {
    const core::PipelineOptions po;
    core::Octopocs pipeline(pair.s, pair.t, pair.shared_functions, pair.poc,
                            po, pair.t_names);
    const auto ep_s = pipeline.DiscoverEp();
    if (!ep_s) throw std::runtime_error("pair has no ep");
    bunches = pipeline.ExtractPrimitives(*ep_s).bunches;
    const std::string name = pair.s.Fn(*ep_s).name;
    const auto renamed = pair.t_names.find(name);
    ep_in_t = pair.t.FindFunction(renamed != pair.t_names.end()
                                      ? renamed->second
                                      : name);
    cfg::CfgOptions cfg_opts = po.cfg;
    if (po.poc_as_cfg_seed) cfg_opts.seed_inputs.push_back(pair.poc);
    graph.emplace(cfg::Cfg::Build(pair.t, cfg_opts));
    options = po.symex;
    for (std::uint32_t off = 0; off < pair.poc.size(); ++off) {
      options.solver.hints.emplace(off, pair.poc[off]);
    }
  }

  SymexResult Run(bool cycle_skip, std::uint32_t frontier_jobs = 1) const {
    ExecutorOptions o = options;
    o.cycle_skip = cycle_skip;
    o.frontier_jobs = frontier_jobs;
    SymExecutor exec(pair.t, *graph, ep_in_t, o);
    return exec.GeneratePoc(bunches);
  }

  const corpus::Pair& pair;
  std::vector<taint::Bunch> bunches;
  vm::FuncId ep_in_t = vm::kInvalidFunc;
  std::optional<cfg::Cfg> graph;
  ExecutorOptions options;
};

TEST(SymexCycleSkip, TableTwoPairThreeIsIdentical) {
  const corpus::Pair pair = corpus::BuildPair(3);
  const Combine combine(pair);
  const SymexResult off = combine.Run(false);
  const SymexResult on = combine.Run(true);
  ASSERT_EQ(off.status, SymexStatus::kPocGenerated);
  ExpectSameSymex(off, on, "pair 3");
  // The hung loop runs the per-state fuel out in both runs; the skipped
  // steps are what the intern counter no longer sees.
  EXPECT_GT(off.stats.instructions, combine.options.max_state_instructions);
  EXPECT_LT(on.stats.expr_intern_hits, off.stats.expr_intern_hits);
}

class FuelLoopPairs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuelLoopPairs, EveryFuelLoopPairIsIdentical) {
  const std::uint64_t seed = GetParam();
  int checked = 0;
  for (int ordinal = 0; ordinal < 300; ++ordinal) {
    const gen::GeneratedPair g = gen::BuildGeneratedPair(seed, ordinal);
    if (g.vuln_class != "fuel-loop") continue;
    const Combine combine(g.pair);
    const SymexResult off = combine.Run(false);
    const SymexResult on = combine.Run(true);
    const std::string what = "seed " + std::to_string(seed) + " ordinal " +
                             std::to_string(ordinal) + " (" + g.mutation +
                             ")";
    ExpectSameSymex(off, on, what);
    EXPECT_LT(on.stats.expr_intern_hits, off.stats.expr_intern_hits)
        << what << ": the hung loop was not skipped";
    ++checked;
  }
  EXPECT_GT(checked, 20) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(GenSeeds, FuelLoopPairs, ::testing::Values(1u, 2u));

/// ep sits behind a walk over a 256-residue ring with stride 2 that only
/// exits on 255: a hung loop on concrete values only, CFG-reachable to
/// ep, so P2's one state walks until its fuel runs out. `body` is
/// spliced into the loop.
vm::Program HungWalk(const std::string& body,
                     const std::string& extra_funcs = "") {
  return vm::Assemble(R"(
    func main()
      movi %one, 1
      alloc %buf, %one
      read %got, %buf, %one
      load.1 %x, %buf, 0
      movi %stride, 2
      movi %mask, 255
      movi %i, 0
    walk:
      cmpeq %done, %i, %mask
      br %done, fin, step
    step:
      add %i, %i, %stride
      and %i, %i, %mask
)" + body + R"(
      jmp walk
    fin:
      call %v, ep_fn(%x)
      ret %v
    func ep_fn(x)
      ret %x
)" + extra_funcs);
}

SymexResult ReachEp(const vm::Program& t, ExecutorOptions o) {
  // Static edges suffice (no indirect calls), and a dynamic build would
  // run the hung program concretely to its fuel limit.
  cfg::CfgOptions static_only;
  static_only.use_dynamic = false;
  const cfg::Cfg graph = cfg::Cfg::Build(t, static_only);
  SymExecutor exec(t, graph, t.FindFunction("ep_fn"), o);
  return exec.ReachEp(/*directed=*/true);
}

/// Runs `t` with the skip off and on under `o` and checks identity.
/// Returns {off, on}.
std::pair<SymexResult, SymexResult> OffAndOn(const vm::Program& t,
                                             ExecutorOptions o,
                                             const std::string& what) {
  o.cycle_skip = false;
  SymexResult off = ReachEp(t, o);
  o.cycle_skip = true;
  SymexResult on = ReachEp(t, o);
  ExpectSameSymex(off, on, what);
  return {std::move(off), std::move(on)};
}

TEST(SymexCycleSkip, FuelDeathLandsOnEveryPhaseOfThePeriod) {
  // Three nops make a trip round the ring 8 instructions, so the state
  // repeats every 128 * 8 = 1024 instructions, one checkpoint stride.
  // Sweeping the fuel over one whole period ends the residual after the
  // jump on every instruction of it, including the phase where the jump
  // lands exactly on the fuel limit.
  const vm::Program t = HungWalk("      nop\n      nop\n      nop\n");
  for (std::uint64_t fuel = 6'000; fuel < 6'000 + 1'024; ++fuel) {
    ExecutorOptions o;
    o.max_state_instructions = fuel;
    const auto [off, on] = OffAndOn(t, o, "fuel " + std::to_string(fuel));
    ASSERT_EQ(on.status, SymexStatus::kProgramDead);
    ASSERT_EQ(on.stats.instructions, fuel + 1);
    ASSERT_LT(on.stats.expr_intern_hits, off.stats.expr_intern_hits);
  }
}

TEST(SymexCycleSkip, PeriodThatCallsAFunctionIsIdentical) {
  // Frames push and pop inside the period, so the state's footprint
  // (and peak_memory_bytes) varies with the loop phase.
  const vm::Program t = HungWalk("      call %h, helper(%i, %stride)\n",
                                 R"(
    func helper(a, b)
      add %c, %a, %b
      movi %k, 3
      mul %d, %c, %k
      ret %d
)");
  for (std::uint64_t fuel = 80'000; fuel < 80'010; ++fuel) {
    ExecutorOptions o;
    o.max_state_instructions = fuel;
    const auto [off, on] = OffAndOn(t, o, "call fuel " + std::to_string(fuel));
    EXPECT_EQ(on.stats.instructions, fuel + 1);
    EXPECT_LT(on.stats.expr_intern_hits, off.stats.expr_intern_hits);
  }
}

/// `count` nop lines.
std::string Nops(int count) {
  std::string out;
  for (int i = 0; i < count; ++i) out += "      nop\n";
  return out;
}

/// A hung loop of three 1024-instruction trips A, B, C (a register
/// cycles 0, 1, 2), so its state repeats every three checkpoint strides.
/// A symbolic branch first forks a sibling that shares the input
/// buffer's memory page. Trip C calls a 600-nop helper (one frame
/// deeper) and then rewrites a buffer byte with its own value, which
/// unshares that page the first time. Every register a trip writes
/// already holds its trip value on entry, so the state repeats from the
/// first trip on. `warmup` iterations of a counted loop place the entry.
vm::Program ThreeTripLoop(int warmup) {
  return vm::Assemble(R"(
    func main()
      movi %two, 2
      alloc %buf, %two
      read %got, %buf, %two
      load.1 %x, %buf, 0
      movi %five, 5
      cmpeq %c, %x, %five
      br %c, left, right
    left:
      jmp warm0
    right:
      jmp warm0
    warm0:
      movi %k, 0
      movi %n, )" + std::to_string(warmup) + R"(
      jmp warm
    warm:
      addi %k, %k, 1
      cmpltu %more, %k, %n
      br %more, warm, enter
    enter:
      movi %i, 0
      movi %mask, 255
      movi %p, 0
      movi %zero, 0
      movi %one, 1
      load.1 %v, %buf, 1
      mov %h, %i
      jmp loop
    loop:
      cmpeq %isa, %p, %zero
      br %isa, trip_a, not_a
    not_a:
      cmpeq %isb, %p, %one
      br %isb, trip_b, trip_c
    trip_a:
)" + Nops(1018) + R"(
      movi %p, 1
      jmp back
    trip_b:
)" + Nops(1016) + R"(
      movi %p, 2
      jmp back
    trip_c:
)" + Nops(96) + R"(
      call %h, helper(%i)
)" + Nops(200) + R"(
      load.1 %v, %buf, 1
      store.1 %v, %buf, 1
)" + Nops(116) + R"(
      movi %p, 0
      jmp back
    back:
      cmpeq %done, %i, %mask
      br %done, fin, loop
    fin:
      call %r, ep_fn(%x)
      ret %r
    func helper(a)
)" + Nops(600) + R"(
      ret %a
    func ep_fn(x)
      ret %x
)");
}

TEST(SymexCycleSkip, FootprintSettlingLateInTheFirstPeriodIsMeasured) {
  // The skip waits for a second match before jumping. In the first
  // period after the snapshot, trip C's checkpoint lands inside the
  // helper while the page is still shared; only later trips C see the
  // deeper frame and the unshared page together, which is the true
  // peak_memory_bytes. Jumping at the first match with a short residual
  // would miss it. The warm-up sweep moves the snapshot across trip B.
  for (int warmup = 790; warmup < 985; warmup += 19) {
    ExecutorOptions o;
    // Leaves a residual after the jump that ends before the next trip C
    // checkpoint.
    o.max_state_instructions = 19'716;
    const auto [off, on] = OffAndOn(ThreeTripLoop(warmup), o,
                                    "warm-up " + std::to_string(warmup));
    EXPECT_EQ(on.stats.states_created, 2u);
    EXPECT_LT(on.stats.expr_intern_hits, off.stats.expr_intern_hits);
  }
}

TEST(SymexCycleSkip, GlobalInstructionBudgetTripsAtTheSameCount) {
  const vm::Program t = HungWalk("");
  for (const std::uint64_t budget : {150'000ull, 150'517ull, 151'023ull}) {
    ExecutorOptions o;
    o.max_instructions = budget;
    const auto [off, on] = OffAndOn(t, o, "budget " + std::to_string(budget));
    EXPECT_EQ(on.status, SymexStatus::kBudget);
    EXPECT_EQ(on.detail, "global instruction budget exceeded");
    EXPECT_GT(on.stats.instructions, budget);
    EXPECT_LT(on.stats.expr_intern_hits, off.stats.expr_intern_hits);
  }
}

TEST(SymexCycleSkip, PeriodThatQueriesTheSolverStandsDown) {
  // Every trip round the loop reads a fresh symbolic byte and loads
  // through it, which concretizes via a solver query. Such a period has
  // effects outside the state, so nothing may be skipped: the intern
  // counters match the unskipped run exactly.
  const vm::Program t = HungWalk(R"(
      movi %two, 2
      alloc %cell, %two
      read %got2, %cell, %one
      load.1 %y, %cell, 0
      and %lane, %y, %one
      add %p, %cell, %lane
      load.1 %z, %p, 0
)");
  ExecutorOptions o;
  o.max_state_instructions = 3'000;
  o.theta = 1'000'000;  // a constraint per trip: past θ it is a loop state
  const auto [off, on] = OffAndOn(t, o, "querying period");
  EXPECT_GT(off.stats.solver_cache_hits + off.stats.solver_cache_misses,
            200u);
  EXPECT_EQ(on.stats.instructions, 3'001u);
  EXPECT_EQ(on.stats.expr_intern_hits, off.stats.expr_intern_hits);
}

TEST(SymexCycleSkip, ArmedFaultInjectionStandsDown) {
  // A fault armed on a site symex never polls: nothing fires, but the
  // skip must still stand down (it would move any armed injection point).
  const vm::Program t = HungWalk("");
  support::fault::Arm(support::FaultSite::kDiskStoreWrite, 1ull << 40);
  ExecutorOptions o;
  o.max_state_instructions = 60'000;
  const auto [off, on] = OffAndOn(t, o, "fault armed");
  support::fault::Disarm();
  EXPECT_EQ(on.stats.instructions, 60'001u);
  EXPECT_EQ(on.stats.expr_intern_hits, off.stats.expr_intern_hits);
}

TEST(SymexCycleSkip, FrontierWorkersAreIdentical) {
  ExecutorOptions o;
  o.frontier_jobs = 2;
  o.max_state_instructions = 60'000;
  const auto [off, on] = OffAndOn(HungWalk(""), o, "frontier walk");
  EXPECT_LT(on.stats.expr_intern_hits, off.stats.expr_intern_hits);

  const corpus::Pair pair = corpus::BuildPair(3);
  const Combine combine(pair);
  const SymexResult serial = combine.Run(false);
  const SymexResult par_on = combine.Run(true, /*frontier_jobs=*/2);
  EXPECT_EQ(par_on.status, serial.status);
  EXPECT_EQ(par_on.poc, serial.poc);
  EXPECT_EQ(par_on.bunch_offsets, serial.bunch_offsets);
  EXPECT_EQ(par_on.detail, serial.detail);
  EXPECT_EQ(par_on.loop_dead_observed, serial.loop_dead_observed);
}

// -- The pipeline switch ------------------------------------------------------

std::vector<corpus::Pair> PaperAndExtendedPairs() {
  std::vector<corpus::Pair> pairs = corpus::BuildCorpus();
  for (corpus::Pair& p : corpus::BuildExtendedCorpus()) {
    pairs.push_back(std::move(p));
  }
  return pairs;
}

std::string Serialized(core::VerificationReport r) {
  r.timings = {};
  return core::SerializeReport(r);
}

TEST(SetCycleSkip, ReportsAndArtifactKeysAreUnchanged) {
  const std::vector<corpus::Pair> pairs = PaperAndExtendedPairs();
  core::ArtifactStore store(1024);
  core::PipelineOptions on;
  core::SetCycleSkip(on, true);
  on.artifacts = &store;
  core::PipelineOptions off = on;
  core::SetCycleSkip(off, false);

  std::vector<std::string> on_reports;
  for (const corpus::Pair& p : pairs) {
    on_reports.push_back(Serialized(core::VerifyPair(p, on)));
  }
  const auto misses_of_pass = [&](const core::PipelineOptions& o) {
    const std::uint64_t before = store.stats().misses;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(Serialized(core::VerifyPair(pairs[i], o)), on_reports[i])
          << "pair " << pairs[i].idx;
    }
    return store.stats().misses - before;
  };
  // Over a filled store a pass misses only what is never published (a
  // failed CFG build). The skip-off pass must find every other artifact
  // under the key the skip-on pass published it with.
  const std::uint64_t off_misses = misses_of_pass(off);
  EXPECT_EQ(off_misses, misses_of_pass(on));
  EXPECT_LT(off_misses, pairs.size());
}

TEST(SetCycleSkip, JournalFingerprintIsUnchanged) {
  core::PipelineOptions on;
  core::SetCycleSkip(on, true);
  core::PipelineOptions off;
  core::SetCycleSkip(off, false);
  EXPECT_FALSE(off.symex.cycle_skip);
  EXPECT_FALSE(off.verify_exec.cycle_skip);
  EXPECT_EQ(core::CorpusOptionsFingerprint(on, false, 15, 0, false, 0),
            core::CorpusOptionsFingerprint(off, false, 15, 0, false, 0));
}

}  // namespace
}  // namespace octopocs::symex

// Directed/naive symbolic execution (P2) and combining (P3).
//
// The end-to-end cases here are miniature versions of the paper's
// pipeline: extract bunches from S with P1, reform a PoC for T with
// P2+P3, then run T concretely on poc' and observe the crash.
#include <gtest/gtest.h>

#include "cfg/cfg.h"
#include "symex/executor.h"
#include "taint/crash_primitive.h"
#include "vm/asm.h"
#include "vm/interp.h"

namespace octopocs::symex {
namespace {

using vm::Assemble;
using vm::AssembleParts;
using vm::Program;

TEST(DirectedSymex, ReachesEpThroughMagicCheck) {
  // T validates a 4-byte magic before calling ep; directed execution
  // must synthesize the magic to get there.
  const Program t = Assemble(R"(
    func main()
      movi %n, 8
      alloc %buf, %n
      movi %four, 4
      read %got, %buf, %four
      load.4 %magic, %buf, 0
      movi %want, 0x4650444d    ; "MDPF" little-endian
      cmpeq %ok, %magic, %want
      br %ok, good, bad
    good:
      call %v, ep_fn(%ok)
      ret %v
    bad:
      trap
    func ep_fn(x)
      ret %x
  )");
  const cfg::Cfg graph = cfg::Cfg::Build(t);
  SymExecutor exec(t, graph, t.FindFunction("ep_fn"));
  const auto r = exec.ReachEp(/*directed=*/true);
  EXPECT_EQ(r.status, SymexStatus::kReachedEp);
}

TEST(DirectedSymex, UnreachableEpIsCfgUnreachable) {
  const Program t = Assemble(R"(
    func main()
      movi %x, 1
      ret %x
    func ep_fn(x)
      ret %x
  )");
  const cfg::Cfg graph = cfg::Cfg::Build(t);
  SymExecutor exec(t, graph, t.FindFunction("ep_fn"));
  const auto r = exec.ReachEp(/*directed=*/true);
  EXPECT_EQ(r.status, SymexStatus::kCfgUnreachable);
}

TEST(DirectedSymex, GuardedDeadBranchIsProgramDead) {
  // ep is statically reachable but guarded by an impossible condition:
  // the worklist drains → program-dead (the paper's case iii).
  const Program t = Assemble(R"(
    func main()
      movi %n, 2
      alloc %buf, %n
      read %got, %buf, %n
      load.1 %a, %buf, 0
      movi %big, 300          ; a byte can never be 300
      cmpeq %hit, %a, %big
      br %hit, call_ep, out
    call_ep:
      call %v, ep_fn(%a)
      ret %v
    out:
      ret %a
    func ep_fn(x)
      ret %x
  )");
  const cfg::Cfg graph = cfg::Cfg::Build(t);
  SymExecutor exec(t, graph, t.FindFunction("ep_fn"));
  const auto r = exec.ReachEp(/*directed=*/true);
  // The branch constraint a == 300 folds nowhere (a is one symbolic
  // byte); the taken direction carries an unsatisfiable constraint which
  // surfaces either at concretization or as a drained worklist.
  EXPECT_TRUE(r.status == SymexStatus::kProgramDead ||
              r.status == SymexStatus::kUnsat)
      << SymexStatusName(r.status);
}

// Shared vulnerable area ℓ used by the mini S/T pair below: a "record
// decoder" that OOB-writes when the record's two data bytes sum >= 16.
constexpr const char* kSharedDecoder = R"(
  func dec(unused)
    movi %two, 2
    alloc %rec, %two
    read %got, %rec, %two
    load.1 %a, %rec, 0
    load.1 %b, %rec, 1
    add %idx, %a, %b
    movi %lim, 16
    alloc %tbl, %lim
    add %p, %tbl, %idx
    movi %one, 1
    store.1 %one, %p, 0     ; crashes when idx >= 16
    ret %idx
)";

// S: header "SS" + count byte, then `count` records decoded by ℓ.
constexpr const char* kOriginalS = R"(
  func main()
    movi %n, 4
    alloc %hdr, %n
    movi %three, 3
    read %got, %hdr, %three
    load.1 %m0, %hdr, 0
    movi %cs, 'S'
    cmpeq %ok, %m0, %cs
    assert %ok
    load.1 %cnt, %hdr, 2
    movi %i, 0
    movi %zero, 0
  loop:
    cmpltu %more, %i, %cnt
    br %more, body, done
  body:
    call %v, dec(%zero)
    addi %i, %i, 1
    jmp loop
  done:
    ret %i
)";

// T: different container — magic "TT!" + a skip field + count; the
// guiding input differs from S's, the records are the reusable part.
constexpr const char* kCloneT = R"(
  func main()
    movi %n, 8
    alloc %hdr, %n
    movi %four, 4
    read %got, %hdr, %four
    load.1 %m0, %hdr, 0
    movi %ct, 'T'
    cmpeq %ok0, %m0, %ct
    assert %ok0
    load.1 %m1, %hdr, 1
    cmpeq %ok1, %m1, %ct
    assert %ok1
    load.1 %m2, %hdr, 2
    movi %bang, '!'
    cmpeq %ok2, %m2, %bang
    assert %ok2
    load.1 %cnt, %hdr, 3
    movi %i, 0
    movi %zero, 0
  loop:
    cmpltu %more, %i, %cnt
    br %more, body, done
  body:
    call %v, dec(%zero)
    addi %i, %i, 1
    jmp loop
  done:
    ret %i
)";

TEST(Combining, ReformsPocAcrossContainers) {
  const Program s = AssembleParts({kSharedDecoder, kOriginalS});
  const Program t = AssembleParts({kSharedDecoder, kCloneT});

  // Original PoC for S: "SS", count=2, benign record (1,2), crashing
  // record (0x80, 0x90).
  const Bytes poc{'S', 'S', 2, 1, 2, 0x80, 0x90};
  ASSERT_EQ(vm::RunProgram(s, poc).trap, vm::TrapKind::kOutOfBounds);
  // The original PoC does NOT crash T (wrong container).
  ASSERT_EQ(vm::RunProgram(t, poc).trap, vm::TrapKind::kAbort);

  // P1 on S.
  const auto p1 =
      taint::ExtractCrashPrimitives(s, poc, s.FindFunction("dec"));
  ASSERT_TRUE(p1.Crashed());
  ASSERT_EQ(p1.bunches.size(), 2u);

  // P2+P3 on T.
  const cfg::Cfg graph = cfg::Cfg::Build(t);
  SymExecutor exec(t, graph, t.FindFunction("dec"));
  const auto r = exec.GeneratePoc(p1.bunches);
  ASSERT_EQ(r.status, SymexStatus::kPocGenerated) << r.detail;

  // P4: the reformed PoC crashes T with the same trap class.
  const auto verify = vm::RunProgram(t, r.poc);
  EXPECT_EQ(verify.trap, vm::TrapKind::kOutOfBounds);
  // And the guiding region was adapted: poc' starts with T's magic.
  ASSERT_GE(r.poc.size(), 4u);
  EXPECT_EQ(r.poc[0], 'T');
  EXPECT_EQ(r.poc[1], 'T');
  EXPECT_EQ(r.poc[2], '!');
}

TEST(Combining, EpArgumentMismatchIsUnsat) {
  // S passes a file-derived tag to ep and crashes on tag 0x3d; T calls
  // ep with a hardcoded different tag — the Idx 10-12 mechanism.
  const char* shared = R"(
    func vuln(tag)
      movi %bad, 0x3d
      cmpeq %boom, %tag, %bad
      br %boom, crash, fine
    crash:
      trap
    fine:
      ret %tag
  )";
  const char* s_src = R"(
    func main()
      movi %n, 2
      alloc %buf, %n
      movi %one, 1
      read %got, %buf, %one
      load.1 %tag, %buf, 0
      call %v, vuln(%tag)
      ret %v
  )";
  const char* t_src = R"(
    func main()
      movi %tag, 0x10        ; hardcoded, never 0x3d
      call %v, vuln(%tag)
      ret %v
  )";
  const Program s = AssembleParts({shared, s_src});
  const Program t = AssembleParts({shared, t_src});
  const Bytes poc{0x3D};
  const auto p1 = taint::ExtractCrashPrimitives(s, poc, s.FindFunction("vuln"));
  ASSERT_TRUE(p1.Crashed());

  const cfg::Cfg graph = cfg::Cfg::Build(t);
  SymExecutor exec(t, graph, t.FindFunction("vuln"));
  const auto r = exec.GeneratePoc(p1.bunches);
  EXPECT_EQ(r.status, SymexStatus::kUnsat) << SymexStatusName(r.status);
}

TEST(Combining, PatchGuardMakesSystemUnsat) {
  // ℓ crashes when the record byte is >= 0x80; T (patched) rejects such
  // records before decoding — the Idx 13/14 mechanism.
  const char* shared = R"(
    func dec(unused)
      movi %one, 1
      alloc %rec, %one
      read %got, %rec, %one
      load.1 %a, %rec, 0
      movi %lim, 0x80
      cmpltu %ok, %a, %lim
      br %ok, fine, boom
    fine:
      ret %a
    boom:
      trap
  )";
  const char* s_src = R"(
    func main()
      movi %zero, 0
      call %v, dec(%zero)
      ret %v
  )";
  // Patched T peeks the record byte first and bails out when it is
  // large — the shared decoder can then never see a crashing value.
  const char* t_src = R"(
    func main()
      movi %one, 1
      alloc %peek, %one
      read %got, %peek, %one
      load.1 %a, %peek, 0
      movi %lim, 0x80
      cmpltu %ok, %a, %lim
      assert %ok              ; the patch
      movi %zero, 0
      seek %zero              ; rewind for the decoder
      call %v, dec(%zero)
      ret %v
  )";
  const Program s = AssembleParts({shared, s_src});
  const Program t = AssembleParts({shared, t_src});
  const Bytes poc{0x90};
  const auto p1 = taint::ExtractCrashPrimitives(s, poc, s.FindFunction("dec"));
  ASSERT_TRUE(p1.Crashed());
  ASSERT_EQ(p1.bunches.size(), 1u);

  const cfg::Cfg graph = cfg::Cfg::Build(t);
  SymExecutor exec(t, graph, t.FindFunction("dec"));
  const auto r = exec.GeneratePoc(p1.bunches);
  EXPECT_EQ(r.status, SymexStatus::kUnsat) << SymexStatusName(r.status);
}

TEST(DirectedSymex, GuidesThroughInputDependentLoop) {
  // The number of header sections to skip is input-dependent; directed
  // execution must pick some iteration count that reaches ep.
  const Program t = Assemble(R"(
    func main()
      movi %n, 64
      alloc %buf, %n
      movi %one, 1
      read %got, %buf, %one
      load.1 %skips, %buf, 0
      movi %i, 0
    loop:
      cmpltu %more, %i, %skips
      br %more, skip, after
    skip:
      read %g2, %buf, %one     ; consume one filler byte per section
      addi %i, %i, 1
      jmp loop
    after:
      call %v, ep_fn(%i)
      ret %v
    func ep_fn(x)
      ret %x
  )");
  const cfg::Cfg graph = cfg::Cfg::Build(t);
  SymExecutor exec(t, graph, t.FindFunction("ep_fn"));
  const auto r = exec.ReachEp(/*directed=*/true);
  EXPECT_EQ(r.status, SymexStatus::kReachedEp) << r.detail;
}

TEST(DirectedSymex, SymbolicLoopBoundedByTheta) {
  // ep sits behind a loop that demands more symbolic iterations than θ
  // allows (every iteration consumes an input byte that must be 0xAA,
  // and exiting requires 200 such bytes). With θ = 8 this is loop-dead.
  const Program t = Assemble(R"(
    func main()
      movi %n, 1
      alloc %buf, %n
      movi %i, 0
      movi %goal, 200
    loop:
      cmpltu %more, %i, %goal
      br %more, body, after
    body:
      read %got, %buf, %n
      load.1 %c, %buf, 0
      movi %aa, 0xaa
      cmpeq %ok, %c, %aa
      assert %ok
      addi %i, %i, 1
      jmp loop
    after:
      call %v, ep_fn(%i)
      ret %v
    func ep_fn(x)
      ret %x
  )");
  const cfg::Cfg graph = cfg::Cfg::Build(t);
  ExecutorOptions opts;
  opts.theta = 8;
  SymExecutor exec(t, graph, t.FindFunction("ep_fn"), opts);
  const auto r = exec.ReachEp(/*directed=*/true);
  EXPECT_EQ(r.status, SymexStatus::kProgramDead) << SymexStatusName(r.status);

  // With a large enough θ the same loop is traversable.
  ExecutorOptions big;
  big.theta = 400;
  SymExecutor exec2(t, graph, t.FindFunction("ep_fn"), big);
  EXPECT_EQ(exec2.ReachEp(true).status, SymexStatus::kReachedEp);
}

// A branch cascade: every byte doubles the path count for the naive
// executor while the directed one follows the single viable route.
std::string BranchCascade(int depth) {
  std::string src = R"(
    func main()
      movi %n, 1
      alloc %buf, %n
  )";
  for (int i = 0; i < depth; ++i) {
    const std::string idx = std::to_string(i);
    // Registers are reused across rounds to stay within the register file.
    src += "  read %g, %buf, %n\n";
    src += "  load.1 %c, %buf, 0\n";
    src += "  movi %k, " + std::to_string(i + 1) + "\n";
    src += "  cmpltu %b, %c, %k\n";
    src += "  br %b, lo" + idx + ", hi" + idx + "\n";
    src += "lo" + idx + ":\n";
    src += "  nop\n";
    src += "  jmp join" + idx + "\n";
    src += "hi" + idx + ":\n";
    src += "  nop\n";
    src += "  jmp join" + idx + "\n";
    src += "join" + idx + ":\n";
  }
  src += R"(
      movi %z, 0
      call %v, ep_fn(%z)
      ret %v
    func ep_fn(x)
      ret %x
  )";
  return src;
}

TEST(NaiveSymex, StateBudgetExhaustsAsMemError) {
  const Program t = Assemble(BranchCascade(16));
  const cfg::Cfg graph = cfg::Cfg::Build(t);
  ExecutorOptions opts;
  opts.max_live_states = 64;  // tiny budget → MemError quickly
  SymExecutor exec(t, graph, t.FindFunction("ep_fn"), opts);
  const auto naive = exec.ReachEp(/*directed=*/false);
  EXPECT_EQ(naive.status, SymexStatus::kBudget) << SymexStatusName(naive.status);

  // Directed mode sails through the same program within the budget.
  const auto directed = exec.ReachEp(/*directed=*/true);
  EXPECT_EQ(directed.status, SymexStatus::kReachedEp);
  EXPECT_LT(directed.stats.peak_live_states, 64u);
}

TEST(DirectedSymex, StatsArePopulated) {
  const Program t = Assemble(R"(
    func main()
      movi %z, 0
      call %v, ep_fn(%z)
      ret %v
    func ep_fn(x)
      ret %x
  )");
  const cfg::Cfg graph = cfg::Cfg::Build(t);
  SymExecutor exec(t, graph, t.FindFunction("ep_fn"));
  const auto r = exec.ReachEp(true);
  EXPECT_EQ(r.status, SymexStatus::kReachedEp);
  EXPECT_GT(r.stats.instructions, 0u);
  EXPECT_GE(r.stats.states_created, 1u);
  EXPECT_GT(r.stats.peak_memory_bytes, 0u);
  EXPECT_GE(r.stats.elapsed_seconds, 0.0);
}

TEST(Combining, PocLengthCoversGuidingAndBunches) {
  const Program s = AssembleParts({kSharedDecoder, kOriginalS});
  const Program t = AssembleParts({kSharedDecoder, kCloneT});
  const Bytes poc{'S', 'S', 1, 0x80, 0x90};
  const auto p1 = taint::ExtractCrashPrimitives(s, poc, s.FindFunction("dec"));
  ASSERT_TRUE(p1.Crashed());
  const cfg::Cfg graph = cfg::Cfg::Build(t);
  SymExecutor exec(t, graph, t.FindFunction("dec"));
  const auto r = exec.GeneratePoc(p1.bunches);
  ASSERT_EQ(r.status, SymexStatus::kPocGenerated) << r.detail;
  // 4 guiding bytes + one 2-byte record.
  EXPECT_EQ(r.poc.size(), 6u);
  EXPECT_EQ(vm::RunProgram(t, r.poc).trap, vm::TrapKind::kOutOfBounds);
}

}  // namespace
}  // namespace octopocs::symex

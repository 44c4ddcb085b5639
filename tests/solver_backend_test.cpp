// SolverBackend differential suite: the propagation core and the raced
// portfolio against the legacy backtracker (the A/B oracle).
//
// The contract under test is *answer identity*: for any preprocessed
// constraint system, every backend returns the same status, and on kSat
// the same effective byte assignment — the backends share one decision
// procedure (variable order, value order, filtering strength) and
// differ only in how fast they walk it. kUnsat must agree exactly
// (Type-III verdicts ride on its completeness). Under tiny step
// budgets the backends may disagree about *whether* they finished, but
// never about a definitive answer.
//
// The nogood cases pin the soundness argument from DESIGN.md §15: a
// recorded nogood only ever prunes provably model-free subtrees, so a
// store warmed by arbitrary earlier queries can never change a later
// query's status or first model.
//
// The split cases hold ByteSolver's unary-only fast path (DESIGN.md
// §10.1) to the monolithic GetSolverBackend(k).Solve of the same system:
// same status and the same model on every definitive answer, with or
// without a SolveContext, with hints inside and outside the domains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "symex/expr.h"
#include "symex/solver.h"

namespace octopocs::symex {
namespace {

ExprRef In(std::uint32_t off) { return MakeInput(off); }

ExprRef InputEq(std::uint32_t off, std::uint64_t val) {
  return MakeBinOp(vm::Op::kCmpEq, In(off), MakeConst(val));
}

/// Random expression tree over the input bytes `vars`. Mixes arithmetic,
/// bitwise ops, comparisons, negation, and byte extraction so the
/// compiled-program evaluator in the propagate core is exercised on every
/// node kind the tree-walking Eval handles.
ExprRef RandomExprOn(std::mt19937& rng, int depth,
                     const std::vector<std::uint32_t>& vars) {
  if (depth <= 0 || rng() % 4 == 0) {
    return rng() % 2 == 0 ? In(vars[rng() % vars.size()])
                          : MakeConst(rng() % 256);
  }
  switch (rng() % 12) {
    case 0:
      return MakeNot(RandomExprOn(rng, depth - 1, vars));
    case 1:
      return MakeExtract(RandomExprOn(rng, depth - 1, vars),
                         static_cast<std::uint8_t>(rng() % 2));
    default: {
      static const vm::Op kOps[] = {
          vm::Op::kAdd,   vm::Op::kSub,   vm::Op::kMul,   vm::Op::kAnd,
          vm::Op::kOr,    vm::Op::kXor,   vm::Op::kCmpEq, vm::Op::kCmpNe,
          vm::Op::kCmpLtU, vm::Op::kCmpLeU,
      };
      return MakeBinOp(kOps[rng() % (sizeof(kOps) / sizeof(kOps[0]))],
                       RandomExprOn(rng, depth - 1, vars),
                       RandomExprOn(rng, depth - 1, vars));
    }
  }
}

/// RandomExprOn over the window of bytes 0..num_vars-1.
ExprRef RandomExpr(std::mt19937& rng, int depth, std::uint32_t num_vars) {
  std::vector<std::uint32_t> vars(num_vars);
  std::iota(vars.begin(), vars.end(), 0u);
  return RandomExprOn(rng, depth, vars);
}

/// A random system: mostly comparison constraints (so a decent fraction
/// is satisfiable but not trivially), with optional forced-UNSAT pairs.
std::vector<ExprRef> RandomSystem(std::mt19937& rng, bool force_unsat) {
  const std::uint32_t num_vars = 2 + rng() % 6;
  std::vector<ExprRef> cs;
  const int n = 1 + static_cast<int>(rng() % 5);
  for (int i = 0; i < n; ++i) {
    cs.push_back(RandomExpr(rng, 1 + static_cast<int>(rng() % 3), num_vars));
  }
  if (force_unsat) {
    const std::uint32_t v = rng() % num_vars;
    cs.push_back(InputEq(v, 3));
    cs.push_back(InputEq(v, 4));
  }
  return cs;
}

/// Random PoC-byte value-ordering hints for a subset of the window.
Model RandomHints(std::mt19937& rng) {
  Model hints;
  const int n = static_cast<int>(rng() % 4);
  for (int i = 0; i < n; ++i) {
    hints[rng() % 8] = static_cast<std::uint8_t>(rng() % 256);
  }
  return hints;
}

SolveResult SolveUnder(const std::vector<ExprRef>& cs, SolverBackendKind kind,
                       const SolverOptions& base = {}) {
  SolverOptions options = base;
  options.backend = kind;
  ByteSolver solver(options);
  for (const ExprRef& c : cs) solver.Add(c);
  return solver.Solve();
}

/// Effective-assignment equality over the constrained variables (absent
/// model entries read as 0 everywhere a model is consumed).
testing::AssertionResult SameAssignment(const std::vector<ExprRef>& cs,
                                        const Model& a, const Model& b) {
  SortedSmallSet<std::uint32_t> vars;
  for (const ExprRef& c : cs) vars.UnionWith(FreeVars(c));
  for (const std::uint32_t v : vars) {
    const auto ai = a.find(v);
    const auto bi = b.find(v);
    const std::uint8_t av = ai == a.end() ? 0 : ai->second;
    const std::uint8_t bv = bi == b.end() ? 0 : bi->second;
    if (av != bv) {
      return testing::AssertionFailure()
             << "byte " << v << ": " << int(av) << " vs " << int(bv);
    }
  }
  return testing::AssertionSuccess();
}

bool Satisfies(const std::vector<ExprRef>& cs, const Model& model) {
  for (const ExprRef& c : cs) {
    if (Eval(c, model) == 0) return false;
  }
  return true;
}

bool Definitive(SolveStatus s) {
  return s == SolveStatus::kSat || s == SolveStatus::kUnsat;
}

// -- Differential fuzz: propagate vs backtrack ------------------------------

TEST(BackendDifferential, FiveHundredRandomSystemsAgreeExactly) {
  std::mt19937 rng(20260807);
  int sat = 0, unsat = 0;
  for (int round = 0; round < 520; ++round) {
    InternScope intern;
    const std::vector<ExprRef> cs = RandomSystem(rng, (round % 5) == 4);
    SolverOptions base;
    base.hints = RandomHints(rng);
    const SolveResult oracle = SolveUnder(cs, SolverBackendKind::kBacktrack,
                                          base);
    const SolveResult fast = SolveUnder(cs, SolverBackendKind::kPropagate,
                                        base);
    ASSERT_EQ(fast.status, oracle.status) << "round " << round;
    if (oracle.status == SolveStatus::kSat) {
      ++sat;
      EXPECT_TRUE(SameAssignment(cs, fast.model, oracle.model))
          << "round " << round << ": first models must be byte-identical";
      EXPECT_TRUE(Satisfies(cs, fast.model)) << "round " << round;
    } else if (oracle.status == SolveStatus::kUnsat) {
      ++unsat;
    }
  }
  // The generator must actually exercise both verdicts, or the
  // differential proves nothing.
  EXPECT_GE(sat, 100);
  EXPECT_GE(unsat, 50);
}

TEST(BackendDifferential, NogoodWarmedPropagateStillAgrees) {
  // Same differential, but one NogoodStore survives across all queries —
  // the P3 prefix-re-solve lifetime. Nogoods recorded by earlier systems
  // whose dep sets happen to apply to later ones may prune subtrees, and
  // must never change an answer.
  std::mt19937 rng(777);
  InternScope intern;  // one scope: node addresses stay comparable
  NogoodStore store;
  for (int round = 0; round < 150; ++round) {
    const std::vector<ExprRef> cs = RandomSystem(rng, (round % 4) == 3);
    SolverOptions warm;
    warm.nogoods = &store;
    const SolveResult fast = SolveUnder(cs, SolverBackendKind::kPropagate,
                                        warm);
    const SolveResult oracle =
        SolveUnder(cs, SolverBackendKind::kBacktrack);
    ASSERT_EQ(fast.status, oracle.status) << "round " << round;
    if (oracle.status == SolveStatus::kSat) {
      EXPECT_TRUE(SameAssignment(cs, fast.model, oracle.model))
          << "round " << round;
    }
  }
}

TEST(BackendDifferential, GrowingPrefixReSolvesAgree) {
  // The exact P3 shape: a path's constraint prefix grows at each ep
  // encounter and is re-solved each time, with the nogood store carried
  // across. Every rung must match a cold backtrack solve of that rung.
  std::mt19937 rng(31337);
  for (int round = 0; round < 60; ++round) {
    InternScope intern;
    NogoodStore store;
    std::vector<ExprRef> prefix;
    for (int stage = 0; stage < 4; ++stage) {
      const std::vector<ExprRef> extension =
          RandomSystem(rng, /*force_unsat=*/stage == 3 && (round % 3) == 0);
      prefix.insert(prefix.end(), extension.begin(), extension.end());
      SolverOptions warm;
      warm.nogoods = &store;
      const SolveResult fast =
          SolveUnder(prefix, SolverBackendKind::kPropagate, warm);
      const SolveResult oracle =
          SolveUnder(prefix, SolverBackendKind::kBacktrack);
      // Nogood pruning may let the propagate core finish a rung the
      // backtracker's step budget cannot (that speedup is the point);
      // what it may never do is contradict a definitive oracle answer
      // or produce an uncertified model.
      if (Definitive(oracle.status) && Definitive(fast.status)) {
        ASSERT_EQ(fast.status, oracle.status)
            << "round " << round << " stage " << stage;
        if (oracle.status == SolveStatus::kSat) {
          EXPECT_TRUE(SameAssignment(prefix, fast.model, oracle.model))
              << "round " << round << " stage " << stage;
        }
      }
      if (fast.status == SolveStatus::kSat) {
        EXPECT_TRUE(Satisfies(prefix, fast.model))
            << "round " << round << " stage " << stage;
      }
      if (oracle.status == SolveStatus::kUnsat ||
          fast.status == SolveStatus::kUnsat) {
        break;
      }
    }
  }
}

TEST(BackendDifferential, BudgetEdgesNeverContradict) {
  // Under tiny step budgets a backend may run out (kUnknown) where the
  // other finishes — that asymmetry is allowed. What is not allowed is
  // two *definitive* answers that disagree, or a model that fails its
  // own constraints.
  std::mt19937 rng(5150);
  for (int round = 0; round < 200; ++round) {
    InternScope intern;
    const std::vector<ExprRef> cs = RandomSystem(rng, (round % 4) == 3);
    SolverOptions tight;
    tight.max_steps = rng() % 24;
    const SolveResult a = SolveUnder(cs, SolverBackendKind::kBacktrack,
                                     tight);
    const SolveResult b = SolveUnder(cs, SolverBackendKind::kPropagate,
                                     tight);
    if (Definitive(a.status) && Definitive(b.status)) {
      ASSERT_EQ(a.status, b.status) << "round " << round;
      if (a.status == SolveStatus::kSat) {
        EXPECT_TRUE(SameAssignment(cs, a.model, b.model)) << "round "
                                                          << round;
      }
    }
    if (b.status == SolveStatus::kSat) {
      EXPECT_TRUE(Satisfies(cs, b.model)) << "round " << round;
    }
  }
}

// -- Unary-only split vs the monolithic search -------------------------------

/// A non-constant random constraint over `vars` (folded constants are
/// redrawn: ByteSolver screens them before either path sees them).
ExprRef RandomConstraintOn(std::mt19937& rng,
                           const std::vector<std::uint32_t>& vars) {
  for (;;) {
    ExprRef e = RandomExprOn(rng, 1 + static_cast<int>(rng() % 2), vars);
    if (!e->IsConst()) return e;
  }
}

/// A unary constraint on byte `v`: a bound, an exclusion, or a random
/// expression tree over `v` alone.
ExprRef RandomUnary(std::mt19937& rng, std::uint32_t v) {
  const ExprRef k = MakeConst(rng() % 256);
  switch (rng() % 4) {
    case 0:
      return MakeBinOp(vm::Op::kCmpLeU, In(v), k);
    case 1:
      return MakeBinOp(vm::Op::kCmpLeU, k, In(v));
    case 2:
      return MakeBinOp(vm::Op::kCmpNe, In(v), k);
    default:
      return RandomConstraintOn(rng, {v});
  }
}

/// A system that interleaves unary-only bytes with coupled clusters:
/// bytes are spread over a sparse, shuffled offset window; up to two
/// clusters of 2-3 bytes each get one guaranteed multi-byte constraint,
/// random extra constraints and unary constraints of their own; every
/// other byte gets 0-3 unary constraints only.
std::vector<ExprRef> RandomSplitSystem(std::mt19937& rng) {
  std::vector<std::uint32_t> offsets(4 + rng() % 9);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    offsets[i] = static_cast<std::uint32_t>(3 * i + rng() % 3);
  }
  std::shuffle(offsets.begin(), offsets.end(), rng);
  std::vector<ExprRef> cs;
  std::size_t pos = 0;
  const std::size_t clusters = rng() % 3;
  for (std::size_t k = 0; k < clusters; ++k) {
    const std::size_t size = 2 + rng() % 2;
    if (pos + size > offsets.size()) break;
    const std::vector<std::uint32_t> cluster(offsets.begin() + pos,
                                             offsets.begin() + pos + size);
    pos += size;
    static const vm::Op kCouple[] = {vm::Op::kCmpLeU, vm::Op::kCmpNe,
                                     vm::Op::kCmpEq};
    cs.push_back(MakeBinOp(kCouple[rng() % 3],
                           MakeBinOp(vm::Op::kAdd, In(cluster[0]),
                                     In(cluster[1])),
                           MakeConst(rng() % 400)));
    for (std::size_t j = rng() % 3; j > 0; --j) {
      cs.push_back(RandomConstraintOn(rng, cluster));
    }
    for (std::size_t j = rng() % 3; j > 0; --j) {
      cs.push_back(RandomUnary(rng, cluster[rng() % size]));
    }
  }
  for (; pos < offsets.size(); ++pos) {
    for (std::size_t j = rng() % 4; j > 0; --j) {
      cs.push_back(RandomUnary(rng, offsets[pos]));
    }
  }
  std::shuffle(cs.begin(), cs.end(), rng);
  // The preprocessed form both paths see: interning may have built the
  // same node twice, and ByteSolver collapses duplicates first.
  std::vector<ExprRef> unique;
  for (const ExprRef& c : cs) {
    if (std::none_of(unique.begin(), unique.end(),
                     [&](const ExprRef& u) { return u == c; })) {
      unique.push_back(c);
    }
  }
  return unique;
}

/// Hints for about half of the constrained bytes: a value every unary
/// constraint on the byte accepts (inside its domain) when one exists
/// and a coin says so, else a random value (often outside).
Model SplitHints(std::mt19937& rng, const std::vector<ExprRef>& cs) {
  SortedSmallSet<std::uint32_t> vars;
  for (const ExprRef& c : cs) vars.UnionWith(FreeVars(c));
  Model hints;
  for (const std::uint32_t v : vars) {
    if (rng() % 2 == 0) continue;
    std::vector<std::uint8_t> inside;
    for (unsigned value = 0; value < 256; ++value) {
      const Model probe = {{v, static_cast<std::uint8_t>(value)}};
      bool ok = true;
      for (const ExprRef& c : cs) {
        if (FreeVars(c).size() == 1 && FreeVars(c).Contains(v) &&
            Eval(c, probe) == 0) {
          ok = false;
          break;
        }
      }
      if (ok) inside.push_back(static_cast<std::uint8_t>(value));
    }
    hints[v] = !inside.empty() && rng() % 2 == 0
                   ? inside[rng() % inside.size()]
                   : static_cast<std::uint8_t>(rng() % 256);
  }
  return hints;
}

constexpr SolverBackendKind kAllBackends[] = {SolverBackendKind::kBacktrack,
                                              SolverBackendKind::kPropagate,
                                              SolverBackendKind::kPortfolio};

/// ByteSolver (split) against the monolithic backend on one system.
void ExpectSplitMatchesMonolithic(const std::vector<ExprRef>& cs,
                                  const SolverOptions& base,
                                  const std::string& what) {
  for (const SolverBackendKind kind : kAllBackends) {
    SolverOptions options = base;
    options.backend = kind;
    const SolveResult mono = GetSolverBackend(kind).Solve(cs, options);
    const SolveResult split = ByteSolver(options).SolveWith(cs);
    const std::string where = what + " backend " + SolverBackendName(kind);
    if (!Definitive(mono.status)) continue;
    ASSERT_EQ(split.status, mono.status) << where;
    if (mono.status == SolveStatus::kSat) {
      EXPECT_TRUE(SameAssignment(cs, split.model, mono.model)) << where;
      EXPECT_EQ(split.model, mono.model) << where;
    }
    if (kind == SolverBackendKind::kBacktrack) {
      EXPECT_LE(split.steps, mono.steps)
          << where << ": the residue search is a sub-walk of the whole one";
    }
  }
}

TEST(SplitDifferential, RandomMixedSystemsMatchTheMonolithicSearch) {
  std::mt19937 rng(13013);
  int sat = 0, unsat = 0, with_ctx = 0;
  for (int round = 0; round < 400; ++round) {
    InternScope intern;
    const std::vector<ExprRef> cs = RandomSplitSystem(rng);
    SolverOptions base;
    base.hints = SplitHints(rng, cs);
    // Half the rounds carry a context that applied a random part of the
    // unary constraints — the rest are probed, like the speculative
    // branch constraint a feasibility query adds.
    SolveContext ctx;
    if (rng() % 2 == 0) {
      for (const ExprRef& c : cs) {
        if (rng() % 4 != 0) ctx.Apply(c);
      }
      base.context = &ctx;
      ++with_ctx;
    }
    ExpectSplitMatchesMonolithic(cs, base, "round " + std::to_string(round));
    if (HasFatalFailure()) return;
    const SolveResult r = ByteSolver(base).SolveWith(cs);
    if (r.status == SolveStatus::kSat) {
      ++sat;
      EXPECT_TRUE(Satisfies(cs, r.model)) << "round " << round;
    } else if (r.status == SolveStatus::kUnsat) {
      ++unsat;
    }
  }
  EXPECT_GE(sat, 100);
  EXPECT_GE(unsat, 40);
  EXPECT_GE(with_ctx, 150);
}

TEST(SplitDifferential, WipedUnaryOnlyDomainIsUnsatWithoutSearch) {
  InternScope intern;
  const std::vector<ExprRef> cs = {
      MakeBinOp(vm::Op::kCmpLtU, In(0), MakeConst(3)),
      MakeBinOp(vm::Op::kCmpLtU, MakeConst(5), In(0)),
      MakeBinOp(vm::Op::kCmpEq, MakeBinOp(vm::Op::kAdd, In(1), In(2)),
                MakeConst(10)),
  };
  for (const bool use_ctx : {false, true}) {
    SolveContext ctx;
    SolverOptions base;
    if (use_ctx) {
      for (const ExprRef& c : cs) ctx.Apply(c);
      ASSERT_TRUE(ctx.known_unsat());
      base.context = &ctx;
    }
    ExpectSplitMatchesMonolithic(cs, base, use_ctx ? "ctx" : "no ctx");
    for (const SolverBackendKind kind : kAllBackends) {
      base.backend = kind;
      const SolveResult r = ByteSolver(base).SolveWith(cs);
      EXPECT_EQ(r.status, SolveStatus::kUnsat) << SolverBackendName(kind);
      EXPECT_EQ(r.steps, 0u) << SolverBackendName(kind);
    }
  }
}

TEST(SplitDifferential, UnappliedUnaryConstraintIsProbed) {
  // The context folded in[0] <= 200; the query adds in[0] >= 100, which
  // it has not. A hint of 50 is inside the context's domain but not the
  // query's, so only a probe of the unapplied constraint gives 100.
  InternScope intern;
  const ExprRef applied = MakeBinOp(vm::Op::kCmpLeU, In(0), MakeConst(200));
  const ExprRef speculative =
      MakeBinOp(vm::Op::kCmpLeU, MakeConst(100), In(0));
  const ExprRef coupled = MakeBinOp(
      vm::Op::kCmpLtU, In(1), MakeBinOp(vm::Op::kAdd, In(2), MakeConst(1)));
  SolveContext ctx;
  ctx.Apply(applied);
  const std::vector<ExprRef> cs = {applied, coupled, speculative};
  for (const std::uint8_t hint : {std::uint8_t{50}, std::uint8_t{150}}) {
    SolverOptions base;
    base.context = &ctx;
    base.hints = {{0, hint}, {1, 9}};
    ExpectSplitMatchesMonolithic(cs, base, "hint " + std::to_string(hint));
    for (const SolverBackendKind kind : kAllBackends) {
      base.backend = kind;
      const SolveResult r = ByteSolver(base).SolveWith(cs);
      ASSERT_EQ(r.status, SolveStatus::kSat) << SolverBackendName(kind);
      EXPECT_EQ(r.model.at(0), hint == 50 ? 100 : 150)
          << SolverBackendName(kind);
      EXPECT_EQ(r.model.at(1), 9) << SolverBackendName(kind);
    }
  }
}

TEST(SplitDifferential, ZeroVariableConstraintStaysInTheResidue) {
  // Make* folds every variable-free expression to a constant, so a
  // non-constant node with no free byte only arises when built by hand.
  // It must not be mistaken for a unary constraint (it names no byte)
  // and goes to the backend with the coupled part, unchanged.
  InternScope intern;
  auto zero_var = std::make_shared<Expr>();
  zero_var->kind = ExprKind::kBinOp;
  zero_var->op = vm::Op::kCmpEq;
  zero_var->lhs = MakeConst(1);
  zero_var->rhs = MakeConst(1);
  ASSERT_TRUE(FreeVars(zero_var).empty());
  const std::vector<ExprRef> with_residue = {
      zero_var, InputEq(0, 5),
      MakeBinOp(vm::Op::kCmpNe, In(1), In(2))};
  const std::vector<ExprRef> only_unary = {zero_var, InputEq(0, 5)};
  for (const auto* cs : {&with_residue, &only_unary}) {
    ExpectSplitMatchesMonolithic(*cs, {}, "zero-var");
    const SolveResult r = ByteSolver().SolveWith(*cs);
    ASSERT_EQ(r.status, SolveStatus::kSat);
    EXPECT_EQ(r.model.at(0), 5);
  }
}

// -- Portfolio ---------------------------------------------------------------

TEST(Portfolio, MatchesTheOracleOnRandomSystems) {
  std::mt19937 rng(424242);
  for (int round = 0; round < 60; ++round) {
    InternScope intern;
    const std::vector<ExprRef> cs = RandomSystem(rng, (round % 3) == 2);
    const SolveResult oracle = SolveUnder(cs, SolverBackendKind::kBacktrack);
    const SolveResult raced = SolveUnder(cs, SolverBackendKind::kPortfolio);
    ASSERT_EQ(raced.status, oracle.status) << "round " << round;
    if (oracle.status == SolveStatus::kSat) {
      EXPECT_TRUE(SameAssignment(cs, raced.model, oracle.model))
          << "round " << round;
    }
  }
}

TEST(Portfolio, DefinitiveOnBothSatAndUnsat) {
  InternScope intern;
  const SolveResult sat =
      SolveUnder({InputEq(0, 7)}, SolverBackendKind::kPortfolio);
  EXPECT_EQ(sat.status, SolveStatus::kSat);
  EXPECT_EQ(Eval(In(0), sat.model), 7u);

  const SolveResult unsat = SolveUnder({InputEq(1, 3), InputEq(1, 4)},
                                       SolverBackendKind::kPortfolio);
  EXPECT_EQ(unsat.status, SolveStatus::kUnsat);
}

// -- Backend plumbing --------------------------------------------------------

TEST(BackendPlumbing, ParseAndNameRoundTrip) {
  for (const SolverBackendKind kind :
       {SolverBackendKind::kBacktrack, SolverBackendKind::kPropagate,
        SolverBackendKind::kPortfolio}) {
    const auto parsed = ParseSolverBackend(SolverBackendName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
    EXPECT_STREQ(GetSolverBackend(kind).name(), SolverBackendName(kind));
  }
  EXPECT_FALSE(ParseSolverBackend("z3").has_value());
  EXPECT_FALSE(ParseSolverBackend("").has_value());
}

// -- Nogood store semantics --------------------------------------------------

TEST(NogoodStore, DropsDuplicatesAndWeakerEntries) {
  InternScope intern;
  const ExprRef c = InputEq(0, 1);
  const ExprRef d = InputEq(1, 2);
  NogoodStore store;
  store.Record({{0, 1}}, {c.get()});
  EXPECT_EQ(store.size(), 1u);
  // Same literals, dependency superset: subsumed by the stored entry.
  std::vector<const Expr*> wider = {c.get(), d.get()};
  std::sort(wider.begin(), wider.end());
  store.Record({{0, 1}}, wider);
  EXPECT_EQ(store.size(), 1u);
  // Empty literal sets carry no pruning information and are refused.
  store.Record({}, {c.get()});
  EXPECT_EQ(store.size(), 1u);
}

TEST(NogoodStore, StaysWithinItsCap) {
  InternScope intern;
  std::vector<ExprRef> keep_alive;
  NogoodStore store;
  for (std::uint32_t i = 0; i < NogoodStore::kMaxNogoods + 64; ++i) {
    keep_alive.push_back(InputEq(i % 64, i % 256));
    store.Record({{i % 64, static_cast<std::uint8_t>(i % 256)},
                  {64 + i % 8, static_cast<std::uint8_t>(i % 7)}},
                 {keep_alive.back().get()});
  }
  EXPECT_LE(store.size(), NogoodStore::kMaxNogoods);
}

TEST(NogoodSoundness, InapplicableNogoodsNeverFire) {
  // Warm the store on an UNSAT system over var 0, then solve a
  // *satisfiable* system whose only model assigns var 0 a value the
  // warmed nogoods mention. The dep-subset applicability test must keep
  // those nogoods inert — their proof talks about constraints this query
  // does not contain.
  InternScope intern;
  NogoodStore store;
  SolverOptions warm;
  warm.nogoods = &store;
  const SolveResult seed = SolveUnder(
      {MakeBinOp(vm::Op::kCmpLtU, In(0), MakeConst(4)), InputEq(0, 9)},
      SolverBackendKind::kPropagate, warm);
  ASSERT_EQ(seed.status, SolveStatus::kUnsat);

  const std::vector<ExprRef> sat_query = {InputEq(0, 2)};
  const SolveResult r =
      SolveUnder(sat_query, SolverBackendKind::kPropagate, warm);
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(Eval(In(0), r.model), 2u);
}

TEST(NogoodSoundness, ExhaustiveSweepOverSmallSystems) {
  // Brute-force ground truth on two-variable systems restricted to tiny
  // domains: enumerate all 256^2 assignments... too slow; instead
  // restrict with unary range constraints so the true model set is
  // enumerable, and check the warmed propagate core finds exactly the
  // first model (lowest var, then lowest value, hints absent) the
  // oracle's ordering defines.
  InternScope intern;
  NogoodStore store;
  SolverOptions warm;
  warm.nogoods = &store;
  std::mt19937 rng(99);
  for (int round = 0; round < 80; ++round) {
    const std::uint8_t lo0 = rng() % 8, hi0 = lo0 + 1 + rng() % 8;
    const std::uint8_t lo1 = rng() % 8, hi1 = lo1 + 1 + rng() % 8;
    const std::vector<ExprRef> cs = {
        MakeBinOp(vm::Op::kCmpLeU, MakeConst(lo0), In(0)),
        MakeBinOp(vm::Op::kCmpLtU, In(0), MakeConst(hi0)),
        MakeBinOp(vm::Op::kCmpLeU, MakeConst(lo1), In(1)),
        MakeBinOp(vm::Op::kCmpLtU, In(1), MakeConst(hi1)),
        MakeBinOp(vm::Op::kCmpNe, MakeBinOp(vm::Op::kAdd, In(0), In(1)),
                  MakeConst(lo0 + lo1)),
    };
    // Ground truth: first (v0, v1) in lexicographic order with
    // v0 + v1 != lo0 + lo1.
    Model expect;
    bool found = false;
    for (std::uint32_t v0 = lo0; v0 < hi0 && !found; ++v0) {
      for (std::uint32_t v1 = lo1; v1 < hi1 && !found; ++v1) {
        if (v0 + v1 != static_cast<std::uint32_t>(lo0 + lo1)) {
          expect[0] = static_cast<std::uint8_t>(v0);
          expect[1] = static_cast<std::uint8_t>(v1);
          found = true;
        }
      }
    }
    const SolveResult r = SolveUnder(cs, SolverBackendKind::kPropagate, warm);
    if (!found) {
      EXPECT_EQ(r.status, SolveStatus::kUnsat) << "round " << round;
      continue;
    }
    ASSERT_EQ(r.status, SolveStatus::kSat) << "round " << round;
    // The search branches on the smaller filtered domain first, so the
    // lexicographic ground truth only binds when var 0's domain is the
    // tighter one (ties break toward the lower offset).
    if (hi0 - lo0 <= hi1 - lo1) {
      EXPECT_TRUE(SameAssignment(cs, r.model, expect)) << "round " << round;
    } else {
      EXPECT_TRUE(Satisfies(cs, r.model)) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace octopocs::symex

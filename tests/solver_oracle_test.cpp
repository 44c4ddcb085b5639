// Solver oracle suite: the one search core against ground truth.
//
// BackendDifferential holds ByteSolver (the split plus BacktrackSearch
// on the coupled residue) to a brute-force enumerator over systems with
// at most two free bytes: every assignment (at most 65,536) is tried
// against every constraint. The status must match exactly (Type-III
// verdicts ride on kUnsat being complete), every kSat model must satisfy
// every constraint, and a hint assignment that satisfies the system must
// come back verbatim (that is how Type-I guiding inputs survive). Under
// tiny step budgets the search may stop with kUnknown, but no definitive
// answer may contradict the enumerator.
//
// The split cases hold ByteSolver's unary-only fast path (DESIGN.md
// §10.1) to the monolithic BacktrackSearch of the same system: same
// status and the same model on every definitive answer, with or without
// a SolveContext, with hints inside and outside the domains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
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
/// bitwise ops, comparisons, negation, and byte extraction so the search
/// meets every node kind Eval handles.
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

/// A random system over one or two free bytes of the window 0..7:
/// mostly comparison constraints (so a decent fraction is satisfiable
/// but not trivially), with optional forced-UNSAT pairs.
std::vector<ExprRef> RandomSmallSystem(std::mt19937& rng, bool force_unsat) {
  std::vector<std::uint32_t> vars = {static_cast<std::uint32_t>(rng() % 8)};
  if (rng() % 4 != 0) {
    vars.push_back(static_cast<std::uint32_t>((vars[0] + 1 + rng() % 7) % 8));
  }
  std::vector<ExprRef> cs;
  const int n = 1 + static_cast<int>(rng() % 5);
  for (int i = 0; i < n; ++i) {
    cs.push_back(RandomExprOn(rng, 1 + static_cast<int>(rng() % 3), vars));
  }
  if (force_unsat) {
    const std::uint32_t v = vars[rng() % vars.size()];
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

SolveResult SolveUnder(const std::vector<ExprRef>& cs,
                       const SolverOptions& options = {}) {
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

/// Brute-force ground truth: how many assignments of the system's free
/// bytes (at most two, so at most 65,536) satisfy every constraint, and
/// one of them drawn uniformly by `pick`.
struct Enumeration {
  std::uint64_t models = 0;
  Model sample;
  SolveStatus status() const {
    return models > 0 ? SolveStatus::kSat : SolveStatus::kUnsat;
  }
};

Enumeration Enumerate(const std::vector<ExprRef>& cs, std::mt19937& pick) {
  SortedSmallSet<std::uint32_t> free;
  for (const ExprRef& c : cs) free.UnionWith(FreeVars(c));
  const std::vector<std::uint32_t> vars(free.begin(), free.end());
  EXPECT_LE(vars.size(), 2u);
  Enumeration e;
  Model m;
  const std::uint32_t total = 1u << (8 * vars.size());
  for (std::uint32_t bits = 0; bits < total; ++bits) {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      m[vars[i]] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
    if (!Satisfies(cs, m)) continue;
    ++e.models;
    if (pick() % e.models == 0) e.sample = m;  // reservoir sampling
  }
  return e;
}

// -- The search against the enumerator ---------------------------------------

TEST(BackendDifferential, FiveHundredRandomSystemsAgreeExactly) {
  std::mt19937 rng(20260807);
  std::mt19937 pick(1);
  int sat = 0, unsat = 0;
  for (int round = 0; round < 520; ++round) {
    InternScope intern;
    const std::vector<ExprRef> cs = RandomSmallSystem(rng, (round % 5) == 4);
    SolverOptions options;
    options.hints = RandomHints(rng);
    const Enumeration truth = Enumerate(cs, pick);
    const SolveResult r = SolveUnder(cs, options);
    ASSERT_EQ(r.status, truth.status()) << "round " << round;
    if (r.status == SolveStatus::kSat) {
      ++sat;
      EXPECT_TRUE(Satisfies(cs, r.model)) << "round " << round;
    } else {
      ++unsat;
    }
  }
  // The generator must actually exercise both verdicts, or the
  // comparison proves nothing.
  EXPECT_GE(sat, 100);
  EXPECT_GE(unsat, 50);
}

TEST(BackendDifferential, SatisfyingHintComesBackVerbatim) {
  // P3 hints with the original PoC's bytes: when they already satisfy
  // the path, the reformed PoC must keep them. Every hint is tried first
  // and never conflicts, so the first model is the hint.
  std::mt19937 rng(777);
  std::mt19937 pick(2);
  int checked = 0;
  for (int round = 0; round < 150; ++round) {
    InternScope intern;
    const std::vector<ExprRef> cs = RandomSmallSystem(rng, false);
    const Enumeration truth = Enumerate(cs, pick);
    if (truth.models == 0) continue;
    SolverOptions options;
    options.hints = truth.sample;
    const SolveResult r = SolveUnder(cs, options);
    ASSERT_EQ(r.status, SolveStatus::kSat) << "round " << round;
    EXPECT_TRUE(SameAssignment(cs, r.model, truth.sample))
        << "round " << round;
    ++checked;
  }
  EXPECT_GE(checked, 60);
}

TEST(BackendDifferential, GrowingPrefixReSolvesAgree) {
  // The exact P3 shape: a path's constraint prefix grows at each ep
  // encounter and is re-solved each time through the state's
  // SolveContext and the run's SolverCache. Every rung must match the
  // enumerator.
  std::mt19937 rng(31337);
  std::mt19937 pick(3);
  for (int round = 0; round < 60; ++round) {
    InternScope intern;
    SolverCache cache;
    SolveContext path;
    SolverOptions options;
    options.hints = RandomHints(rng);
    options.context = &path;
    std::vector<ExprRef> prefix;
    const std::vector<ExprRef> seed = RandomSmallSystem(rng, false);
    SortedSmallSet<std::uint32_t> window;
    for (const ExprRef& c : seed) window.UnionWith(FreeVars(c));
    const std::vector<std::uint32_t> vars(window.begin(), window.end());
    for (int stage = 0; stage < 4; ++stage) {
      std::vector<ExprRef> extension;
      if (stage == 0) {
        extension = seed;
      } else if (!vars.empty()) {
        for (int i = 1 + static_cast<int>(rng() % 2); i > 0; --i) {
          extension.push_back(RandomExprOn(rng, 2, vars));
        }
      }
      if (stage == 3 && (round % 3) == 0 && !vars.empty()) {
        extension.push_back(InputEq(vars[0], 3));
        extension.push_back(InputEq(vars[0], 4));
      }
      for (const ExprRef& c : extension) {
        prefix.push_back(c);
        path.Apply(c);
      }
      const SolveResult r = cache.Solve(path, {}, options);
      const std::string where =
          "round " + std::to_string(round) + " stage " + std::to_string(stage);
      ASSERT_EQ(r.status, Enumerate(prefix, pick).status()) << where;
      if (r.status == SolveStatus::kSat) {
        EXPECT_TRUE(Satisfies(prefix, r.model)) << where;
      } else {
        break;
      }
    }
  }
}

TEST(BackendDifferential, BudgetEdgesNeverContradict) {
  // Under tiny step budgets the search may run out (kUnknown). What is
  // not allowed is a definitive answer the enumerator disagrees with, or
  // a model that fails its own constraints.
  std::mt19937 rng(5150);
  std::mt19937 pick(4);
  int definitive = 0, unknown = 0;
  for (int round = 0; round < 200; ++round) {
    InternScope intern;
    const std::vector<ExprRef> cs = RandomSmallSystem(rng, (round % 4) == 3);
    SolverOptions tight;
    tight.max_steps = rng() % 24;
    const SolveResult r = SolveUnder(cs, tight);
    if (!Definitive(r.status)) {
      EXPECT_EQ(r.status, SolveStatus::kUnknown) << "round " << round;
      ++unknown;
      continue;
    }
    ++definitive;
    ASSERT_EQ(r.status, Enumerate(cs, pick).status()) << "round " << round;
    if (r.status == SolveStatus::kSat) {
      EXPECT_TRUE(Satisfies(cs, r.model)) << "round " << round;
    }
  }
  EXPECT_GT(definitive, 0);
  EXPECT_GT(unknown, 0);
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

/// ByteSolver (split) against the monolithic search on one system.
void ExpectSplitMatchesMonolithic(const std::vector<ExprRef>& cs,
                                  const SolverOptions& options,
                                  const std::string& where) {
  const SolveResult mono = BacktrackSearch(cs, options);
  const SolveResult split = ByteSolver(options).SolveWith(cs);
  if (!Definitive(mono.status)) return;
  ASSERT_EQ(split.status, mono.status) << where;
  if (mono.status == SolveStatus::kSat) {
    EXPECT_TRUE(SameAssignment(cs, split.model, mono.model)) << where;
    EXPECT_EQ(split.model, mono.model) << where;
  }
  EXPECT_LE(split.steps, mono.steps)
      << where << ": the residue search is a sub-walk of the whole one";
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
    const SolveResult r = ByteSolver(base).SolveWith(cs);
    EXPECT_EQ(r.status, SolveStatus::kUnsat);
    EXPECT_EQ(r.steps, 0u);
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
    const SolveResult r = ByteSolver(base).SolveWith(cs);
    ASSERT_EQ(r.status, SolveStatus::kSat);
    EXPECT_EQ(r.model.at(0), hint == 50 ? 100 : 150);
    EXPECT_EQ(r.model.at(1), 9);
  }
}

TEST(SplitDifferential, ZeroVariableConstraintStaysInTheResidue) {
  // Make* folds every variable-free expression to a constant, so a
  // non-constant node with no free byte only arises when built by hand.
  // It must not be mistaken for a unary constraint (it names no byte)
  // and goes to the search with the coupled part, unchanged.
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

TEST(BackendDifferential, ExhaustiveSweepOverSmallSystems) {
  // Ground truth on two-variable systems restricted to tiny domains by
  // unary range constraints, so the true model set is a small grid: the
  // search must find exactly the first model (lowest var, then lowest
  // value, hints absent) its branching order defines, across many
  // systems solved in one interning scope.
  InternScope intern;
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
    const SolveResult r = SolveUnder(cs);
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

// The incremental solve context against a from-scratch reference.
//
// SolverCache::Solve answers a query from what the state's SolveContext
// maintained while constraints were appended: the normalized sequence
// and its hash, the domains, the coupled constraints, the derived byte
// equalities. The reference here keeps none of that: at every query it
// normalizes the full constraint vector, recomputes the wipeout from
// the unary constraints, certifies reuse candidates by evaluating every
// constraint, and sends a miss to ByteSolver::SolveWith. Random paths —
// forks, re-asserted duplicates, speculative branch constraints, pins,
// multi-byte concat equalities (some with constant bits outside their
// lanes), 2–3-byte coupled clusters — must get the same status, the
// same model, the same answering tier and the same search steps from
// both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "symex/expr.h"
#include "symex/solve_context.h"
#include "symex/solver.h"

namespace octopocs::symex {
namespace {

constexpr std::uint32_t kVars = 12;

enum class Tier { kTrivial, kExact, kWipeout, kReuse, kMiss };

const char* TierName(Tier t) {
  switch (t) {
    case Tier::kTrivial:
      return "trivial";
    case Tier::kExact:
      return "exact";
    case Tier::kWipeout:
      return "wipeout";
    case Tier::kReuse:
      return "reuse";
    case Tier::kMiss:
      return "miss";
  }
  return "?";
}

struct Answer {
  SolveResult result;
  Tier tier = Tier::kTrivial;
};

/// The state's reuse pool rule: newest last, deduplicated, capped at 4.
void NotePool(std::vector<Model>* pool, const Model& model) {
  for (const Model& m : *pool) {
    if (m == model) return;
  }
  pool->push_back(model);
  if (pool->size() > 4) pool->erase(pool->begin());
}

/// The tiers recomputed from the full constraint vector at every query.
class ScratchCache {
 public:
  Answer Solve(const std::vector<ExprRef>& path, const ExprRef* speculative,
               const Model& pins, const SolverOptions& base,
               const SolveContext* partial, std::vector<Model>* pool) {
    Answer a;
    std::vector<ExprRef> raw = path;
    if (speculative != nullptr) raw.push_back(*speculative);
    std::vector<ExprRef> normalized;
    std::unordered_set<const Expr*> seen;
    for (const ExprRef& c : raw) {
      if (c->IsConst()) {
        if (c->value == 0) {
          a.result.status = SolveStatus::kUnsat;
          return a;
        }
        continue;
      }
      if (seen.insert(c.get()).second) normalized.push_back(c);
    }
    if (normalized.empty()) {
      a.result.status = SolveStatus::kSat;
      return a;
    }
    std::vector<const Expr*> key;
    for (const ExprRef& c : normalized) key.push_back(c.get());

    if (const auto it = memo_.find(key); it != memo_.end()) {
      a.tier = Tier::kExact;
      a.result = it->second;
      a.result.steps = 0;
      if (a.result.status == SolveStatus::kSat) NotePool(pool, a.result.model);
      return a;
    }

    std::map<std::uint32_t, ByteDomain> own;
    for (const ExprRef& c : path) {
      const SortedSmallSet<std::uint32_t>& vars = FreeVars(c);
      if (vars.size() != 1) continue;
      ByteDomain& d = own[*vars.begin()];
      FilterUnary(c, *vars.begin(), &d);
      if (d.None()) {
        a.tier = Tier::kWipeout;
        a.result.status = SolveStatus::kUnsat;
        return a;
      }
    }

    SortedSmallSet<std::uint32_t> vars;
    for (const ExprRef& c : normalized) vars.UnionWith(FreeVars(c));
    for (std::size_t i = pool->size() + 1; i-- > 0;) {
      const Model* reuse = i == 0 ? nullptr : &(*pool)[i - 1];
      Model candidate;
      for (const std::uint32_t v : vars) {
        for (const Model* source : {&pins, reuse, &base.hints}) {
          if (source == nullptr) continue;
          if (const auto it = source->find(v); it != source->end()) {
            candidate[v] = it->second;
            break;
          }
        }
      }
      bool ok = true;
      for (const ExprRef& c : normalized) ok = ok && Eval(c, candidate) != 0;
      if (ok) {
        a.tier = Tier::kReuse;
        a.result.status = SolveStatus::kSat;
        a.result.model = candidate;
        NotePool(pool, candidate);
        return a;
      }
    }

    SolverOptions options = base;
    options.context = partial;
    a.tier = Tier::kMiss;
    a.result = ByteSolver(options).SolveWith(normalized);
    if (a.result.status == SolveStatus::kSat ||
        a.result.status == SolveStatus::kUnsat) {
      memo_[key] = a.result;
      if (a.result.status == SolveStatus::kSat) NotePool(pool, a.result.model);
    }
    return a;
  }

 private:
  std::map<std::vector<const Expr*>, SolveResult> memo_;
};

/// Tier of the query SolverCache just answered, from its counters.
Tier TierOf(const SolverCache::Stats& before, const SolverCache::Stats& after) {
  if (after.exact_hits != before.exact_hits) return Tier::kExact;
  if (after.subsumption_hits != before.subsumption_hits) return Tier::kWipeout;
  if (after.model_reuse_hits != before.model_reuse_hits) return Tier::kReuse;
  if (after.misses != before.misses) return Tier::kMiss;
  return Tier::kTrivial;
}

ExprRef In(std::uint32_t off) { return MakeInput(off); }
ExprRef C(std::uint64_t v) { return MakeConst(v); }
ExprRef Bin(vm::Op op, ExprRef a, ExprRef b) {
  return MakeBinOp(op, std::move(a), std::move(b));
}

/// Little-endian concatenation of `offsets`, the shape LoadWide builds.
ExprRef Concat(const std::vector<std::uint32_t>& offsets) {
  ExprRef e = In(offsets[0]);
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    e = Bin(vm::Op::kOr, e,
            Bin(vm::Op::kShl, In(offsets[i]), C(8 * i)));
  }
  return e;
}

/// One random path constraint. Pins are biased toward a hidden
/// reference assignment so most paths stay satisfiable for a while.
ExprRef RandomConstraint(std::mt19937& rng, const Model& truth) {
  const auto var = [&] { return static_cast<std::uint32_t>(rng() % kVars); };
  const auto byte = [&] { return static_cast<std::uint64_t>(rng() % 256); };
  const auto truth_of = [&](std::uint32_t v) -> std::uint64_t {
    const auto it = truth.find(v);
    return it == truth.end() ? 0 : it->second;
  };
  switch (rng() % 11) {
    case 0: {  // pin, usually consistent with the hidden assignment
      const std::uint32_t v = var();
      return Bin(vm::Op::kCmpEq, In(v),
                 C(rng() % 4 == 0 ? byte() : truth_of(v)));
    }
    case 1:
      return Bin(vm::Op::kCmpLtU, In(var()), C(1 + rng() % 255));
    case 2:
      return Bin(vm::Op::kCmpNe, In(var()), C(byte()));
    case 3:
      return Bin(vm::Op::kCmpEq, Bin(vm::Op::kAnd, In(var()), C(0x0F)),
                 C(rng() % 16));
    case 4: {  // multi-byte field == K
      std::vector<std::uint32_t> lanes;
      const std::size_t n = 2 + rng() % 3;
      while (lanes.size() < n) {
        const std::uint32_t v = var();
        if (std::find(lanes.begin(), lanes.end(), v) == lanes.end()) {
          lanes.push_back(v);
        }
      }
      std::uint64_t k = 0;
      for (std::size_t i = 0; i < n; ++i) {
        k |= (rng() % 3 == 0 ? byte() : truth_of(lanes[i])) << (8 * i);
      }
      if (rng() % 8 == 0) k |= 1ull << (8 * n + rng() % 8);  // outside lanes
      return Bin(vm::Op::kCmpEq, Concat(lanes), C(k));
    }
    case 5: {  // one shifted lane: a unary field equality
      const std::uint64_t k = byte() << 8;
      return Bin(vm::Op::kCmpEq, Bin(vm::Op::kShl, In(var()), C(8)),
                 C(rng() % 6 == 0 ? k | 1 : k));
    }
    case 6:
      return Bin(vm::Op::kCmpLeU, In(var()),
                 Bin(vm::Op::kAdd, In(var()), C(rng() % 5)));
    case 7: {
      const std::uint32_t a = var();
      const std::uint32_t b = var();
      return Bin(vm::Op::kCmpEq, Bin(vm::Op::kAdd, In(a), In(b)),
                 C(rng() % 2 == 0 ? truth_of(a) + truth_of(b) : rng() % 520));
    }
    case 8:
      return Bin(vm::Op::kCmpNe, Bin(vm::Op::kXor, In(var()), In(var())),
                 C(byte()));
    case 9: {  // three-byte cluster
      const std::uint32_t a = var();
      const std::uint32_t b = var();
      const std::uint32_t c = var();
      return Bin(vm::Op::kCmpLtU,
                 Bin(vm::Op::kAdd, Bin(vm::Op::kAdd, In(a), In(b)), In(c)),
                 C(1 + rng() % 700));
    }
    default:
      return Bin(vm::Op::kCmpLtU, In(var()), In(var()));
  }
}

/// The executor's pin harvest: `in[k] == v` with v a byte.
void NotePin(const ExprRef& c, Model* pins) {
  if (c->kind != ExprKind::kBinOp || c->op != vm::Op::kCmpEq ||
      c->lhs->kind != ExprKind::kInput || !c->rhs->IsConst() ||
      c->rhs->value > 0xFF) {
    return;
  }
  pins->emplace(c->lhs->offset, static_cast<std::uint8_t>(c->rhs->value));
}

struct PathState {
  std::vector<ExprRef> constraints;
  Model pins;
  SolveContext ctx;
  std::vector<Model> ref_pool;
};

struct Harness {
  SolverCache cache;
  ScratchCache reference;
  SolverOptions options;
  std::mt19937 rng;
  int queries = 0;
  std::map<Tier, int> tiers;

  explicit Harness(std::uint32_t seed) : rng(seed) {
    for (std::uint32_t v = 0; v < kVars; ++v) {
      if (rng() % 3 != 0) options.hints[v] = static_cast<std::uint8_t>(rng());
    }
  }

  void Append(PathState& p, ExprRef c) {
    NotePin(c, &p.pins);
    p.constraints.push_back(c);
    p.ctx.Apply(p.constraints.back());
  }

  /// One query through both; returns false (after recording a failure)
  /// when they disagree.
  bool Check(PathState& p, const ExprRef* speculative, const char* what) {
    // Half the reference's searches run with a context that applied only
    // a prefix of the path: the oracle itself is context-independent.
    SolveContext partial;
    const bool use_partial = rng() % 2 == 0;
    if (use_partial) {
      const std::size_t n = rng() % (p.constraints.size() + 1);
      for (std::size_t i = 0; i < n; ++i) partial.Apply(p.constraints[i]);
    }
    const Answer want =
        reference.Solve(p.constraints, speculative, p.pins, options,
                        use_partial ? &partial : nullptr, &p.ref_pool);

    const SolverCache::Stats before = cache.stats();
    options.context = &p.ctx;
    const SolveResult got = cache.Solve(p.ctx, p.pins, options, speculative);
    const Tier tier = TierOf(before, cache.stats());
    ++queries;
    ++tiers[tier];

    const std::string where =
        std::string(what) + " query " + std::to_string(queries);
    EXPECT_EQ(TierName(tier), std::string(TierName(want.tier))) << where;
    EXPECT_EQ(got.status, want.result.status) << where;
    EXPECT_EQ(got.model, want.result.model) << where;
    EXPECT_EQ(got.steps, want.result.steps) << where;
    EXPECT_EQ(p.ctx.recent_models(), p.ref_pool) << where;
    return tier == want.tier && got.status == want.result.status &&
           got.model == want.result.model && got.steps == want.result.steps;
  }

  /// A random walk over one path and its forks.
  void Walk(int steps) {
    Model truth;
    for (std::uint32_t v = 0; v < kVars; ++v) {
      truth[v] = static_cast<std::uint8_t>(rng());
    }
    std::vector<PathState> paths(1);
    for (int step = 0; step < steps && !paths.empty(); ++step) {
      const std::size_t at = rng() % paths.size();
      PathState& p = paths[at];
      switch (rng() % 8) {
        case 0:
        case 1:
        case 2:
          Append(p, RandomConstraint(rng, truth));
          break;
        case 3:  // re-assert an earlier constraint
          if (!p.constraints.empty()) {
            Append(p, p.constraints[rng() % p.constraints.size()]);
          }
          break;
        case 4: {  // fork: the copy shares the context until it appends
          if (paths.size() < 6) paths.push_back(p);
          break;
        }
        case 5: {  // speculative branch constraint, new or re-asserted
          const ExprRef c = !p.constraints.empty() && rng() % 4 == 0
                                ? p.constraints[rng() % p.constraints.size()]
                                : RandomConstraint(rng, truth);
          if (!Check(p, &c, "speculative")) return;
          // Usually the branch is then committed, as BranchFeasible's
          // caller does, so the next path query repeats its key.
          if (rng() % 3 != 0) Append(p, c);
          break;
        }
        default:
          if (!Check(p, nullptr, "path")) return;
          break;
      }
      if (paths[at].constraints.size() > 40) {
        paths.erase(paths.begin() + static_cast<std::ptrdiff_t>(at));
      }
    }
  }
};

void RunWalks(std::uint32_t seed, int walks) {
  InternScope intern;
  Harness h(seed);
  for (int w = 0; w < walks && !testing::Test::HasFailure(); ++w) {
    h.Walk(60);
  }
  // The walks must reach every tier, or the comparison proves little.
  EXPECT_GT(h.tiers[Tier::kExact], 0);
  EXPECT_GT(h.tiers[Tier::kWipeout], 0);
  EXPECT_GT(h.tiers[Tier::kReuse], 0);
  EXPECT_GT(h.tiers[Tier::kMiss], 0);
}

// One walk set per case, each with its own seed, cache and hints. The
// OnPropagate and OnPortfolio names date from when these seeds drove the
// since-deleted propagate and portfolio cores; all three now run the one
// backtracking core, with steps compared.
TEST(IncrementalContextDifferential, MatchesScratchReferenceOnBacktrack) {
  RunWalks(11, 80);
}

TEST(IncrementalContextDifferential, MatchesScratchReferenceOnPropagate) {
  RunWalks(12, 80);
}

TEST(IncrementalContextDifferential, MatchesScratchReferenceOnPortfolio) {
  RunWalks(13, 80);
}

TEST(IncrementalContextDifferential, ConcatBitsOutsideTheLanesAreASearchUnsat) {
  // The decomposition's constant-false is found by the search tier, not
  // the wipeout: no single byte's domain is empty.
  InternScope intern;
  SolverCache cache;
  SolveContext ctx;
  ctx.Apply(Bin(vm::Op::kCmpEq, Concat({0, 1}), C(0x10000)));
  EXPECT_FALSE(ctx.known_unsat());
  EXPECT_TRUE(ctx.derived_false());
  const SolveResult r = cache.Solve(ctx, {}, {});
  EXPECT_EQ(r.status, SolveStatus::kUnsat);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().subsumption_hits, 0u);
}

TEST(IncrementalContextDifferential, SpeculativeNodeExtendsTheExactKey) {
  InternScope intern;
  SolverCache cache;
  SolveContext ctx;
  ctx.Apply(Bin(vm::Op::kCmpLtU, In(0), C(9)));
  ASSERT_EQ(cache.Solve(ctx, {}, {}).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().model_reuse_hits, 1u);  // all-zero candidate
  // The path with a branch constraint is a different query from the
  // path alone, and the same query as the path after committing it.
  const ExprRef branch = Bin(vm::Op::kCmpLtU, In(0), In(1));
  ASSERT_EQ(cache.Solve(ctx, {}, {}, &branch).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().exact_hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  ctx.Apply(branch);
  ASSERT_EQ(cache.Solve(ctx, {}, {}).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  // Re-asserting a constraint leaves the query unchanged.
  ctx.Apply(branch);
  const ExprRef again = branch;
  ASSERT_EQ(cache.Solve(ctx, {}, {}, &again).status, SolveStatus::kSat);
  EXPECT_EQ(cache.stats().exact_hits, 2u);
}

TEST(IncrementalContextDifferential, ForkedContextsAppendOnTwoThreads) {
  // Frontier workers hold sibling states whose contexts share their
  // prefix copy-on-write; each appends and queries on its own thread
  // through its own cache. Every answer must equal the reference's.
  SharedInternTable table;
  SharedInternBinding bind(table);
  std::mt19937 rng(77);
  Model truth;
  for (std::uint32_t v = 0; v < kVars; ++v) {
    truth[v] = static_cast<std::uint8_t>(rng());
  }
  PathState root;
  for (int i = 0; i < 12; ++i) {
    const ExprRef c = RandomConstraint(rng, truth);
    NotePin(c, &root.pins);
    root.constraints.push_back(c);
    root.ctx.Apply(c);
  }
  std::vector<std::vector<ExprRef>> suffix(2);
  for (auto& s : suffix) {
    for (int i = 0; i < 12; ++i) s.push_back(RandomConstraint(rng, truth));
  }

  struct Run {
    PathState state;
    std::vector<SolveResult> answers;
  };
  std::vector<Run> runs(2, Run{root, {}});
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      SharedInternBinding worker_bind(table);
      SolverCache cache;
      SolverOptions options;
      PathState& p = runs[t].state;
      for (const ExprRef& c : suffix[t]) {
        NotePin(c, &p.pins);
        p.constraints.push_back(c);
        p.ctx.Apply(c);
        options.context = &p.ctx;
        runs[t].answers.push_back(cache.Solve(p.ctx, p.pins, options));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < 2; ++t) {
    ScratchCache reference;
    std::vector<Model> pool;
    std::vector<ExprRef> path = root.constraints;
    Model pins = root.pins;
    for (std::size_t i = 0; i < suffix[t].size(); ++i) {
      path.push_back(suffix[t][i]);
      NotePin(suffix[t][i], &pins);
      const Answer want =
          reference.Solve(path, nullptr, pins, {}, nullptr, &pool);
      EXPECT_EQ(runs[t].answers[i].status, want.result.status)
          << "thread " << t << " query " << i;
      EXPECT_EQ(runs[t].answers[i].model, want.result.model)
          << "thread " << t << " query " << i;
    }
  }
}

}  // namespace
}  // namespace octopocs::symex

// Incremental per-state solve context: the normalized path condition.
//
// Every solver query the executor issues is the state's own path
// condition, optionally extended by one speculative branch constraint,
// and sibling states share a long constraint prefix. A SolveContext
// holds everything the solver cache derives from that prefix, updated
// once per appended constraint (Apply) and forked with the state via
// copy-on-write:
//
//   - the normalized sequence: first occurrences of the applied nodes,
//     constants dropped, with its running FNV-1a hash (the exact-memo
//     key) and node membership;
//   - per input byte, a 256-bit domain folding every unary constraint on
//     it (256 evaluations once, here, instead of once per query), plus
//     the positions of those constraints in the sequence;
//   - the multi-variable ("coupled") constraints and the bytes they
//     mention;
//   - the concat-equality decomposition of every applied node (the byte
//     equalities ByteSolver derives from "field == K"), done once.
//
// A query then costs its new constraint, the coupled residue and the
// model, not the path (DESIGN.md §10.3). The context also keeps the
// state's reuse pool of recent models.
//
// Determinism contract: the context is a pure function of the applied
// sequence, and every answer it accelerates is bit-identical to
// normalizing the full sequence from scratch — so cached solver results
// stay pure functions of the constraint sequence whoever's context
// accelerated them. See DESIGN.md §10.
//
// A wiped-out domain sets known_unsat() but deliberately does NOT kill
// the state eagerly: the executor discovers unsatisfiability at its next
// solve, exactly where a from-scratch search would, keeping state
// classification identical to the unaccelerated execution.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "symex/cow.h"
#include "symex/expr.h"

namespace octopocs::symex {

/// Set of allowed values for one input byte, as a 256-bit mask.
struct ByteDomain {
  std::array<std::uint64_t, 4> bits{~0ull, ~0ull, ~0ull, ~0ull};

  bool Test(unsigned v) const { return (bits[v >> 6] >> (v & 63)) & 1; }
  void Reset(unsigned v) { bits[v >> 6] &= ~(1ull << (v & 63)); }

  bool None() const {
    return (bits[0] | bits[1] | bits[2] | bits[3]) == 0;
  }

  /// Smallest allowed value; precondition: !None().
  unsigned Lowest() const {
    for (unsigned w = 0; w < 4; ++w) {
      if (bits[w] != 0) return w * 64 + __builtin_ctzll(bits[w]);
    }
    return 0;
  }

  int Count() const {
    int n = 0;
    for (const std::uint64_t w : bits) n += __builtin_popcountll(w);
    return n;
  }
};

/// Clears from `domain` every value of input byte `var` under which the
/// unary `constraint` (whose only free variable is `var`) evaluates to
/// zero: the 256-probe filtering both the context and the solver's
/// unary-only fast path apply.
inline void FilterUnary(const ExprRef& constraint, std::uint32_t var,
                        ByteDomain* domain) {
  Model probe;
  std::uint8_t& cell = probe[var];
  for (unsigned v = 0; v < 256; ++v) {
    if (!domain->Test(v)) continue;
    cell = static_cast<std::uint8_t>(v);
    if (Eval(constraint, probe) == 0) domain->Reset(v);
  }
}

/// If `constraint` is CmpEq(concat, K) — a little-endian byte
/// concatenation of distinct input bytes, the shape LoadWide builds —
/// appends the per-byte equalities to `out` (or a constant-false when K
/// has bits outside the lanes) and returns true. The solver's key
/// propagation rule: "magic/field == K" becomes unit propagation instead
/// of a 256^n search.
bool DecomposeConcatEquality(const ExprRef& constraint,
                             std::vector<ExprRef>* out);

/// One step of the FNV-1a hash over node addresses that keys the exact
/// memo.
inline std::uint64_t FnvStep(std::uint64_t h, const Expr* node) {
  h ^= reinterpret_cast<std::uintptr_t>(node);
  return h * 0x100000001b3ull;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

class SolveContext {
 public:
  struct VarEntry {
    ByteDomain domain;
    /// Unary constraints already folded into `domain`, sorted by node
    /// address so the solver can subtract them from a query's unary set
    /// with a binary search.
    std::vector<const Expr*> applied;
    /// Positions in sequence() of the same constraints, ascending.
    std::vector<std::uint32_t> at;
  };
  using DomainMap = std::map<std::uint32_t, VarEntry>;
  /// A derived byte equality and its index in the decomposition order
  /// (the order ByteSolver appends derived equalities in).
  using Derived = std::pair<std::uint32_t, ExprRef>;

  /// Appends `constraint` to the path condition. A node already applied
  /// only re-asserts itself: the normalized sequence, and every answer,
  /// keeps its first occurrence. Precondition for use as a solve
  /// context: the constraints applied here are exactly the path
  /// condition the queries are about (the executor applies the state's
  /// own constraints, in order).
  void Apply(const ExprRef& constraint);

  /// Whether `node` (non-constant) is already in the sequence.
  bool Contains(const ExprRef& node) const;

  /// Filtered domain for `var`, or nullptr when no unary constraint
  /// mentions it yet.
  const VarEntry* Find(std::uint32_t var) const {
    const DomainMap& map = path_->domains;
    const auto it = map.find(var);
    return it == map.end() ? nullptr : &it->second;
  }

  /// Every byte some applied unary constraint mentions.
  const DomainMap& domains() const { return path_->domains; }
  /// The normalized sequence: applied nodes, first occurrences, in order.
  const std::vector<ExprRef>& sequence() const { return path_->sequence; }
  /// FNV-1a over sequence()'s node addresses.
  std::uint64_t hash() const { return hash_; }
  /// Positions in sequence() of the nodes with zero or several free
  /// variables, ascending.
  const std::vector<std::uint32_t>& coupled() const { return path_->coupled; }
  /// Sorted bytes the multi-variable constraints mention.
  const std::vector<std::uint32_t>& coupled_vars() const {
    return path_->coupled_vars;
  }
  /// Derived byte equalities on `var`, in decomposition order, or
  /// nullptr.
  const std::vector<Derived>* DerivedOn(std::uint32_t var) const {
    const auto& map = path_->derived;
    const auto it = map.find(var);
    return it == map.end() ? nullptr : &it->second;
  }
  /// Number of derived equalities so far (the next one's index).
  std::uint32_t derived_count() const { return path_->derived_count; }

  /// Some applied constraint admits no value for its variable: every
  /// superset query is unsatisfiable.
  bool known_unsat() const { return known_unsat_; }
  /// A constant-false constraint was applied: every query is trivially
  /// unsatisfiable.
  bool has_false() const { return has_false_; }
  /// Some applied concat equality decomposed to constant-false (its
  /// constant has bits outside the lanes): the fresh search answers
  /// kUnsat without searching.
  bool derived_false() const { return derived_false_; }

  /// Per-state reuse pool of models that satisfied this state's past
  /// queries (newest last, deduplicated, capped). Keeping the pool on
  /// the state — instead of a global history — makes model-reuse answers
  /// a pure function of the state, which is what lets frontier workers
  /// replay a serial run bit-for-bit.
  void NoteModel(const Model& model) {
    for (const Model& m : models_.get()) {
      if (m == model) return;
    }
    std::vector<Model>& pool = models_.mut();
    pool.push_back(model);
    if (pool.size() > kMaxModels) pool.erase(pool.begin());
  }

  const std::vector<Model>& recent_models() const { return models_.get(); }

  std::size_t FootprintBytes() const;

 private:
  static constexpr std::size_t kMaxModels = 4;

  /// Everything Apply maintains that grows with the path, shared with
  /// forked siblings until one of them appends.
  struct Path {
    DomainMap domains;
    std::vector<ExprRef> sequence;
    std::vector<std::uint32_t> coupled;
    /// Node addresses of `coupled`, sorted: their membership test.
    std::vector<const Expr*> coupled_nodes;
    std::vector<std::uint32_t> coupled_vars;
    std::map<std::uint32_t, std::vector<Derived>> derived;
    std::uint32_t derived_count = 0;
  };

  Cow<Path> path_;
  Cow<std::vector<Model>> models_;
  std::uint64_t hash_ = kFnvBasis;
  bool known_unsat_ = false;
  bool has_false_ = false;
  bool derived_false_ = false;
};

}  // namespace octopocs::symex

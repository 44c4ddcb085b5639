// Constraint solver over symbolic input bytes (the SMT-solver substitute).
//
// Every variable is one byte of the symbolic PoC file (domain 0..255),
// and a constraint is an expression that must evaluate nonzero. That
// restriction — inherited from the MiniVM's byte-level file model — lets
// a classic CSP search be *complete*: domain filtering on constraints
// with a single unassigned variable, most-constrained-variable-first
// branching, and chronological backtracking. The solver reports:
//
//   kSat      — a model (byte assignment) satisfying every constraint;
//   kUnsat    — exhaustive search proved no model exists (this verdict
//               is what turns into the paper's Type-III "vulnerability
//               not triggerable" result, so completeness matters);
//   kUnknown  — the step budget ran out (surfaced as a tooling Failure,
//               like an SMT timeout would be);
//   kCancelled — the caller's wall-clock CancelToken tripped mid-search.
//               Distinct from kUnknown so callers can tell "ran out of
//               steps, a bigger budget might help" from "out of time,
//               stop the whole phase" — only the former is worth a
//               doubled-budget retry, and a cancelled verdict must never
//               enter the SolverCache.
//
// ByteSolver preprocesses each system (dedup, concat-equality
// decomposition, constant screening) and then splits it: every byte no
// multi-variable constraint mentions is its own independence component,
// answered without search from its filtered domain (SolveContext seed
// plus any unapplied unary constraint) — the hint when the domain allows
// it, else the lowest allowed value, which is exactly what a monolithic
// search would pick; an empty domain is kUnsat. Only the coupled residue
// reaches the search core, BacktrackSearch (solver_backtrack.cpp), so
// `steps` count the residue search alone (DESIGN.md §10.1, §15). Its
// verdicts are held to a brute-force enumerator over small systems in
// tests/solver_oracle_test.cpp.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/deadline.h"
#include "symex/expr.h"
#include "symex/solve_context.h"

namespace octopocs::symex {

enum class SolveStatus : std::uint8_t { kSat, kUnsat, kUnknown, kCancelled };

struct SolveResult {
  SolveStatus status = SolveStatus::kUnknown;
  /// Total model over the constrained variables (unconstrained bytes are
  /// absent and default to 0). Valid when status == kSat.
  Model model;
  /// Search effort (diagnostics; feeds the Table IV cost columns).
  std::uint64_t steps = 0;
};

struct SolverOptions {
  /// Backtracking-step budget before giving up with kUnknown.
  std::uint64_t max_steps = 2'000'000;
  /// Value-ordering hints: when a variable has a hinted value inside its
  /// filtered domain, that value is tried first. OCTOPOCS hints with the
  /// original PoC's bytes so the reformed PoC stays as close to the
  /// original as the constraints allow (Type-I guiding inputs survive
  /// verbatim).
  Model hints;
  /// Cooperative wall-clock bound, polled inside the search loops.
  /// Tripping aborts with kCancelled.
  support::CancelToken cancel;
  /// Optional incremental prefix state: seeds the search's per-variable
  /// domains with filtering work the owning state already did, instead
  /// of re-evaluating each applied unary constraint 256 times per query.
  /// Results are bit-identical with or without a context (the search
  /// always prefilters every unary constraint; the context only skips
  /// evaluations whose outcome it has already recorded).
  const SolveContext* context = nullptr;
};

/// The complete search core. Receives the *preprocessed* constraint
/// system (deduplicated, concat equalities decomposed, constant-false
/// screened by ByteSolver) and branches on the smallest filtered domain,
/// hint first, then ascending values. For definitive statuses the result
/// is a pure function of (constraints, options.hints) — options.context
/// only skips filtering work — which is what lets SolverCache memoize it.
SolveResult BacktrackSearch(const std::vector<ExprRef>& constraints,
                            const SolverOptions& options);

class ByteSolver {
 public:
  explicit ByteSolver(SolverOptions options = {})
      : options_(std::move(options)) {}

  /// Adds a constraint: `expr` must evaluate nonzero.
  void Add(ExprRef expr);

  /// Adds `expr == value` (sugar for the dominant bunch-pinning form).
  void AddEq(ExprRef expr, std::uint64_t value);

  /// Pre-assigns a variable (pinned byte). Conflicting pins make the
  /// system unsatisfiable.
  void Pin(std::uint32_t offset, std::uint8_t value);

  std::size_t constraint_count() const { return constraints_.size(); }

  /// Complete search. Stateless w.r.t. previous Solve calls.
  SolveResult Solve() const;

  /// Satisfiability of (current constraints + extra): preprocesses,
  /// answers the unary-only bytes without search, and sends the coupled
  /// residue to BacktrackSearch. Status and model equal the monolithic
  /// BacktrackSearch of the preprocessed system whenever that one is
  /// definitive; `steps` count the residue.
  SolveResult SolveWith(const std::vector<ExprRef>& extra) const;

 private:
  SolverOptions options_;
  std::vector<ExprRef> constraints_;
  Model pins_;
};

/// Memoizes ByteSolver verdicts across the repeated feasibility and
/// concretization queries a directed executor issues along shared path
/// prefixes. A query is a state's SolveContext — its normalized path
/// condition, maintained incrementally as constraints are appended —
/// plus at most one speculative branch constraint. The tiers, in order,
/// all sound by construction:
///
///   exact memo    keyed by the normalized sequence of constraint node
///                 addresses: the context's running hash, extended by the
///                 speculative node; keys are compared only on a bucket
///                 hit. Forked states share the pointed-to nodes and
///                 interning canonicalizes structurally-equal nodes, so
///                 an exact hit is *provably* the same query; it may
///                 return any verdict, including kUnsat.
///   wipeout       the context's known_unsat(): an applied unary
///                 constraint set admits no value for some byte, an UNSAT
///                 subset of every query over this context.
///                 Verdict-only: no model is fabricated, and SAT can
///                 never come from this path.
///   model reuse   a path extends its prefix by appending constraints,
///                 so the sequence key misses — but a model that
///                 satisfied the prefix often still satisfies the
///                 extension. Each candidate (the state's recent models,
///                 newest first, then none) overlays the caller's pinned
///                 bytes and the hints, and is certified against the full
///                 query: folded unary constraints by one domain test per
///                 unpinned byte (pinned bytes are tested once per
///                 query), the coupled constraints and the speculative
///                 one by evaluation. Only the winner is materialized as
///                 a Model. kUnsat can never come from reuse.
///   residue       a miss: the unary-only bytes are answered from the
///                 context's domains and only the coupled residue — the
///                 coupled constraints, the unary and derived byte
///                 equalities on the bytes they touch, in ByteSolver's
///                 preprocessed order — goes to BacktrackSearch.
///
/// Every status, first model, tier and step count equals what
/// normalizing the full sequence from scratch and running the same tiers
/// over ByteSolver::SolveWith answers (the IncrementalContextDifferential
/// tests hold the two side by side).
///
/// The cache must not outlive the expressions it indexes: one cache per
/// executor run (per frontier worker), like the interning scope whose
/// lifetime it matches.
class SolverCache {
 public:
  struct Stats {
    /// Totals: hits + misses == Solve() queries (trivially constant
    /// queries short-circuit before counting).
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Per-mechanism breakdown of `hits`.
    std::uint64_t exact_hits = 0;
    std::uint64_t model_reuse_hits = 0;
    std::uint64_t subsumption_hits = 0;
  };

  /// Answers the path condition `path` holds, extended by `speculative`
  /// when non-null, through exact memo → wipeout → certified model reuse
  /// → residue search. `pins` are the caller's forced byte values (each
  /// also an applied equality) and `options.hints` the solver's value
  /// preferences: a reuse candidate takes, per byte, pins > cached model
  /// > hints, mirroring what a fresh hint-guided search tries first, and
  /// covers only the bytes the query mentions. The search runs with
  /// `options` as given when `options.context` is `&path` — the executor
  /// points its per-worker options at the asking state — and on a copy
  /// pointed there otherwise. kSat/kUnsat results are memoized; kUnknown
  /// is not (a larger budget could improve it) and kCancelled never is.
  /// SAT models join the context's reuse pool. The result is a pure
  /// function of (sequence, speculative, pins, hints) — see DESIGN.md §10.
  SolveResult Solve(SolveContext& path, const Model& pins,
                    const SolverOptions& options,
                    const ExprRef* speculative = nullptr);

  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::vector<const Expr*> key;
    SolveResult result;
  };

  bool TryModelReuse(const SolveContext& path, const ExprRef* extra,
                     const Model& pins, const Model& hints,
                     Model* out) const;

  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_;
  Stats stats_;
};

}  // namespace octopocs::symex

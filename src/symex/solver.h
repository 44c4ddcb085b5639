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
// reaches a search core, so `steps` count the residue search alone
// (DESIGN.md §10.1).
//
// Two search cores implement the same decision procedure behind the
// SolverBackend interface (DESIGN.md §15):
//
//   backtrack — the original recursive search over std::array<bool,256>
//               domains with tree-walking Eval. Kept verbatim as the
//               A/B oracle: slow, simple, trusted.
//   propagate — watched-domain propagation over 256-bit ByteDomain
//               masks with constraints compiled to straight-line
//               programs, plus conflict-driven nogood recording. Same
//               decision tree (variable order, value order, filtering
//               strength) as the backtracker by construction, so both
//               return the identical first model and identical kUnsat
//               verdicts; only step counts differ.
//   portfolio — races both cores on two threads; the first definitive
//               (kSat/kUnsat) answer wins and cancels the loser.
//               Deterministic because the cores are answer-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
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

/// Which search core answers queries. Never part of any artifact or
/// cache key: backends are answer-identical, so the choice is an
/// observability/performance knob like vm::DispatchMode (DESIGN.md §15).
enum class SolverBackendKind : std::uint8_t {
  kBacktrack,
  kPropagate,
  kPortfolio,
};

/// CLI spelling ("backtrack" | "propagate" | "portfolio"), or nullopt.
std::optional<SolverBackendKind> ParseSolverBackend(std::string_view name);
const char* SolverBackendName(SolverBackendKind kind);

/// Conflict-driven nogoods recorded by the propagate core.
///
/// A nogood is a set of (variable, value) decision literals L plus the
/// constraint set D (sorted node addresses) under which the search
/// proved "D ∧ L has no model" by exhausting the subtree below L. It is
/// sound to prune a branch of any later query Q ⊇ D whose partial
/// assignment extends L: every total extension would satisfy D and L,
/// contradicting the recorded proof. That subset applicability is what
/// lets nogoods survive across the re-solves P3 issues as it extends a
/// path's constraint prefix at each ep encounter: UNSAT-subset
/// subsumption at sub-branch granularity.
///
/// Pruned subtrees are provably model-free, so recording and consulting
/// nogoods cannot change which model a complete search finds first, nor
/// flip kUnsat — only shrink the explored tree.
class NogoodStore {
 public:
  using Literal = std::pair<std::uint32_t, std::uint8_t>;  // (offset, value)

  struct Nogood {
    std::vector<Literal> literals;    // sorted by offset
    std::vector<const Expr*> deps;    // sorted-unique node addresses
  };

  /// Records "deps ∧ literals is model-free". `literals` must be sorted
  /// by offset, `deps` sorted-unique. Duplicates (same literals with a
  /// dependency superset of a stored entry) are dropped; the store stops
  /// accepting once full.
  void Record(std::vector<Literal> literals, std::vector<const Expr*> deps);

  const std::vector<Nogood>& all() const { return nogoods_; }
  std::size_t size() const { return nogoods_.size(); }

  /// Bound on stored nogoods: keeps the per-query applicability scan and
  /// the store's footprint O(1) in the length of a P3 run.
  static constexpr std::size_t kMaxNogoods = 256;

 private:
  std::vector<Nogood> nogoods_;
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
  /// Search core selection. Excluded from every cache and artifact key —
  /// backends are answer-identical by construction.
  SolverBackendKind backend = SolverBackendKind::kPropagate;
  /// Optional cross-query nogood store, consulted and extended by the
  /// propagate core (the backtrack oracle ignores it). The SolverCache
  /// owns one per executor worker, matching the interning scope the
  /// recorded node addresses live in.
  NogoodStore* nogoods = nullptr;
};

/// One complete search core. `Solve` receives the *preprocessed*
/// constraint system (deduplicated, concat equalities decomposed,
/// constant-false screened by ByteSolver) and must be a pure function of
/// (constraints, options.hints, options.context) for definitive
/// statuses — that purity is what makes backend choice cache-invisible.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;
  virtual const char* name() const = 0;
  virtual SolveResult Solve(const std::vector<ExprRef>& constraints,
                            const SolverOptions& options) const = 0;
};

/// Singleton accessor for the cores (and the portfolio composition).
const SolverBackend& GetSolverBackend(SolverBackendKind kind);

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
  /// residue to the configured backend. Status and model equal the
  /// monolithic GetSolverBackend(backend).Solve of the preprocessed
  /// system whenever that one is definitive; `steps` count the residue.
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
///                 preprocessed order — goes to the configured backend.
///
/// Every status, first model, tier and step count equals what
/// normalizing the full sequence from scratch and running the same tiers
/// over ByteSolver::SolveWith answers (the IncrementalContextDifferential
/// tests hold the two side by side).
///
/// The cache additionally owns the cross-query NogoodStore the
/// propagate backend feeds, scoped like everything else here to one
/// executor run.
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
  /// `options` as given when `options.context` is `&path` and
  /// `options.nogoods` is nogoods() — the executor wires its per-worker
  /// options once — and on a wired copy otherwise. kSat/kUnsat results
  /// are memoized; kUnknown is not (a larger budget could improve it) and
  /// kCancelled never is. SAT models join the context's reuse pool. The
  /// result is a pure function of (sequence, speculative, pins, hints) —
  /// see DESIGN.md §10.
  SolveResult Solve(SolveContext& path, const Model& pins,
                    const SolverOptions& options,
                    const ExprRef* speculative = nullptr);

  const Stats& stats() const { return stats_; }

  /// Nogoods recorded by fresh propagate-backend solves through this
  /// cache; survives across queries for the cache's lifetime.
  NogoodStore& nogoods() { return nogoods_; }

 private:
  struct Entry {
    std::vector<const Expr*> key;
    SolveResult result;
  };

  bool TryModelReuse(const SolveContext& path, const ExprRef* extra,
                     const Model& pins, const Model& hints,
                     Model* out) const;

  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_;
  NogoodStore nogoods_;
  Stats stats_;
};

}  // namespace octopocs::symex

// The propagation-first search core (DESIGN.md §15).
//
// Same decision procedure as the backtrack oracle — identical variable
// order (smallest filtered domain, lowest dense index on ties),
// identical value order (PoC-byte hint first, then ascending), identical
// filtering strength (unit constraints only) — so both cores return the
// same first model and the same kUnsat verdicts on every input. The
// speed comes from mechanics, not search-order cleverness:
//
//   compiled constraints   each constraint's expression DAG is lowered
//                          once per query into a straight-line program
//                          over a dense value array, replacing the
//                          recursive shared_ptr walk with std::map
//                          lookups that dominated the oracle's probes;
//   ByteDomain masks       domains are 256-bit masks (4 words), so the
//                          backtracking trail copies 32 bytes instead
//                          of a 256-entry bool array, and value
//                          iteration is count-trailing-zeros;
//   watched counters       constraints watch their unassigned-variable
//                          count; an assignment enqueues only the
//                          constraints of that variable, and a
//                          constraint filters only when it drops to a
//                          single watched variable (unchanged from the
//                          oracle, which already propagated this way —
//                          stated here because it is the invariant the
//                          nogood machinery leans on);
//   nogood pruning         exhausted decision subtrees record their
//                          (var, value) decision prefix in the caller's
//                          NogoodStore; later decisions whose partial
//                          assignment would re-enter a recorded
//                          model-free subtree are skipped. Nogoods only
//                          ever prune branches proven empty, so they
//                          cannot change the first model found or
//                          weaken kUnsat completeness.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "symex/solver_backends.h"

namespace octopocs::symex {

namespace {

/// Expression DAG lowered to a straight-line program: node i computes
/// into scratch[i] from already-computed children, Input leaves read the
/// search's dense value array (unassigned slots hold 0, matching Eval's
/// absent-reads-as-zero contract). Sharing in the DAG is preserved —
/// each distinct node evaluates once.
struct CompiledExpr {
  struct Node {
    ExprKind kind;
    vm::Op op;          // kBinOp
    std::uint32_t a = 0, b = 0;  // child scratch indices
    std::uint64_t value = 0;     // kConst
    std::uint32_t slot = 0;      // kInput: dense variable index
    std::uint8_t byte = 0;       // kExtract lane
  };
  std::vector<Node> nodes;  // topological; result is nodes.back()
};

std::uint32_t CompileNode(const Expr* e,
                          const std::map<std::uint32_t, std::size_t>& slots,
                          std::unordered_map<const Expr*, std::uint32_t>* memo,
                          CompiledExpr* out) {
  if (const auto it = memo->find(e); it != memo->end()) return it->second;
  CompiledExpr::Node node;
  node.kind = e->kind;
  switch (e->kind) {
    case ExprKind::kConst:
      node.value = e->value;
      break;
    case ExprKind::kInput:
      node.slot = static_cast<std::uint32_t>(slots.at(e->offset));
      break;
    case ExprKind::kBinOp:
      node.op = e->op;
      node.a = CompileNode(e->lhs.get(), slots, memo, out);
      node.b = CompileNode(e->rhs.get(), slots, memo, out);
      break;
    case ExprKind::kNot:
      node.a = CompileNode(e->lhs.get(), slots, memo, out);
      break;
    case ExprKind::kExtract:
      node.a = CompileNode(e->lhs.get(), slots, memo, out);
      node.byte = e->byte;
      break;
  }
  const auto idx = static_cast<std::uint32_t>(out->nodes.size());
  out->nodes.push_back(node);
  memo->emplace(e, idx);
  return idx;
}

std::uint64_t EvalCompiled(const CompiledExpr& ce, const std::uint8_t* vals,
                           std::uint64_t* scratch) {
  const CompiledExpr::Node* nodes = ce.nodes.data();
  const std::size_t n = ce.nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    const CompiledExpr::Node& nd = nodes[i];
    switch (nd.kind) {
      case ExprKind::kConst:
        scratch[i] = nd.value;
        break;
      case ExprKind::kInput:
        scratch[i] = vals[nd.slot];
        break;
      case ExprKind::kBinOp:
        scratch[i] = ApplyBinOp(nd.op, scratch[nd.a], scratch[nd.b]);
        break;
      case ExprKind::kNot:
        scratch[i] = ~scratch[nd.a];
        break;
      case ExprKind::kExtract:
        scratch[i] = (scratch[nd.a] >> (8 * nd.byte)) & 0xFF;
        break;
    }
  }
  return scratch[n - 1];
}

/// Ascending set-value iteration over a 256-bit domain mask.
template <typename F>
void ForEachValue(const ByteDomain& d, F&& f) {
  for (int w = 0; w < 4; ++w) {
    std::uint64_t bits = d.bits[w];
    while (bits != 0) {
      const int b = __builtin_ctzll(bits);
      bits &= bits - 1;
      f(w * 64 + b);
    }
  }
}

struct PropagateSearch {
  PropagateSearch(const std::vector<ExprRef>& constraints_in,
                  const SolverOptions& options)
      : constraints(constraints_in),
        hints(options.hints),
        max_steps(options.max_steps),
        cancel(options.cancel),
        ctx(options.context),
        store(options.nogoods) {}

  const std::vector<ExprRef>& constraints;
  const Model& hints;
  std::uint64_t max_steps;
  support::CancelToken cancel;  // local copy; poll counters are ours
  const SolveContext* ctx;
  NogoodStore* store;  // may be null (no recording, no pruning)
  std::uint64_t steps = 0;
  bool cancelled = false;

  bool Cancelled() {
    if (!cancelled && cancel.ShouldStop()) cancelled = true;
    return cancelled;
  }

  std::vector<std::uint32_t> vars;  // dense index → offset
  std::map<std::uint32_t, std::size_t> var_index;
  std::vector<std::vector<std::size_t>> var_constraints;
  std::vector<std::vector<std::size_t>> cvars;
  std::vector<std::size_t> unassigned_count;
  std::vector<CompiledExpr> compiled;
  std::vector<std::uint64_t> scratch;  // sized to the largest program

  std::vector<ByteDomain> domain;
  std::vector<int> domain_size;
  std::vector<int> assigned;        // -1 = unassigned, else the value
  std::vector<std::uint8_t> vals;   // dense values; unassigned read as 0
  std::vector<bool> prefiltered;

  /// Decision literals of the current branch, outermost first. This is
  /// what a nogood records: propagated assignments are implied by
  /// constraints ∧ decisions, so the decision prefix alone carries the
  /// whole proof and generalizes further.
  std::vector<std::pair<std::size_t, int>> decisions;

  /// Applicable nogoods (store entries whose dependency set is a subset
  /// of this query, plus any recorded mid-search), as dense literals,
  /// indexed by each contained literal.
  std::vector<std::vector<std::pair<std::size_t, int>>> active_nogoods;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_literal;
  std::vector<const Expr*> query_nodes;  // sorted-unique, the dep set

  struct TrailEntry {
    std::size_t var;
    ByteDomain saved_domain;
    int saved_size;
  };
  std::vector<TrailEntry> trail;
  std::vector<std::size_t> assign_trail;
  std::vector<std::size_t> count_trail;

  enum class Outcome { kSat, kUnsat, kBudget, kCancelled };

  static std::uint64_t LiteralKey(std::size_t var, int value) {
    return (static_cast<std::uint64_t>(var) << 8) |
           static_cast<std::uint64_t>(value);
  }

  void ActivateNogood(std::vector<std::pair<std::size_t, int>> lits) {
    const auto id = static_cast<std::uint32_t>(active_nogoods.size());
    active_nogoods.push_back(std::move(lits));
    for (const auto& [var, value] : active_nogoods.back()) {
      by_literal[LiteralKey(var, value)].push_back(id);
    }
  }

  /// True when trying `value` for `var` would close a recorded nogood:
  /// some active nogood contains (var, value) and every one of its other
  /// literals already holds in the current partial assignment. The
  /// subtree below is then provably model-free — skip it.
  bool NogoodBlocked(std::size_t var, int value) const {
    const auto it = by_literal.find(LiteralKey(var, value));
    if (it == by_literal.end()) return false;
    for (const std::uint32_t id : it->second) {
      bool all = true;
      for (const auto& [v2, val2] : active_nogoods[id]) {
        if (v2 == var) continue;
        if (assigned[v2] != val2) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
    return false;
  }

  /// On subtree exhaustion: the current decision prefix admits no model
  /// under this query's constraints. Activate it for the rest of this
  /// search and offer it to the cross-query store.
  void RecordPrefix() {
    if (decisions.empty()) return;
    ActivateNogood(decisions);
    if (store == nullptr) return;
    std::vector<NogoodStore::Literal> lits;
    lits.reserve(decisions.size());
    for (const auto& [var, value] : decisions) {
      lits.emplace_back(vars[var], static_cast<std::uint8_t>(value));
    }
    std::sort(lits.begin(), lits.end());
    store->Record(std::move(lits), query_nodes);
  }

  bool Init() {
    SortedSmallSet<std::uint32_t> all;
    cvars.resize(constraints.size());
    std::vector<SortedSmallSet<std::uint32_t>> cvar_sets(constraints.size());
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      CollectInputs(constraints[c], cvar_sets[c]);
      all.UnionWith(cvar_sets[c]);
    }
    vars.assign(all.begin(), all.end());
    for (std::size_t i = 0; i < vars.size(); ++i) var_index[vars[i]] = i;
    var_constraints.resize(vars.size());
    unassigned_count.resize(constraints.size());
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      for (const std::uint32_t off : cvar_sets[c]) {
        const std::size_t v = var_index[off];
        cvars[c].push_back(v);
        var_constraints[v].push_back(c);
      }
      unassigned_count[c] = cvars[c].size();
    }
    domain.assign(vars.size(), ByteDomain{});
    domain_size.assign(vars.size(), 256);
    assigned.assign(vars.size(), -1);
    vals.assign(vars.size(), 0);

    // Lower every constraint. Scratch is shared, sized to the largest.
    compiled.resize(constraints.size());
    std::size_t max_nodes = 0;
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      std::unordered_map<const Expr*, std::uint32_t> memo;
      CompileNode(constraints[c].get(), var_index, &memo, &compiled[c]);
      max_nodes = std::max(max_nodes, compiled[c].nodes.size());
    }
    scratch.resize(max_nodes);

    // Activate stored nogoods whose dependency constraints are all part
    // of this query (sorted-set inclusion: UNSAT-subset subsumption).
    query_nodes.reserve(constraints.size());
    for (const ExprRef& c : constraints) query_nodes.push_back(c.get());
    std::sort(query_nodes.begin(), query_nodes.end());
    query_nodes.erase(std::unique(query_nodes.begin(), query_nodes.end()),
                      query_nodes.end());
    if (store != nullptr) {
      for (const NogoodStore::Nogood& ng : store->all()) {
        if (ng.deps.size() > query_nodes.size() ||
            !std::includes(query_nodes.begin(), query_nodes.end(),
                           ng.deps.begin(), ng.deps.end())) {
          continue;
        }
        std::vector<std::pair<std::size_t, int>> lits;
        lits.reserve(ng.literals.size());
        bool mappable = true;
        for (const auto& [off, value] : ng.literals) {
          const auto it = var_index.find(off);
          if (it == var_index.end()) {  // dep vars ⊆ query vars; defensive
            mappable = false;
            break;
          }
          lits.emplace_back(it->second, value);
        }
        if (mappable) ActivateNogood(std::move(lits));
      }
    }

    // Unary prefilter, mirroring the oracle: fold every single-variable
    // constraint into the initial domain, seeding from the SolveContext
    // when it already applied some of them. The context stores
    // ByteDomain directly, so seeding is a mask copy here.
    prefiltered.assign(constraints.size(), false);
    for (std::size_t v = 0; v < vars.size(); ++v) {
      bool any_unary = false;
      for (const std::size_t c : var_constraints[v]) {
        if (cvars[c].size() == 1) {
          any_unary = true;
          break;
        }
      }
      if (!any_unary) continue;
      ByteDomain& dom = domain[v];
      const SolveContext::VarEntry* seed =
          ctx != nullptr ? ctx->Find(vars[v]) : nullptr;
      if (seed != nullptr) {
        dom = seed->domain;
        domain_size[v] = dom.Count();
      }
      for (const std::size_t c : var_constraints[v]) {
        if (cvars[c].size() != 1) continue;
        prefiltered[c] = true;
        if (seed != nullptr &&
            std::binary_search(seed->applied.begin(), seed->applied.end(),
                               constraints[c].get())) {
          continue;  // already folded into the seeded domain
        }
        int size = 0;
        ForEachValue(dom, [&](int value) {
          vals[v] = static_cast<std::uint8_t>(value);
          if (EvalCompiled(compiled[c], vals.data(), scratch.data()) != 0) {
            ++size;
          } else {
            dom.Reset(static_cast<unsigned>(value));
          }
        });
        vals[v] = 0;
        domain_size[v] = size;
      }
      if (domain_size[v] == 0) return false;
    }
    return true;
  }

  bool Assign(std::size_t v, int value) {
    assigned[v] = value;
    vals[v] = static_cast<std::uint8_t>(value);
    assign_trail.push_back(v);
    for (const std::size_t c : var_constraints[v]) {
      --unassigned_count[c];
      count_trail.push_back(c);
      if (unassigned_count[c] == 0) {
        ++steps;
        if (EvalCompiled(compiled[c], vals.data(), scratch.data()) == 0) {
          return false;
        }
      }
    }
    return true;
  }

  int FilterDomain(std::size_t v, std::size_t c) {
    ByteDomain& dom = domain[v];
    trail.push_back({v, dom, domain_size[v]});
    int size = 0;
    ForEachValue(dom, [&](int value) {
      ++steps;
      vals[v] = static_cast<std::uint8_t>(value);
      if (EvalCompiled(compiled[c], vals.data(), scratch.data()) != 0) {
        ++size;
      } else {
        dom.Reset(static_cast<unsigned>(value));
      }
    });
    vals[v] = 0;
    domain_size[v] = size;
    return size;
  }

  bool Propagate(std::deque<std::size_t> queue) {
    while (!queue.empty()) {
      if (steps > max_steps) return true;  // caller re-checks budget
      if (Cancelled()) return true;        // ditto for cancellation
      const std::size_t c = queue.front();
      queue.pop_front();
      if (unassigned_count[c] != 1) continue;
      std::size_t v = 0;
      for (const std::size_t cand : cvars[c]) {
        if (assigned[cand] < 0) {
          v = cand;
          break;
        }
      }
      const int size = FilterDomain(v, c);
      if (size == 0) return false;
      if (size == 1) {
        if (!Assign(v, static_cast<int>(domain[v].Lowest()))) return false;
        for (const std::size_t c2 : var_constraints[v]) {
          if (unassigned_count[c2] == 1) queue.push_back(c2);
        }
      }
    }
    return true;
  }

  std::deque<std::size_t> InitialUnits() {
    std::deque<std::size_t> queue;
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      if (unassigned_count[c] == 1 && !prefiltered[c]) queue.push_back(c);
    }
    return queue;
  }

  struct Checkpoint {
    std::size_t trail_size;
    std::size_t assign_trail_size;
    std::size_t count_trail_size;
  };

  Checkpoint Mark() const {
    return {trail.size(), assign_trail.size(), count_trail.size()};
  }

  void Rollback(const Checkpoint& cp) {
    while (count_trail.size() > cp.count_trail_size) {
      ++unassigned_count[count_trail.back()];
      count_trail.pop_back();
    }
    while (assign_trail.size() > cp.assign_trail_size) {
      const std::size_t v = assign_trail.back();
      assign_trail.pop_back();
      vals[v] = 0;
      assigned[v] = -1;
    }
    while (trail.size() > cp.trail_size) {
      TrailEntry& e = trail.back();
      domain[e.var] = e.saved_domain;
      domain_size[e.var] = e.saved_size;
      trail.pop_back();
    }
  }

  Outcome Run() {
    if (!Init()) return Outcome::kUnsat;
    if (!Propagate(InitialUnits())) return Outcome::kUnsat;
    if (cancelled) return Outcome::kCancelled;
    if (steps > max_steps) return Outcome::kBudget;
    return Backtrack();
  }

  Outcome Backtrack() {
    if (Cancelled()) return Outcome::kCancelled;
    if (steps > max_steps) return Outcome::kBudget;
    // Identical branching rule to the oracle: smallest domain, lowest
    // dense index on ties.
    std::size_t best = vars.size();
    for (std::size_t v = 0; v < vars.size(); ++v) {
      if (assigned[v] >= 0) continue;
      if (best == vars.size() || domain_size[v] < domain_size[best]) {
        best = v;
      }
    }
    if (best == vars.size()) return Outcome::kSat;

    // Identical value order: hint first, then ascending.
    std::vector<int> values;
    values.reserve(domain_size[best]);
    const auto hint = hints.find(vars[best]);
    if (hint != hints.end() &&
        domain[best].Test(static_cast<unsigned>(hint->second))) {
      values.push_back(hint->second);
    }
    ForEachValue(domain[best], [&](int value) {
      if (hint != hints.end() && value == hint->second) return;
      values.push_back(value);
    });

    for (const int value : values) {
      ++steps;
      if (Cancelled()) return Outcome::kCancelled;
      if (steps > max_steps) return Outcome::kBudget;
      // A closed nogood proves this branch model-free: skipping it
      // cannot change the first model or the kUnsat verdict.
      if (NogoodBlocked(best, value)) continue;
      const Checkpoint cp = Mark();
      decisions.emplace_back(best, value);
      std::deque<std::size_t> queue;
      bool ok = Assign(best, value);
      if (ok) {
        for (const std::size_t c : var_constraints[best]) {
          if (unassigned_count[c] == 1) queue.push_back(c);
        }
        ok = Propagate(std::move(queue));
      }
      if (ok && cancelled) return Outcome::kCancelled;
      if (ok && steps > max_steps) return Outcome::kBudget;
      if (ok) {
        const Outcome sub = Backtrack();
        if (sub != Outcome::kUnsat) return sub;
      }
      decisions.pop_back();
      Rollback(cp);
    }
    // Every value either failed under search or closed a recorded
    // nogood (itself a proof of emptiness): the whole subtree below the
    // current decision prefix is model-free. Only genuine exhaustion
    // reaches here — budget and cancellation return through the paths
    // above and never record.
    RecordPrefix();
    return Outcome::kUnsat;
  }

  Model TakeModel() const {
    Model model;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      model.emplace_hint(model.end(), vars[v],
                         static_cast<std::uint8_t>(assigned[v]));
    }
    return model;
  }
};

class PropagateBackend final : public SolverBackend {
 public:
  const char* name() const override { return "propagate"; }

  SolveResult Solve(const std::vector<ExprRef>& constraints,
                    const SolverOptions& options) const override {
    PropagateSearch search(constraints, options);
    const PropagateSearch::Outcome outcome = search.Run();
    SolveResult result;
    result.steps = search.steps;
    switch (outcome) {
      case PropagateSearch::Outcome::kSat:
        result.status = SolveStatus::kSat;
        result.model = search.TakeModel();
        break;
      case PropagateSearch::Outcome::kUnsat:
        result.status = SolveStatus::kUnsat;
        break;
      case PropagateSearch::Outcome::kBudget:
        result.status = SolveStatus::kUnknown;
        break;
      case PropagateSearch::Outcome::kCancelled:
        result.status = SolveStatus::kCancelled;
        break;
    }
    return result;
  }
};

}  // namespace

const SolverBackend& PropagateBackendInstance() {
  static const PropagateBackend backend;
  return backend;
}

void NogoodStore::Record(std::vector<Literal> literals,
                         std::vector<const Expr*> deps) {
  if (literals.empty()) return;
  // Drop entries a stored nogood already generalizes (same literals,
  // dependency subset). Linear scan: the store is small by design.
  for (const Nogood& ng : nogoods_) {
    if (ng.literals == literals && ng.deps.size() <= deps.size() &&
        std::includes(deps.begin(), deps.end(), ng.deps.begin(),
                      ng.deps.end())) {
      return;
    }
  }
  if (nogoods_.size() >= kMaxNogoods) {
    // Prefer short (general) nogoods: evict the longest stored entry
    // when the newcomer is strictly shorter, else drop the newcomer.
    auto longest = nogoods_.begin();
    for (auto it = nogoods_.begin(); it != nogoods_.end(); ++it) {
      if (it->literals.size() > longest->literals.size()) longest = it;
    }
    if (longest->literals.size() <= literals.size()) return;
    *longest = Nogood{std::move(literals), std::move(deps)};
    return;
  }
  nogoods_.push_back(Nogood{std::move(literals), std::move(deps)});
}

}  // namespace octopocs::symex

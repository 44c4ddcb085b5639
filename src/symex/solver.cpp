#include "symex/solver.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "support/fault.h"

namespace octopocs::symex {

void ByteSolver::Add(ExprRef expr) {
  // A constant constraint either disappears or poisons the system.
  if (expr->IsConst() && expr->value != 0) return;
  constraints_.push_back(std::move(expr));
}

void ByteSolver::AddEq(ExprRef expr, std::uint64_t value) {
  Add(MakeBinOp(vm::Op::kCmpEq, std::move(expr), MakeConst(value)));
}

void ByteSolver::Pin(std::uint32_t offset, std::uint8_t value) {
  AddEq(MakeInput(offset), value);
}

namespace {

/// The value a complete search keeps for a byte whose domain is fixed
/// before its first decision: the hint when the domain allows it, else
/// the lowest allowed value. Precondition: !domain.None().
std::uint8_t FirstValue(std::uint32_t var, const ByteDomain& domain,
                        const Model& hints) {
  const auto hint = hints.find(var);
  return hint != hints.end() && domain.Test(hint->second)
             ? hint->second
             : static_cast<std::uint8_t>(domain.Lowest());
}

/// Sends the coupled residue to the search core and merges the
/// unary-only bytes' values into a SAT model.
SolveResult SearchResidue(const std::vector<ExprRef>& residue, Model decided,
                          const SolverOptions& options) {
  SolveResult result;
  if (residue.empty()) {
    // The one cancellation poll the search makes on an empty system.
    support::CancelToken cancel = options.cancel;
    result.status =
        cancel.ShouldStop() ? SolveStatus::kCancelled : SolveStatus::kSat;
  } else {
    result = BacktrackSearch(residue, options);
  }
  if (result.status == SolveStatus::kSat) result.model.merge(decided);
  return result;
}

/// Solves `all` (the preprocessed system) one independence component at
/// a time where that costs nothing: every byte that no multi-variable
/// constraint mentions is answered here from its domain, and only the
/// coupled residue goes to the search (DESIGN.md §10.1).
///
/// A unary-only byte's domain is fixed before the search's first
/// decision (all its constraints are unary, so the prefilter folds them
/// all and propagation never reaches it), so every value left in it
/// satisfies every constraint on it. The monolithic search therefore
/// keeps the first value it tries for that byte — the hint when the
/// domain allows it, else the lowest allowed value — and backtracking
/// in the other components only re-walks the same subtrees under it.
/// The residue's first model and verdict are those of the residue's
/// own search, so the merged model is the monolithic first model, and
/// an empty unary-only domain is the monolithic prefilter's kUnsat.
/// Only `steps` differ: they count the residue search alone.
SolveResult SolveByComponents(const std::vector<ExprRef>& all,
                              const SolverOptions& options) {
  std::vector<std::uint32_t> coupled;
  for (const ExprRef& c : all) {
    const SortedSmallSet<std::uint32_t>& vars = FreeVars(c);
    if (vars.size() > 1) {
      coupled.insert(coupled.end(), vars.begin(), vars.end());
    }
  }
  std::sort(coupled.begin(), coupled.end());
  coupled.erase(std::unique(coupled.begin(), coupled.end()), coupled.end());

  // Zero-variable constraints stay in the residue with the coupled
  // ones: whatever the search does with them, it does unchanged.
  std::vector<ExprRef> residue;
  std::vector<std::pair<std::uint32_t, std::size_t>> unary;  // (var, index)
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SortedSmallSet<std::uint32_t>& vars = FreeVars(all[i]);
    if (vars.size() == 1 &&
        !std::binary_search(coupled.begin(), coupled.end(), *vars.begin())) {
      unary.emplace_back(*vars.begin(), i);
    } else {
      residue.push_back(all[i]);
    }
  }
  std::sort(unary.begin(), unary.end());

  SolveResult result;
  Model decided;
  for (std::size_t i = 0; i < unary.size();) {
    const std::uint32_t var = unary[i].first;
    const SolveContext::VarEntry* seed =
        options.context != nullptr ? options.context->Find(var) : nullptr;
    ByteDomain domain = seed != nullptr ? seed->domain : ByteDomain{};
    for (; i < unary.size() && unary[i].first == var; ++i) {
      const ExprRef& c = all[unary[i].second];
      if (seed == nullptr ||
          !std::binary_search(seed->applied.begin(), seed->applied.end(),
                              c.get())) {
        FilterUnary(c, var, &domain);
      }
    }
    if (domain.None()) {
      result.status = SolveStatus::kUnsat;
      return result;
    }
    decided.emplace_hint(decided.end(), var,
                         FirstValue(var, domain, options.hints));
  }
  return SearchResidue(residue, std::move(decided), options);
}

}  // namespace

SolveResult ByteSolver::Solve() const { return SolveWith({}); }

SolveResult ByteSolver::SolveWith(const std::vector<ExprRef>& extra) const {
  support::fault::MaybeThrow(support::FaultSite::kSolverStep);
  std::vector<ExprRef> all = constraints_;
  bool poisoned = false;
  for (const ExprRef& e : extra) {
    if (e->IsConst()) {
      if (e->value == 0) poisoned = true;
      continue;
    }
    all.push_back(e);
  }
  // Interning canonicalizes structurally-equal constraints to one node,
  // so duplicates (the same pin re-asserted along a path, a re-built
  // guard) collapse under pointer identity before the search sees them.
  {
    std::unordered_set<const Expr*> seen;
    std::size_t kept = 0;
    for (ExprRef& e : all) {
      if (seen.insert(e.get()).second) all[kept++] = std::move(e);
    }
    all.resize(kept);
  }
  // Propagation pre-pass: decompose concat equalities into byte pins so
  // unit propagation starts from singleton domains for multi-byte
  // fields. Runs before the split, so the residue search sees the same
  // preprocessed system a monolithic search would.
  {
    std::vector<ExprRef> derived;
    for (const ExprRef& e : all) DecomposeConcatEquality(e, &derived);
    all.insert(all.end(), derived.begin(), derived.end());
  }
  SolveResult result;
  if (poisoned) {
    result.status = SolveStatus::kUnsat;
    return result;
  }
  for (const ExprRef& e : all) {
    if (e->IsConst() && e->value == 0) {
      result.status = SolveStatus::kUnsat;
      return result;
    }
  }
  return SolveByComponents(all, options_);
}

// -- SolverCache -------------------------------------------------------------

namespace {

/// The query's node-address key: the context's sequence, then `extra`.
std::vector<const Expr*> KeyOf(const SolveContext& path, const ExprRef* extra) {
  std::vector<const Expr*> key;
  key.reserve(path.sequence().size() + 1);
  for (const ExprRef& c : path.sequence()) key.push_back(c.get());
  if (extra != nullptr) key.push_back(extra->get());
  return key;
}

bool KeyEquals(const std::vector<const Expr*>& key, const SolveContext& path,
               const ExprRef* extra) {
  const std::vector<ExprRef>& seq = path.sequence();
  if (key.size() != seq.size() + (extra != nullptr ? 1 : 0)) return false;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (key[i] != seq[i].get()) return false;
  }
  return extra == nullptr || key.back() == extra->get();
}

/// Candidate value of `var`: pinned > reused model > hint; nullptr when
/// none has one (the byte evaluates as 0, the solver default).
const std::uint8_t* Pick(std::uint32_t var, const Model& pins,
                         const Model* reuse, const Model& hints) {
  for (const Model* source : {&pins, reuse, &hints}) {
    if (source == nullptr) continue;
    if (const auto it = source->find(var); it != source->end()) {
      return &it->second;
    }
  }
  return nullptr;
}

/// A miss: what ByteSolver::SolveWith answers for the context's sequence
/// plus `extra` from scratch, built from what the context maintains.
/// SolveWith's preprocessed system is the sequence followed by every
/// node's derived byte equalities; its split answers each byte no
/// multi-variable constraint mentions from its domain and searches the
/// rest in that order. Here the coupled bytes come from the context, the
/// residue is assembled from the positions it recorded for them, and the
/// unary-only bytes read their domains directly. A derived equality on
/// an unary-only byte comes from a single-lane unary constraint on that
/// byte, which accepts exactly the same values, so it is already folded.
SolveResult SolveResidue(const SolveContext& path, const ExprRef* extra,
                         const SolverOptions& options) {
  support::fault::MaybeThrow(support::FaultSite::kSolverStep);
  SolveResult result;
  std::vector<ExprRef> extra_derived;
  if (extra != nullptr) DecomposeConcatEquality(*extra, &extra_derived);
  bool derived_false = path.derived_false();
  for (const ExprRef& d : extra_derived) derived_false |= d->IsConst();
  if (derived_false) {
    result.status = SolveStatus::kUnsat;
    return result;
  }

  const std::size_t extra_arity =
      extra != nullptr ? FreeVars(*extra).size() : 0;
  const bool extra_unary = extra_arity == 1;
  const std::uint32_t extra_var =
      extra_unary ? *FreeVars(*extra).begin() : 0;
  const std::vector<std::uint32_t>* coupled = &path.coupled_vars();
  std::vector<std::uint32_t> widened;
  if (extra_arity > 1) {
    const SortedSmallSet<std::uint32_t>& vars = FreeVars(*extra);
    std::set_union(coupled->begin(), coupled->end(), vars.begin(), vars.end(),
                   std::back_inserter(widened));
    coupled = &widened;
  }
  const auto is_coupled = [&](std::uint32_t var) {
    return std::binary_search(coupled->begin(), coupled->end(), var);
  };

  // Residue slots keyed by SolveWith's order: sequence positions first
  // (the speculative node is position n), then derived equalities by
  // decomposition index.
  const std::vector<ExprRef>& seq = path.sequence();
  const std::uint64_t n = seq.size();
  constexpr std::uint64_t kDerived = 1ull << 32;
  std::vector<std::pair<std::uint64_t, const ExprRef*>> slots;
  for (const std::uint32_t pos : path.coupled()) {
    slots.emplace_back(pos, &seq[pos]);
  }
  if (extra != nullptr && !extra_unary) slots.emplace_back(n, extra);
  for (const std::uint32_t var : *coupled) {
    if (const SolveContext::VarEntry* entry = path.Find(var)) {
      for (const std::uint32_t pos : entry->at) {
        slots.emplace_back(pos, &seq[pos]);
      }
    }
    if (extra_unary && extra_var == var) slots.emplace_back(n, extra);
    if (const auto* derived = path.DerivedOn(var)) {
      for (const auto& [index, d] : *derived) {
        slots.emplace_back(kDerived + index, &d);
      }
    }
  }
  for (std::size_t k = 0; k < extra_derived.size(); ++k) {
    if (is_coupled(*FreeVars(extra_derived[k]).begin())) {
      slots.emplace_back(kDerived + path.derived_count() + k,
                         &extra_derived[k]);
    }
  }
  std::sort(slots.begin(), slots.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<ExprRef> residue;
  residue.reserve(slots.size());
  for (const auto& slot : slots) residue.push_back(*slot.second);

  Model decided;
  bool extra_decided = !extra_unary || is_coupled(extra_var);
  for (const auto& [var, entry] : path.domains()) {
    if (is_coupled(var)) continue;
    ByteDomain domain = entry.domain;
    if (extra_unary && var == extra_var) {
      FilterUnary(*extra, var, &domain);
      extra_decided = true;
    }
    if (domain.None()) {
      result.status = SolveStatus::kUnsat;
      return result;
    }
    decided.emplace_hint(decided.end(), var,
                         FirstValue(var, domain, options.hints));
  }
  if (!extra_decided) {  // a byte only the speculative node mentions
    ByteDomain domain;
    FilterUnary(*extra, extra_var, &domain);
    if (domain.None()) {
      result.status = SolveStatus::kUnsat;
      return result;
    }
    decided.emplace(extra_var, FirstValue(extra_var, domain, options.hints));
  }
  return SearchResidue(residue, std::move(decided), options);
}

}  // namespace

bool SolverCache::TryModelReuse(const SolveContext& path, const ExprRef* extra,
                                const Model& pins, const Model& hints,
                                Model* out) const {
  // Each candidate assigns every byte the query mentions and must
  // satisfy the whole query — a reuse hit is a certificate, never a
  // guess, and kUnsat can never come from this path. Per byte the
  // candidate takes the pinned value (the constraints force it), else
  // the cached model's, else the hint: the value a fresh hint-guided
  // search would try first. Candidates are the state's recent models,
  // newest first, then none, which captures a guiding path the original
  // PoC bytes already satisfy.
  //
  // Every constraint the context folded is a query member, so a byte's
  // domain is exactly the set of values all its unary constraints
  // accept: one test certifies them. A pinned byte has the same value in
  // every candidate, so it is tested once here; the coupled constraints
  // and the speculative one are evaluated per candidate.
  struct Tested {
    std::uint32_t var;
    const ByteDomain* domain;
    bool hint_ok;  // the value when the candidate's model lacks the byte
  };
  std::vector<Tested> tested;
  bool hints_ok = true;
  auto pin = pins.begin();
  for (const auto& [var, entry] : path.domains()) {
    while (pin != pins.end() && pin->first < var) ++pin;
    if (pin != pins.end() && pin->first == var) {
      if (!entry.domain.Test(pin->second)) return false;
      continue;
    }
    const auto hint = hints.find(var);
    const bool ok =
        entry.domain.Test(hint != hints.end() ? hint->second : 0);
    tested.push_back({var, &entry.domain, ok});
    hints_ok = hints_ok && ok;
  }

  std::vector<const ExprRef*> evaluated;
  const std::vector<ExprRef>& seq = path.sequence();
  for (const std::uint32_t pos : path.coupled()) evaluated.push_back(&seq[pos]);
  std::vector<std::uint32_t> eval_vars = path.coupled_vars();
  if (extra != nullptr) {
    evaluated.push_back(extra);
    const SortedSmallSet<std::uint32_t>& vars = FreeVars(*extra);
    std::vector<std::uint32_t> merged;
    std::set_union(eval_vars.begin(), eval_vars.end(), vars.begin(),
                   vars.end(), std::back_inserter(merged));
    eval_vars = std::move(merged);
  }

  const std::vector<Model>& pool = path.recent_models();
  for (std::size_t i = pool.size() + 1; i-- > 0;) {
    const Model* reuse = i == 0 ? nullptr : &pool[i - 1];
    bool satisfied = hints_ok;
    if (reuse != nullptr) {
      satisfied = true;
      auto it = reuse->begin();
      for (std::size_t t = 0; t < tested.size() && satisfied; ++t) {
        while (it != reuse->end() && it->first < tested[t].var) ++it;
        satisfied = it != reuse->end() && it->first == tested[t].var
                        ? tested[t].domain->Test(it->second)
                        : tested[t].hint_ok;
      }
    }
    if (!satisfied) continue;
    Model eval_model;
    for (const std::uint32_t var : eval_vars) {
      if (const std::uint8_t* value = Pick(var, pins, reuse, hints)) {
        eval_model.emplace_hint(eval_model.end(), var, *value);
      }
    }
    for (std::size_t c = 0; c < evaluated.size() && satisfied; ++c) {
      satisfied = Eval(*evaluated[c], eval_model) != 0;
    }
    if (!satisfied) continue;

    // The winner covers exactly the bytes the query mentions.
    std::vector<std::uint32_t> vars;
    vars.reserve(path.domains().size() + eval_vars.size());
    for (const auto& [var, entry] : path.domains()) vars.push_back(var);
    const auto mid = static_cast<std::ptrdiff_t>(vars.size());
    vars.insert(vars.end(), eval_vars.begin(), eval_vars.end());
    std::inplace_merge(vars.begin(), vars.begin() + mid, vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    Model candidate;
    for (const std::uint32_t var : vars) {
      if (const std::uint8_t* value = Pick(var, pins, reuse, hints)) {
        candidate.emplace_hint(candidate.end(), var, *value);
      }
    }
    *out = std::move(candidate);
    return true;
  }
  return false;
}

SolveResult SolverCache::Solve(SolveContext& path, const Model& pins,
                               const SolverOptions& options,
                               const ExprRef* speculative) {
  // Normalize the speculative node the way Apply normalizes the path:
  // a constant either vanishes or poisons the query, and a node already
  // in the sequence changes nothing.
  SolveResult out;
  const ExprRef* extra = speculative;
  if (extra != nullptr && (*extra)->IsConst()) {
    if ((*extra)->value == 0) {
      out.status = SolveStatus::kUnsat;
      return out;  // trivial; not worth a cache entry or a counter
    }
    extra = nullptr;
  }
  if (path.has_false()) {
    out.status = SolveStatus::kUnsat;
    return out;
  }
  if (extra != nullptr && path.Contains(*extra)) extra = nullptr;
  if (path.sequence().empty() && extra == nullptr) {
    out.status = SolveStatus::kSat;
    return out;  // vacuously satisfiable; not a cacheable query
  }

  // 1. Exact memo. Steps report the work done by *this* call, so a hit
  // contributes zero to the caller's search-effort accounting.
  std::uint64_t hash = path.hash();
  if (extra != nullptr) hash = FnvStep(hash, extra->get());
  if (const auto bucket = buckets_.find(hash); bucket != buckets_.end()) {
    for (const Entry& entry : bucket->second) {
      if (!KeyEquals(entry.key, path, extra)) continue;
      ++stats_.hits;
      ++stats_.exact_hits;
      out = entry.result;
      out.steps = 0;
      if (out.status == SolveStatus::kSat) path.NoteModel(out.model);
      return out;
    }
  }

  // 2. Wipeout: an applied unary constraint set with no model is an
  // UNSAT subset of this very query. Verdict-only — no model, no search.
  if (path.known_unsat()) {
    ++stats_.hits;
    ++stats_.subsumption_hits;
    out.status = SolveStatus::kUnsat;
    return out;
  }

  // 3. Certified model reuse from the state's own pool.
  Model candidate;
  if (TryModelReuse(path, extra, pins, options.hints, &candidate)) {
    ++stats_.hits;
    ++stats_.model_reuse_hits;
    out.status = SolveStatus::kSat;
    out.model = std::move(candidate);
    path.NoteModel(out.model);
    return out;
  }

  // 4. Residue search, seeded from this path's context.
  const SolverOptions* search = &options;
  SolverOptions wired;
  if (options.context != &path) {
    wired = options;
    wired.context = &path;
    search = &wired;
  }
  out = SolveResidue(path, extra, *search);
  ++stats_.misses;

  if (out.status == SolveStatus::kSat || out.status == SolveStatus::kUnsat) {
    buckets_[hash].push_back(Entry{KeyOf(path, extra), out});
    if (out.status == SolveStatus::kSat) path.NoteModel(out.model);
  }
  return out;
}

}  // namespace octopocs::symex

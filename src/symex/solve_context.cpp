#include "symex/solve_context.h"

namespace octopocs::symex {

namespace {

/// Tries to read `expr` as a little-endian byte concatenation — the
/// shape LoadWide builds: or(or(b0, shl(b1,8)), shl(b2,16))... Fills
/// lane→input-offset on success.
bool AsByteConcat(const ExprRef& expr, unsigned shift,
                  std::map<unsigned, std::uint32_t>* lanes) {
  switch (expr->kind) {
    case ExprKind::kInput: {
      if (shift % 8 != 0) return false;
      const unsigned lane = shift / 8;
      if (lanes->count(lane) != 0) return false;
      (*lanes)[lane] = expr->offset;
      return true;
    }
    case ExprKind::kBinOp:
      if (expr->op == vm::Op::kOr) {
        return AsByteConcat(expr->lhs, shift, lanes) &&
               AsByteConcat(expr->rhs, shift, lanes);
      }
      if (expr->op == vm::Op::kShl && expr->rhs->IsConst()) {
        return AsByteConcat(expr->lhs,
                            shift + static_cast<unsigned>(expr->rhs->value),
                            lanes);
      }
      return false;
    default:
      return false;
  }
}

template <typename T>
void InsertSorted(std::vector<T>* v, T x) {
  const auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it == v->end() || *it != x) v->insert(it, x);
}

}  // namespace

bool DecomposeConcatEquality(const ExprRef& constraint,
                             std::vector<ExprRef>* out) {
  if (constraint->kind != ExprKind::kBinOp ||
      constraint->op != vm::Op::kCmpEq) {
    return false;
  }
  ExprRef concat, konst;
  if (constraint->rhs->IsConst()) {
    concat = constraint->lhs;
    konst = constraint->rhs;
  } else if (constraint->lhs->IsConst()) {
    concat = constraint->rhs;
    konst = constraint->lhs;
  } else {
    return false;
  }
  std::map<unsigned, std::uint32_t> lanes;
  if (!AsByteConcat(concat, 0, &lanes) || lanes.empty()) return false;
  std::uint64_t covered = 0;
  SortedSmallSet<std::uint32_t> seen;
  for (const auto& [lane, offset] : lanes) {
    if (lane >= 8 || seen.Contains(offset)) return false;
    seen.Insert(offset);
    covered |= 0xFFull << (8 * lane);
  }
  if ((konst->value & ~covered) != 0) {
    out->push_back(MakeConst(0));  // impossible: bits outside any lane
    return true;
  }
  for (const auto& [lane, offset] : lanes) {
    out->push_back(MakeBinOp(
        vm::Op::kCmpEq, MakeInput(offset),
        MakeConst((konst->value >> (8 * lane)) & 0xFF)));
  }
  return true;
}

bool SolveContext::Contains(const ExprRef& node) const {
  const SortedSmallSet<std::uint32_t>& vars = FreeVars(node);
  if (vars.size() == 1) {
    const VarEntry* entry = Find(*vars.begin());
    return entry != nullptr &&
           std::binary_search(entry->applied.begin(), entry->applied.end(),
                              node.get());
  }
  const std::vector<const Expr*>& nodes = path_->coupled_nodes;
  return std::binary_search(nodes.begin(), nodes.end(), node.get());
}

void SolveContext::Apply(const ExprRef& constraint) {
  if (constraint->IsConst()) {
    if (constraint->value == 0) has_false_ = true;
    return;
  }
  if (Contains(constraint)) return;
  Path& path = path_.mut();
  const auto pos = static_cast<std::uint32_t>(path.sequence.size());
  path.sequence.push_back(constraint);
  hash_ = FnvStep(hash_, constraint.get());

  const SortedSmallSet<std::uint32_t>& vars = FreeVars(constraint);
  if (vars.size() == 1) {
    const std::uint32_t var = *vars.begin();
    VarEntry& entry = path.domains[var];
    FilterUnary(constraint, var, &entry.domain);
    InsertSorted(&entry.applied, constraint.get());
    entry.at.push_back(pos);
    if (entry.domain.None()) known_unsat_ = true;
  } else {
    path.coupled.push_back(pos);
    InsertSorted(&path.coupled_nodes, constraint.get());
    for (const std::uint32_t var : vars) InsertSorted(&path.coupled_vars, var);
  }

  std::vector<ExprRef> derived;
  if (!DecomposeConcatEquality(constraint, &derived)) return;
  for (ExprRef& d : derived) {
    const std::uint32_t index = path.derived_count++;
    if (d->IsConst()) {
      derived_false_ = true;
      continue;
    }
    const std::uint32_t var = *FreeVars(d).begin();
    path.derived[var].emplace_back(index, std::move(d));
  }
}

std::size_t SolveContext::FootprintBytes() const {
  const Path& path = path_.get();
  std::size_t bytes = 0;
  for (const auto& [var, entry] : path.domains) {
    bytes += sizeof(var) + sizeof(VarEntry) + 48 +
             entry.applied.capacity() * sizeof(const Expr*) +
             entry.at.capacity() * sizeof(std::uint32_t);
  }
  bytes += path.sequence.capacity() * sizeof(ExprRef) +
           path.coupled.capacity() * sizeof(std::uint32_t) +
           path.coupled_nodes.capacity() * sizeof(const Expr*) +
           path.coupled_vars.capacity() * sizeof(std::uint32_t);
  for (const auto& [var, list] : path.derived) {
    bytes += sizeof(var) + sizeof(list) + 48 +
             list.capacity() * sizeof(Derived);
  }
  bytes /= path_.owners();
  std::size_t model_bytes = 0;
  for (const Model& m : models_.get()) model_bytes += m.size() * 48;
  return bytes + model_bytes / models_.owners();
}

}  // namespace octopocs::symex

#include "vm/interp.h"

#include <cassert>
#include <cstdlib>
#include <stdexcept>

#include "support/cycle_schedule.h"
#include "support/fault.h"
#include "vm/fusion.h"
#include "vm/op_info.h"

// Direct-threaded dispatch needs the GNU computed-goto extension
// (address-of-label). Elsewhere the threaded backend degrades to a dense
// switch over the same decoded handler ids — still decoded and fused,
// just without the per-handler indirect branches.
#if defined(__GNUC__) || defined(__clang__)
#define OCTO_VM_COMPUTED_GOTO 1
#else
#define OCTO_VM_COMPUTED_GOTO 0
#endif

namespace octopocs::vm {

namespace {

// Handler ids for the threaded dispatch table, in table order: plain
// opcodes (enum order), superinstructions (FusedOp order), terminators.
// The layout must agree with fusion.h's HandlerForOp/HandlerForFused.
enum : std::uint16_t {
#define OCTOPOCS_VM_OP_HID(name, mnemonic) kHandler_##name,
  OCTOPOCS_VM_OPCODES(OCTOPOCS_VM_OP_HID)
#undef OCTOPOCS_VM_OP_HID
  kHandler_FuseMovImmAluB,
  kHandler_FuseMovImmAluC,
  kHandler_FuseAddImmLoad,
  kHandler_FuseCmpBranch,
  kHandler_FuseMovImmCmpBranch,
  kHandler_TermJump,
  kHandler_TermBranch,
  kHandler_TermReturn,
};
static_assert(kHandler_FuseMovImmAluB == kHandlerFusedBase);
static_assert(kHandler_TermJump == kHandlerTermJump);
static_assert(kHandler_TermBranch == kHandlerTermBranch);
static_assert(kHandler_TermReturn == kHandlerTermReturn);
static_assert(kHandler_TermReturn + 1 == kDispatchTableSize);

}  // namespace

std::string_view TrapName(TrapKind kind) {
  switch (kind) {
    case TrapKind::kNone: return "none";
    case TrapKind::kOutOfBounds: return "out-of-bounds";
    case TrapKind::kNullDeref: return "null-deref";
    case TrapKind::kUseAfterFree: return "use-after-free";
    case TrapKind::kDoubleFree: return "double-free";
    case TrapKind::kDivByZero: return "div-by-zero";
    case TrapKind::kAbort: return "abort";
    case TrapKind::kFuelExhausted: return "fuel-exhausted";
    case TrapKind::kStackOverflow: return "stack-overflow";
    case TrapKind::kOutOfMemory: return "out-of-memory";
    case TrapKind::kBadIndirectCall: return "bad-indirect-call";
    case TrapKind::kDeadline: return "deadline-expired";
  }
  return "?";
}

std::size_t ThreadedDispatchTableSize() { return kDispatchTableSize; }

/// Armed deep snapshot for exact-cycle detection (ExecOptions::
/// cycle_skip). Holds a complete copy of the machine state plus every
/// observer's serialized state, taken at a checkpoint on Brent's
/// doubling schedule: arm at instruction count c, compare at each
/// subsequent checkpoint until 2c, then re-arm. A hung loop of true
/// period P repeats at checkpoint granularity with period
/// P / gcd(P, kInterpCheckStride) checkpoints, so detection lands once
/// the armed count exceeds both the loop's warm-up and that period.
struct Interpreter::CycleDetector {
  support::CycleSchedule schedule;

  std::vector<Frame> frames;
  std::map<std::uint64_t, Allocation> heap;
  AllocCursor cursor{};
  std::uint64_t live_heap_bytes = 0;
  std::uint64_t file_pos = 0;
  std::vector<std::vector<std::uint8_t>> observers;
};

void Interpreter::CycleArm() {
  CycleDetector& d = *cycle_;
  d.observers.clear();
  d.observers.reserve(observers_.size());
  for (const ExecutionObserver* o : observers_) {
    std::vector<std::uint8_t> blob;
    if (!o->SnapshotState(&blob)) {
      cycle_.reset();  // opaque observer: cycle skip is off for this run
      return;
    }
    d.observers.push_back(std::move(blob));
  }
  d.frames = frames_;
  d.heap = heap_;
  d.cursor = cursor_;
  d.live_heap_bytes = live_heap_bytes_;
  d.file_pos = file_pos_;
  d.schedule.Arm(result_.instructions);
}

bool Interpreter::CycleStateEquals() const {
  const CycleDetector& d = *cycle_;
  if (cursor_.next != d.cursor.next ||
      live_heap_bytes_ != d.live_heap_bytes) {
    return false;
  }
  // Frames innermost-first: a progressing loop differs in its top regs.
  for (std::size_t i = frames_.size(); i-- > 0;) {
    const Frame& a = frames_[i];
    const Frame& b = d.frames[i];
    if (a.fn != b.fn || a.block != b.block || a.ip != b.ip ||
        a.ret_reg != b.ret_reg || a.regs != b.regs) {
      return false;
    }
  }
  if (heap_.size() != d.heap.size()) return false;
  for (auto it = heap_.begin(), jt = d.heap.begin(); it != heap_.end();
       ++it, ++jt) {
    if (it->first != jt->first || it->second.alive != jt->second.alive ||
        it->second.data != jt->second.data) {
      return false;
    }
  }
  std::vector<std::uint8_t> blob;
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    blob.clear();
    if (!observers_[i]->SnapshotState(&blob)) return false;
    if (blob != d.observers[i]) return false;
  }
  return true;
}

void Interpreter::CycleProbe() {
  // Fault injection counts observer/tool polls; skipping periods would
  // move the armed injection point, so the detector stands down.
  if (support::fault::armed()) return;
  CycleDetector& d = *cycle_;
  const std::uint64_t now = result_.instructions;
  if (now == 0) return;
  if (d.schedule.ShouldArm(now)) {
    CycleArm();
    return;
  }
  // Cheap reject: position and cheap scalars first; the deep compare
  // only runs when the checkpoint lands on the armed loop phase.
  const Frame& top = frames_.back();
  const Frame& atop = d.frames.back();
  if (frames_.size() != d.frames.size() || top.fn != atop.fn ||
      top.block != atop.block || top.ip != atop.ip ||
      file_pos_ != d.file_pos) {
    return;
  }
  if (!CycleStateEquals()) return;
  // Exact repeat: execution is deterministic from a complete state, so
  // the machine must retrace this period until fuel runs out. Jump the
  // counter a whole number of periods; the residual executes normally
  // and lands on the same final state, backtrace, and trap the full run
  // would have produced.
  result_.instructions +=
      support::WholePeriods(d.schedule.Period(now), opts_.fuel - now);
  cycle_.reset();  // one skip per run; the residual is under one period
}

Interpreter::Interpreter(const Program& program, ByteView input,
                         ExecOptions opts)
    : program_(program), input_(input.begin(), input.end()), opts_(opts) {
  if (opts_.dispatch == DispatchMode::kThreaded) {
    if (opts_.predecoded != nullptr && opts_.predecoded->source == &program_) {
      decoded_ = opts_.predecoded;
    } else {
      decoded_owned_ =
          std::make_unique<DecodedProgram>(DecodeProgram(program_, opts_.fuse));
      decoded_ = decoded_owned_.get();
    }
  }
  Frame entry;
  entry.fn = program_.entry;
  entry.regs.assign(program_.Fn(program_.entry).num_regs, 0);
  frames_.push_back(std::move(entry));
  if (opts_.cycle_skip) cycle_ = std::make_unique<CycleDetector>();
}

Interpreter::~Interpreter() = default;

void Interpreter::AddObserver(ExecutionObserver* observer) {
  observers_.push_back(observer);
}

void Interpreter::SetTrap(TrapKind kind, std::uint64_t fault_addr,
                          std::string message) {
  result_.trap = kind;
  result_.fault_addr = fault_addr;
  result_.trap_message = std::move(message);
  CaptureBacktrace();
  done_ = true;
}

void Interpreter::CaptureBacktrace() {
  result_.backtrace.clear();
  result_.backtrace.reserve(frames_.size());
  for (const Frame& f : frames_) {
    result_.backtrace.push_back({f.fn, f.block, f.ip});
  }
}

std::uint8_t* Interpreter::BytePtr(std::uint64_t addr, bool for_write) {
  // Input-file mapping (read-only).
  if (addr >= kMmapBase && addr < kMmapBase + input_.size()) {
    if (for_write) return nullptr;
    return &input_[addr - kMmapBase];
  }
  // Rodata segment.
  if (addr >= kRodataBase && addr < kRodataBase + program_.rodata.size()) {
    if (for_write) return nullptr;
    // const_cast is safe: callers never write through a read resolution.
    return const_cast<std::uint8_t*>(&program_.rodata[addr - kRodataBase]);
  }
  // Heap: find the allocation whose base is the greatest <= addr.
  auto it = heap_.upper_bound(addr);
  if (it == heap_.begin()) return nullptr;
  --it;
  Allocation& alloc = it->second;
  const std::uint64_t off = addr - it->first;
  if (off >= alloc.data.size()) return nullptr;
  if (!alloc.alive) return nullptr;
  return &alloc.data[off];
}

// Checks that [addr, addr+width) lies in one live region (rodata allowed;
// store paths reject rodata before calling this). Records a trap otherwise.
bool Interpreter::ResolveAccess(std::uint64_t addr, std::uint64_t width) {
  if (width == 0) return true;
  if (addr < kNullGuard || addr + width < addr) {
    SetTrap(TrapKind::kNullDeref, addr, "access inside null guard page");
    return false;
  }
  if (addr >= kRodataBase && addr < kHeapBase) {
    if (addr + width <= kRodataBase + program_.rodata.size()) return true;
    SetTrap(TrapKind::kOutOfBounds, addr, "access beyond rodata segment");
    return false;
  }
  if (addr >= kMmapBase) {
    if (addr + width <= kMmapBase + input_.size()) return true;
    SetTrap(TrapKind::kOutOfBounds, addr, "access beyond the file mapping");
    return false;
  }
  auto it = heap_.upper_bound(addr);
  if (it != heap_.begin()) {
    --it;
    const Allocation& alloc = it->second;
    const std::uint64_t off = addr - it->first;
    if (off < alloc.data.size() && off + width <= alloc.data.size()) {
      if (!alloc.alive) {
        SetTrap(TrapKind::kUseAfterFree, addr, "access to freed allocation");
        return false;
      }
      return true;
    }
  }
  SetTrap(TrapKind::kOutOfBounds, addr, "access to unmapped address");
  return false;
}

std::uint64_t Interpreter::LoadMem(std::uint64_t addr, std::uint64_t width) {
  std::uint64_t v = 0;
  for (std::uint64_t i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(*BytePtr(addr + i, false)) << (8 * i);
  }
  return v;
}

void Interpreter::StoreMem(std::uint64_t addr, std::uint64_t width,
                           std::uint64_t value) {
  for (std::uint64_t i = 0; i < width; ++i) {
    *BytePtr(addr + i, true) = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

bool Interpreter::CheckInterrupts() {
  if (result_.instructions >= opts_.fuel) {
    SetTrap(TrapKind::kFuelExhausted, 0, "instruction budget exhausted");
    return false;
  }
  if ((result_.instructions & (kInterpCheckStride - 1)) == 0) {
    if (opts_.cancel.CanExpire() && opts_.cancel.Check()) {
      SetTrap(TrapKind::kDeadline, 0, "wall-clock deadline expired");
      return false;
    }
    // Both backends call this at every stride-aligned count, so probes
    // (and any skip) happen at identical points regardless of dispatch
    // mode. A skip advances the count by a multiple of the period, which
    // is itself a multiple of the stride, preserving alignment.
    if (cycle_ != nullptr) {
      CycleProbe();
      if (result_.instructions >= opts_.fuel) {
        SetTrap(TrapKind::kFuelExhausted, 0, "instruction budget exhausted");
        return false;
      }
    }
  }
  return true;
}

bool Interpreter::ExecTerminator(Frame& frame, const Terminator& t) {
  switch (t.kind) {
    case TermKind::kJump: {
      const BlockId from = frame.block;
      frame.block = t.target;
      frame.ip = 0;
      for (auto* o : observers_) o->OnBlockTransfer(frame.fn, from, t.target);
      return true;
    }
    case TermKind::kBranch: {
      const BlockId from = frame.block;
      const BlockId to = frame.regs[t.cond] != 0 ? t.target : t.fallthrough;
      frame.block = to;
      frame.ip = 0;
      for (auto* o : observers_) o->OnBlockTransfer(frame.fn, from, to);
      return true;
    }
    case TermKind::kReturn: {
      const std::uint64_t ret = t.returns_value ? frame.regs[t.cond] : 0;
      const FuncId callee = frame.fn;
      const Reg ret_reg = frame.ret_reg;
      frames_.pop_back();
      for (auto* o : observers_) {
        o->OnCallExit(callee, ret, t.returns_value, t.cond, ret_reg);
      }
      if (frames_.empty()) {
        result_.return_value = ret;
        done_ = true;
        return false;
      }
      frames_.back().regs[ret_reg] = ret;
      return true;
    }
  }
  return true;
}

bool Interpreter::ExecInstr(Frame& frame, const Instr& ins, std::size_t ip) {
  auto& regs = frame.regs;
  std::uint64_t eff_addr = 0;
  std::uint64_t value = 0;

  // Binary-ALU forms share one evaluator (vm/op_info.h); only the
  // division-by-zero trap is interpreter-specific and must fire before
  // EvalAlu's total-function fallback (which yields 0) could mask it.
  if (GetOpInfo(ins.op).is_binary_alu) {
    if ((ins.op == Op::kDivU || ins.op == Op::kRemU) && regs[ins.c] == 0) {
      SetTrap(TrapKind::kDivByZero, 0,
              ins.op == Op::kDivU ? "division by zero" : "remainder by zero");
      return false;
    }
    value = regs[ins.a] = EvalAlu(ins.op, regs[ins.b], regs[ins.c]);
    for (auto* o : observers_) {
      o->OnInstr(frames_.back().fn, frames_.back().block, ip, ins, eff_addr,
                 value);
    }
    return true;
  }

  switch (ins.op) {
    case Op::kMovImm:
      value = regs[ins.a] = ins.imm;
      break;
    case Op::kMov:
      value = regs[ins.a] = regs[ins.b];
      break;
    case Op::kNot:
      value = regs[ins.a] = ~regs[ins.b];
      break;
    case Op::kAddImm:
      value = regs[ins.a] = regs[ins.b] + ins.imm;
      break;
    case Op::kLoad: {
      eff_addr = regs[ins.b] + ins.imm;
      if (!ResolveAccess(eff_addr, ins.width)) return false;
      value = regs[ins.a] = LoadMem(eff_addr, ins.width);
      break;
    }
    case Op::kStore: {
      eff_addr = regs[ins.b] + ins.imm;
      // A store must hit writable memory: reject the read-only segments.
      if (eff_addr >= kRodataBase && eff_addr < kHeapBase) {
        SetTrap(TrapKind::kOutOfBounds, eff_addr, "write to rodata");
        return false;
      }
      if (eff_addr >= kMmapBase) {
        SetTrap(TrapKind::kOutOfBounds, eff_addr,
                "write to the read-only file mapping");
        return false;
      }
      if (!ResolveAccess(eff_addr, ins.width)) return false;
      value = regs[ins.a];
      StoreMem(eff_addr, ins.width, value);
      break;
    }
    case Op::kAlloc: {
      support::fault::MaybeThrow(support::FaultSite::kAllocation);
      const std::uint64_t size = regs[ins.b];
      if (live_heap_bytes_ + size > opts_.heap_limit) {
        SetTrap(TrapKind::kOutOfMemory, 0, "heap limit exceeded");
        return false;
      }
      const std::uint64_t base = cursor_.Take(size);
      heap_[base] = Allocation{std::vector<std::uint8_t>(size), true};
      live_heap_bytes_ += size;
      value = regs[ins.a] = base;
      break;
    }
    case Op::kFree: {
      auto it = heap_.find(regs[ins.a]);
      if (it == heap_.end() || !it->second.alive) {
        SetTrap(TrapKind::kDoubleFree, regs[ins.a],
                "free of invalid or already-freed pointer");
        return false;
      }
      it->second.alive = false;
      live_heap_bytes_ -= it->second.data.size();
      break;
    }
    case Op::kRead: {
      const std::uint64_t dst = regs[ins.b];
      const std::uint64_t want = regs[ins.c];
      const std::uint64_t avail =
          file_pos_ < input_.size() ? input_.size() - file_pos_ : 0;
      const std::uint64_t n = want < avail ? want : avail;
      if (n > 0) {
        if (!ResolveAccess(dst, n)) return false;
        if (dst >= kRodataBase && dst < kHeapBase) {
          SetTrap(TrapKind::kOutOfBounds, dst, "read(2) into rodata");
          return false;
        }
        for (std::uint64_t i = 0; i < n; ++i) {
          *BytePtr(dst + i, true) = input_[file_pos_ + i];
        }
        const std::uint64_t off = file_pos_;
        file_pos_ += n;
        for (auto* o : observers_) o->OnFileRead(dst, off, n);
      }
      value = regs[ins.a] = n;
      break;
    }
    case Op::kMMap:
      value = regs[ins.a] = kMmapBase;
      break;
    case Op::kSeek:
      file_pos_ = regs[ins.b];
      break;
    case Op::kTell:
      value = regs[ins.a] = file_pos_;
      break;
    case Op::kFileSize:
      value = regs[ins.a] = input_.size();
      break;
    case Op::kCall:
    case Op::kICall: {
      FuncId callee;
      if (ins.op == Op::kCall) {
        callee = static_cast<FuncId>(ins.imm);
      } else {
        const std::uint64_t target = regs[ins.b];
        if (target >= program_.functions.size()) {
          SetTrap(TrapKind::kBadIndirectCall, target,
                  "indirect call to invalid function id");
          return false;
        }
        callee = static_cast<FuncId>(target);
        for (auto* o : observers_) {
          o->OnIndirectCall(frame.fn, frame.block, ip, callee);
        }
      }
      const Function& callee_fn = program_.Fn(callee);
      if (ins.args.size() != callee_fn.num_params) {
        SetTrap(TrapKind::kBadIndirectCall, callee,
                "argument count mismatch calling " + callee_fn.name);
        return false;
      }
      if (frames_.size() >= opts_.max_call_depth) {
        SetTrap(TrapKind::kStackOverflow, 0, "call depth limit");
        return false;
      }
      Frame next;
      next.fn = callee;
      next.ret_reg = ins.a;
      next.regs.assign(callee_fn.num_regs, 0);
      std::vector<std::uint64_t> args(ins.args.size());
      for (std::size_t i = 0; i < ins.args.size(); ++i) {
        args[i] = regs[ins.args[i]];
        next.regs[i] = args[i];
      }
      frames_.push_back(std::move(next));
      for (auto* o : observers_) {
        o->OnCallEnter(callee, std::span<const std::uint64_t>(args), &ins);
      }
      return true;  // no OnInstr for calls; enter/exit events cover them
    }
    case Op::kFnAddr:
      value = regs[ins.a] = ins.imm;
      break;
    case Op::kAssert:
      if (regs[ins.a] == 0) {
        SetTrap(TrapKind::kAbort, 0, "assertion failed");
        return false;
      }
      break;
    case Op::kTrap:
      SetTrap(TrapKind::kAbort, 0, "explicit trap");
      return false;
    case Op::kNop:
      break;
    default:
      break;  // binary ALU handled above the switch
  }

  // `frame` may have been invalidated by frames_ growth only on call paths,
  // which returned above; safe to use captured locations here.
  for (auto* o : observers_) {
    o->OnInstr(frames_.back().fn, frames_.back().block, ip, ins, eff_addr,
               value);
  }
  return true;
}

bool Interpreter::StepSlow() {
  if (!CheckInterrupts()) return false;
  ++result_.instructions;

  Frame& frame = frames_.back();
  const Function& fn = program_.Fn(frame.fn);
  const Block& block = fn.blocks[frame.block];

  if (frame.ip >= block.instrs.size()) {
    return ExecTerminator(frame, block.term);
  }

  const Instr& ins = block.instrs[frame.ip];
  const std::size_t ip = frame.ip;
  ++frame.ip;
  return ExecInstr(frame, ins, ip);
}

ExecResult Interpreter::RunSwitch() {
  while (!done_ && StepSlow()) {
  }
  return result_;
}

// The direct-threaded loop.
//
// Execution state is cached in locals (frame/regs/decoded-entry
// pointers) and only written back where another component can observe
// it: frame.ip is maintained *lazily* — it is guaranteed current at
// every point a backtrace can be captured (each potentially-trapping
// handler stores it first), at call sites (resume position), and on
// entry to the slow path. Fast-path handlers skip the store entirely.
//
// `budget` counts instructions until the next checkpoint (a
// kInterpCheckStride multiple or the fuel bound). The dispatch site
// debits each entry's full length up front — matching the switch
// backend, which counts a unit before executing it — and a checkpoint
// that would land inside a fused entry routes through StepSlow, retiring
// constituents one at a time so fuel exhaustion and deadline polls fire
// at exactly the instruction counts the switch backend produces.
ExecResult Interpreter::RunThreaded() {
  const DecodedProgram& dp = *decoded_;
  Frame* frame = nullptr;
  const DecodedBlock* db = nullptr;
  const DecodedInstr* de = nullptr;
  std::uint64_t* regs = nullptr;
  std::uint64_t budget = 0;

#if OCTO_VM_COMPUTED_GOTO
  static const void* const kLabels[] = {
#define OCTOPOCS_VM_OP_LABEL(name, mnemonic) &&lbl_##name,
      OCTOPOCS_VM_OPCODES(OCTOPOCS_VM_OP_LABEL)
#undef OCTOPOCS_VM_OP_LABEL
      &&lbl_FuseMovImmAluB,
      &&lbl_FuseMovImmAluC,
      &&lbl_FuseAddImmLoad,
      &&lbl_FuseCmpBranch,
      &&lbl_FuseMovImmCmpBranch,
      &&lbl_TermJump,
      &&lbl_TermBranch,
      &&lbl_TermReturn,
  };
  // The dispatch-exhaustiveness guard for this backend: a missing
  // handler label is a compile error (via the && references above), and
  // a count mismatch with the handler id space fails here.
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kDispatchTableSize,
                "threaded dispatch label table out of sync with the op set");
#define VM_CASE(name) lbl_##name:
#define VM_DISPATCH_BEGIN goto* kLabels[de->handler];
#define VM_DISPATCH_END
#else
#define VM_CASE(name) case kHandler_##name:
#define VM_DISPATCH_BEGIN   \
  switch (de->handler) {    \
    default:                \
      std::abort();
#define VM_DISPATCH_END }
#endif

// Fires the constituent OnInstr events fused handlers owe their
// observers; `frame` is current by construction on every path here.
#define VM_EMIT_INSTR(insptr, ipval, effv, valv)                            \
  do {                                                                      \
    if (!observers_.empty()) {                                              \
      for (auto* o : observers_) {                                          \
        o->OnInstr(frame->fn, frame->block, (ipval), *(insptr), (effv),     \
                   (valv));                                                 \
      }                                                                     \
    }                                                                       \
  } while (0)

  goto reenter;

dispatch:
  if (budget < de->len) goto boundary;
  budget -= de->len;
  result_.instructions += de->len;
  VM_DISPATCH_BEGIN

  VM_CASE(MovImm) {
    const Instr& I = *de->i1;
    regs[I.a] = I.imm;
    VM_EMIT_INSTR(&I, de->ip, 0, I.imm);
    ++de;
    goto dispatch;
  }
  VM_CASE(Mov) {
    const Instr& I = *de->i1;
    const std::uint64_t val = regs[I.b];
    regs[I.a] = val;
    VM_EMIT_INSTR(&I, de->ip, 0, val);
    ++de;
    goto dispatch;
  }
  VM_CASE(Not) {
    const Instr& I = *de->i1;
    const std::uint64_t val = ~regs[I.b];
    regs[I.a] = val;
    VM_EMIT_INSTR(&I, de->ip, 0, val);
    ++de;
    goto dispatch;
  }
  VM_CASE(AddImm) {
    const Instr& I = *de->i1;
    const std::uint64_t val = regs[I.b] + I.imm;
    regs[I.a] = val;
    VM_EMIT_INSTR(&I, de->ip, 0, val);
    ++de;
    goto dispatch;
  }

#define VM_ALU_CASE(name, expr)                           \
  VM_CASE(name) {                                         \
    const Instr& I = *de->i1;                             \
    const std::uint64_t bv = regs[I.b];                   \
    const std::uint64_t cv = regs[I.c];                   \
    const std::uint64_t val = (expr);                     \
    regs[I.a] = val;                                      \
    VM_EMIT_INSTR(&I, de->ip, 0, val);                    \
    ++de;                                                 \
    goto dispatch;                                        \
  }
  VM_ALU_CASE(Add, bv + cv)
  VM_ALU_CASE(Sub, bv - cv)
  VM_ALU_CASE(Mul, bv* cv)
  VM_ALU_CASE(And, bv& cv)
  VM_ALU_CASE(Or, bv | cv)
  VM_ALU_CASE(Xor, bv ^ cv)
  VM_ALU_CASE(Shl, bv << (cv & 63))
  VM_ALU_CASE(Shr, bv >> (cv & 63))
  VM_ALU_CASE(CmpEq, bv == cv ? 1 : 0)
  VM_ALU_CASE(CmpNe, bv != cv ? 1 : 0)
  VM_ALU_CASE(CmpLtU, bv < cv ? 1 : 0)
  VM_ALU_CASE(CmpLeU, bv <= cv ? 1 : 0)
  VM_ALU_CASE(CmpGtU, bv > cv ? 1 : 0)
  VM_ALU_CASE(CmpGeU, bv >= cv ? 1 : 0)
#undef VM_ALU_CASE

  VM_CASE(DivU) {
    const Instr& I = *de->i1;
    const std::uint64_t cv = regs[I.c];
    if (cv == 0) {
      frame->ip = de->ip + 1;
      SetTrap(TrapKind::kDivByZero, 0, "division by zero");
      goto finish;
    }
    const std::uint64_t val = regs[I.b] / cv;
    regs[I.a] = val;
    VM_EMIT_INSTR(&I, de->ip, 0, val);
    ++de;
    goto dispatch;
  }
  VM_CASE(RemU) {
    const Instr& I = *de->i1;
    const std::uint64_t cv = regs[I.c];
    if (cv == 0) {
      frame->ip = de->ip + 1;
      SetTrap(TrapKind::kDivByZero, 0, "remainder by zero");
      goto finish;
    }
    const std::uint64_t val = regs[I.b] % cv;
    regs[I.a] = val;
    VM_EMIT_INSTR(&I, de->ip, 0, val);
    ++de;
    goto dispatch;
  }

  VM_CASE(Load) {
    const Instr& I = *de->i1;
    const std::uint64_t eff = regs[I.b] + I.imm;
    frame->ip = de->ip + 1;
    if (!ResolveAccess(eff, I.width)) goto finish;
    const std::uint64_t val = LoadMem(eff, I.width);
    regs[I.a] = val;
    VM_EMIT_INSTR(&I, de->ip, eff, val);
    ++de;
    goto dispatch;
  }
  VM_CASE(Store) {
    const Instr& I = *de->i1;
    const std::uint64_t eff = regs[I.b] + I.imm;
    frame->ip = de->ip + 1;
    if (eff >= kRodataBase && eff < kHeapBase) {
      SetTrap(TrapKind::kOutOfBounds, eff, "write to rodata");
      goto finish;
    }
    if (eff >= kMmapBase) {
      SetTrap(TrapKind::kOutOfBounds, eff,
              "write to the read-only file mapping");
      goto finish;
    }
    if (!ResolveAccess(eff, I.width)) goto finish;
    const std::uint64_t val = regs[I.a];
    StoreMem(eff, I.width, val);
    VM_EMIT_INSTR(&I, de->ip, eff, val);
    ++de;
    goto dispatch;
  }

  // Rare / heavyweight ops delegate to the shared single-instruction
  // executor: one out-of-line call per dispatch keeps their semantics in
  // exactly one place while leaving the hot ops inline above.
  VM_CASE(Alloc)
  VM_CASE(Free)
  VM_CASE(Read)
  VM_CASE(MMap)
  VM_CASE(Seek)
  VM_CASE(Tell)
  VM_CASE(FileSize)
  VM_CASE(FnAddr)
  VM_CASE(Assert)
  VM_CASE(Trap)
  VM_CASE(Nop) {
    frame->ip = de->ip + 1;
    if (!ExecInstr(*frame, *de->i1, de->ip)) goto finish;
    ++de;
    goto dispatch;
  }

  VM_CASE(Call)
  VM_CASE(ICall) {
    frame->ip = de->ip + 1;  // resume position in the caller
    if (!ExecInstr(*frame, *de->i1, de->ip)) goto finish;
    goto reenter;  // a frame was pushed; reload all cached state
  }

  VM_CASE(FuseMovImmAluB)
  VM_CASE(FuseMovImmAluC) {
    // movi x,C ; alu/cmp a,b,c (x feeding b or c). Operands are read
    // back from the register file after the movi write, so aliasing
    // (b == x, c == x, a == x) behaves exactly as unfused execution.
    const Instr& m = *de->i1;
    const Instr& A = *de->i2;
    regs[m.a] = m.imm;
    VM_EMIT_INSTR(&m, de->ip, 0, m.imm);
    const std::uint64_t val = EvalAlu(A.op, regs[A.b], regs[A.c]);
    regs[A.a] = val;
    VM_EMIT_INSTR(&A, de->ip + 1, 0, val);
    ++de;
    goto dispatch;
  }

  VM_CASE(FuseAddImmLoad) {
    // addi x,b,C ; load a,x,off — the pointer-bump-then-load shape. The
    // load may trap, so the position is committed first.
    const Instr& ai = *de->i1;
    const Instr& ld = *de->i2;
    const std::uint64_t ptr = regs[ai.b] + ai.imm;
    regs[ai.a] = ptr;
    VM_EMIT_INSTR(&ai, de->ip, 0, ptr);
    const std::uint64_t eff = regs[ld.b] + ld.imm;
    frame->ip = de->ip + 2;
    if (!ResolveAccess(eff, ld.width)) goto finish;
    const std::uint64_t val = LoadMem(eff, ld.width);
    regs[ld.a] = val;
    VM_EMIT_INSTR(&ld, de->ip + 1, eff, val);
    ++de;
    goto dispatch;
  }

  VM_CASE(FuseCmpBranch) {
    // cmp a,b,c ; br a — the loop back-edge shape. The branch reads the
    // value the compare just produced.
    const Instr& C = *de->i1;
    const Terminator& t = *de->term;
    const std::uint64_t val = EvalAlu(C.op, regs[C.b], regs[C.c]);
    regs[C.a] = val;
    VM_EMIT_INSTR(&C, de->ip, 0, val);
    const BlockId from = frame->block;
    const BlockId to = val != 0 ? t.target : t.fallthrough;
    frame->block = to;
    frame->ip = 0;
    if (!observers_.empty()) {
      for (auto* o : observers_) o->OnBlockTransfer(frame->fn, from, to);
    }
    db = &dp.fns[frame->fn].blocks[to];
    de = db->code.data();
    goto dispatch;
  }

  VM_CASE(FuseMovImmCmpBranch) {
    // movi x,C ; cmp a,b,x ; br a — the constant-guard loop tail.
    const Instr& m = *de->i1;
    const Instr& C = *de->i2;
    const Terminator& t = *de->term;
    regs[m.a] = m.imm;
    VM_EMIT_INSTR(&m, de->ip, 0, m.imm);
    const std::uint64_t val = EvalAlu(C.op, regs[C.b], regs[C.c]);
    regs[C.a] = val;
    VM_EMIT_INSTR(&C, de->ip + 1, 0, val);
    const BlockId from = frame->block;
    const BlockId to = val != 0 ? t.target : t.fallthrough;
    frame->block = to;
    frame->ip = 0;
    if (!observers_.empty()) {
      for (auto* o : observers_) o->OnBlockTransfer(frame->fn, from, to);
    }
    db = &dp.fns[frame->fn].blocks[to];
    de = db->code.data();
    goto dispatch;
  }

  VM_CASE(TermJump) {
    const Terminator& t = *de->term;
    const BlockId from = frame->block;
    frame->block = t.target;
    frame->ip = 0;
    if (!observers_.empty()) {
      for (auto* o : observers_) o->OnBlockTransfer(frame->fn, from, t.target);
    }
    db = &dp.fns[frame->fn].blocks[t.target];
    de = db->code.data();
    goto dispatch;
  }
  VM_CASE(TermBranch) {
    const Terminator& t = *de->term;
    const BlockId from = frame->block;
    const BlockId to = regs[t.cond] != 0 ? t.target : t.fallthrough;
    frame->block = to;
    frame->ip = 0;
    if (!observers_.empty()) {
      for (auto* o : observers_) o->OnBlockTransfer(frame->fn, from, to);
    }
    db = &dp.fns[frame->fn].blocks[to];
    de = db->code.data();
    goto dispatch;
  }
  VM_CASE(TermReturn) {
    const Terminator& t = *de->term;
    const std::uint64_t ret = t.returns_value ? regs[t.cond] : 0;
    const FuncId callee = frame->fn;
    const Reg ret_reg = frame->ret_reg;
    frames_.pop_back();
    if (!observers_.empty()) {
      for (auto* o : observers_) {
        o->OnCallExit(callee, ret, t.returns_value, t.cond, ret_reg);
      }
    }
    if (frames_.empty()) {
      result_.return_value = ret;
      done_ = true;
      goto finish;
    }
    frames_.back().regs[ret_reg] = ret;
    goto reenter;
  }

  VM_DISPATCH_END

boundary:
  // A checkpoint falls on (budget == 0) or inside (0 < budget < len) the
  // next entry. Commit the position; a mid-entry checkpoint retires
  // constituents one at a time through the portable backend.
  frame->ip = de->ip;
  if (budget != 0) goto slow_single;
  goto recompute;

slow_single:
  if (!StepSlow()) goto finish;
  goto reenter;

reenter:
  // (Re)load every cached pointer from interpreter state: loop entry,
  // return-from-call, and slow-path re-alignment all land here.
  frame = &frames_.back();
  db = &dp.fns[frame->fn].blocks[frame->block];
  de = db->code.data() + db->entry_of_ip[frame->ip];
  regs = frame->regs.data();
  // A resume point strictly inside a fused entry (possible only after
  // slow-path stepping split one) keeps single-stepping to the boundary.
  if (de->ip != frame->ip) goto slow_single;

recompute:
  if (!CheckInterrupts()) goto finish;
  {
    const std::uint64_t next_stride =
        (result_.instructions | (kInterpCheckStride - 1)) + 1;
    const std::uint64_t limit =
        next_stride < opts_.fuel ? next_stride : opts_.fuel;
    budget = limit - result_.instructions;
  }
  goto dispatch;

finish:
  return result_;

#undef VM_CASE
#undef VM_DISPATCH_BEGIN
#undef VM_DISPATCH_END
#undef VM_EMIT_INSTR
}

ExecResult Interpreter::Run() {
  for (auto* o : observers_) {
    // The entry frame behaves like a call with no arguments.
    o->OnCallEnter(program_.entry, {}, nullptr);
  }
  return opts_.dispatch == DispatchMode::kThreaded ? RunThreaded()
                                                   : RunSwitch();
}

ExecResult RunProgram(const Program& program, ByteView input,
                      ExecOptions opts) {
  if (auto err = Validate(program)) {
    throw std::invalid_argument("invalid program: " + *err);
  }
  Interpreter interp(program, input, opts);
  return interp.Run();
}

}  // namespace octopocs::vm

// Sandboxed child processes with resource caps and kill-on-deadline.
//
// The isolation layer (DESIGN.md §12) runs each corpus pair in its own
// forked worker so that a misbehaving subject — an OOMing symbolic
// state, a wild store in the VM, an injected tooling abort — takes down
// one process instead of the whole corpus run. This header is the
// primitive underneath the supervisor: fork/exec an argv, cap the child
// with RLIMIT_AS / RLIMIT_CPU (and always RLIMIT_CORE=0 so crashing
// workers never litter core files), capture its stdout over a pipe, and
// SIGKILL it when a wall-clock deadline or an external interrupt flag
// says so. The parent drains the pipe while the child runs, so a worker
// that writes more than one pipe buffer cannot deadlock against its
// supervisor.
//
// POSIX-only by nature (fork/exec/waitpid); on non-POSIX builds
// RunProcess reports kSpawnError so callers degrade to in-process
// execution instead of failing to compile.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace octopocs::support {

struct SubprocessLimits {
  /// RLIMIT_AS cap in MiB (0 = unlimited). Allocations past the cap
  /// fail inside the child (malloc returns NULL / bad_alloc), which is
  /// exactly the memory-pressure failure mode the pipeline's
  /// containment layer is built for.
  std::uint64_t rlimit_mb = 0;
  /// RLIMIT_CPU soft cap in seconds (0 = unlimited). The kernel sends
  /// SIGXCPU at the soft limit and SIGKILL at soft+2s.
  std::uint64_t cpu_seconds = 0;
  /// Wall-clock budget in milliseconds (0 = unlimited). On expiry the
  /// parent SIGKILLs the child and reports kKilledByDeadline.
  std::uint64_t deadline_ms = 0;
};

enum class SubprocessStatus : std::uint8_t {
  kExited,            // child called exit(); exit_code is valid
  kSignaled,          // child died from a signal; signal is valid
  kKilledByDeadline,  // parent SIGKILLed it at the wall-clock budget
  kInterrupted,       // parent SIGKILLed it because `interrupt` tripped
  kSpawnError,        // fork/exec never produced a child; error is set
};

std::string_view SubprocessStatusName(SubprocessStatus status);

struct SubprocessResult {
  SubprocessStatus status = SubprocessStatus::kSpawnError;
  int exit_code = -1;   // valid for kExited
  int term_signal = 0;  // valid for kSignaled
  /// Everything the child wrote to stdout before exiting (possibly a
  /// truncated prefix when the child died mid-write).
  std::string output;
  std::string error;  // human-readable spawn failure, kSpawnError only
  double wall_seconds = 0;
};

/// Runs `argv` (argv[0] is the executable path, resolved via PATH) to
/// completion under `limits`. `interrupt`, when non-null, is polled
/// while the child runs; a nonzero value SIGKILLs the child and yields
/// kInterrupted — this is how a Ctrl-C on the supervisor drains its
/// worker fleet promptly. Never throws; every failure mode is a status.
SubprocessResult RunProcess(const std::vector<std::string>& argv,
                            const SubprocessLimits& limits,
                            const std::atomic<int>* interrupt = nullptr);

/// A long-lived worker child with both its stdin and stdout piped to
/// the parent (the AFL forkserver idea): spawn once, then exchange
/// line-framed requests and sentinel-framed responses for many work
/// items, amortizing fork/exec and per-process warmup over a whole run
/// instead of paying it per item.
///
/// The parent is always the active side: it writes one request line,
/// then reads until the response sentinel (or EOF / deadline /
/// interrupt). Response bytes past the sentinel stay buffered for the
/// next ReadFrame, so a fast worker can never outrun its supervisor's
/// framing. A dead child is reported as a SubprocessResult through
/// Reap()/Kill() so callers classify it with the same machinery as
/// one-shot workers.
///
/// POSIX-only like RunProcess; Spawn fails cleanly elsewhere.
class PersistentProcess {
 public:
  PersistentProcess() = default;
  ~PersistentProcess();
  PersistentProcess(const PersistentProcess&) = delete;
  PersistentProcess& operator=(const PersistentProcess&) = delete;

  enum class ReadStatus : std::uint8_t {
    kOk,           // a complete frame was extracted
    kEof,          // child closed stdout (died); Reap() for the status
    kTimeout,      // deadline passed without a complete frame
    kInterrupted,  // `interrupt` tripped mid-read
    kError,        // pipe read error
  };

  /// Forks and execs `argv` under `limits` (rlimit_mb / cpu_seconds;
  /// deadline_ms is ignored here — deadlines are per-ReadFrame). Any
  /// previous child is killed first. Returns false with `*error` set
  /// when no child was produced.
  bool Spawn(const std::vector<std::string>& argv,
             const SubprocessLimits& limits, std::string* error);

  /// A child was spawned and not yet reaped. It may have exited since;
  /// PollExit() tells without blocking.
  bool alive() const { return pid_ > 0; }

  /// Non-blocking exit check: when the child has already exited, reaps
  /// it and returns its status (as Reap() would); nullopt while it runs
  /// or when there is no child.
  std::optional<SubprocessResult> PollExit();

  /// Writes `line` plus a newline to the child's stdin. False when the
  /// child is gone (EPIPE) — the caller should Kill() and classify.
  bool WriteLine(const std::string& line);

  /// Reads the child's stdout until a line equal to `sentinel` arrives;
  /// `*frame` then holds everything up to and including that line. A
  /// frame already buffered from a previous read is returned without
  /// touching the pipe. `deadline_ms` bounds the wait (0 = unbounded);
  /// `interrupt`, when non-null and nonzero, aborts it.
  ReadStatus ReadFrame(std::string_view sentinel, std::uint64_t deadline_ms,
                       const std::atomic<int>* interrupt, std::string* frame);

  /// SIGKILLs the child (harmless if already dead) and reaps it. The
  /// result's `output` holds the un-framed bytes buffered since the
  /// last complete frame.
  SubprocessResult Kill();

  /// Reaps a child that already exited (after kEof) without signaling.
  SubprocessResult Reap();

 private:
  SubprocessResult Finish(bool force_kill);
  /// Closes the pipes and forgets the child; returns the buffered output.
  SubprocessResult Release();

  long pid_ = -1;  // pid_t, widened so the header stays platform-clean
  int in_fd_ = -1;   // parent's write end of the child's stdin
  int out_fd_ = -1;  // parent's read end of the child's stdout
  std::string buffer_;  // stdout bytes past the last returned frame
};

}  // namespace octopocs::support

#include "support/subprocess.h"

#include <chrono>
#include <cstring>

#ifndef _WIN32
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace octopocs::support {

std::string_view SubprocessStatusName(SubprocessStatus status) {
  switch (status) {
    case SubprocessStatus::kExited: return "exited";
    case SubprocessStatus::kSignaled: return "signaled";
    case SubprocessStatus::kKilledByDeadline: return "killed-by-deadline";
    case SubprocessStatus::kInterrupted: return "interrupted";
    case SubprocessStatus::kSpawnError: return "spawn-error";
  }
  return "?";
}

#ifndef _WIN32

namespace {

void ApplyLimit(int resource, std::uint64_t value) {
  struct rlimit lim;
  lim.rlim_cur = value;
  lim.rlim_max = value;
  // Failure to tighten a limit is not fatal for the child: the
  // supervisor's wall-clock kill still bounds it.
  setrlimit(resource, &lim);
}

}  // namespace

SubprocessResult RunProcess(const std::vector<std::string>& argv,
                            const SubprocessLimits& limits,
                            const std::atomic<int>* interrupt) {
  SubprocessResult result;
  if (argv.empty()) {
    result.error = "empty argv";
    return result;
  }
  const auto start = std::chrono::steady_clock::now();

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    result.error = std::string("pipe: ") + std::strerror(errno);
    return result;
  }

  const pid_t pid = fork();
  if (pid < 0) {
    result.error = std::string("fork: ") + std::strerror(errno);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return result;
  }

  if (pid == 0) {
    // Child. stdout -> pipe; stderr stays inherited so worker
    // diagnostics land in the supervisor's log.
    dup2(pipe_fds[1], STDOUT_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    // Crashing workers are an expected, supervised event — never dump
    // core for them.
    ApplyLimit(RLIMIT_CORE, 0);
    if (limits.rlimit_mb > 0) {
      ApplyLimit(RLIMIT_AS, limits.rlimit_mb * (1ULL << 20));
    }
    if (limits.cpu_seconds > 0) {
      // Soft = cap (SIGXCPU), hard = cap + 2 (SIGKILL backstop).
      struct rlimit lim;
      lim.rlim_cur = limits.cpu_seconds;
      lim.rlim_max = limits.cpu_seconds + 2;
      setrlimit(RLIMIT_CPU, &lim);
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) {
      cargv.push_back(const_cast<char*>(a.c_str()));
    }
    cargv.push_back(nullptr);
    execvp(cargv[0], cargv.data());
    _exit(127);  // exec failed; 127 is the shell's convention
  }

  // Parent: drain the pipe while watching the clock and the interrupt
  // flag, so a chatty child cannot fill the pipe and stall, and a hung
  // child cannot outlive its budget.
  close(pipe_fds[1]);
  const int read_fd = pipe_fds[0];

  using Clock = std::chrono::steady_clock;
  const bool bounded = limits.deadline_ms > 0;
  const Clock::time_point kill_at =
      start + std::chrono::milliseconds(limits.deadline_ms);
  bool killed_deadline = false;
  bool killed_interrupt = false;

  char buf[4096];
  int status = 0;
  bool child_reaped = false;
  for (;;) {
    if (!killed_deadline && !killed_interrupt) {
      if (interrupt != nullptr &&
          interrupt->load(std::memory_order_relaxed) != 0) {
        kill(pid, SIGKILL);
        killed_interrupt = true;
      } else if (bounded && Clock::now() >= kill_at) {
        kill(pid, SIGKILL);
        killed_deadline = true;
      }
    }
    if (!child_reaped) {
      const pid_t r = waitpid(pid, &status, WNOHANG);
      if (r == pid) child_reaped = true;
    }
    struct pollfd pfd;
    pfd.fd = read_fd;
    pfd.events = POLLIN;
    const int rc = poll(&pfd, 1, /*timeout_ms=*/20);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // poll failure: stop draining, reap below
    }
    if (rc == 0) {
      // No data in this slice. If the child itself is already gone,
      // stop: a grandchild it spawned may still hold the pipe's write
      // end open (so EOF would never come), and anything such an
      // orphan writes after its parent died is not the child's report.
      if (child_reaped) break;
      continue;  // re-check deadline/interrupt
    }
    const ssize_t n = read(read_fd, buf, sizeof buf);
    if (n > 0) {
      result.output.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF (child closed stdout, normally by exiting) or error
  }
  close(read_fd);

  pid_t reaped = child_reaped ? pid : -1;
  while (!child_reaped) {
    reaped = waitpid(pid, &status, 0);
    if (reaped == pid || errno != EINTR) break;
  }

  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (killed_interrupt) {
    result.status = SubprocessStatus::kInterrupted;
  } else if (killed_deadline) {
    result.status = SubprocessStatus::kKilledByDeadline;
  } else if (reaped == pid && WIFEXITED(status)) {
    result.status = SubprocessStatus::kExited;
    result.exit_code = WEXITSTATUS(status);
  } else if (reaped == pid && WIFSIGNALED(status)) {
    result.status = SubprocessStatus::kSignaled;
    result.term_signal = WTERMSIG(status);
  } else {
    result.status = SubprocessStatus::kSpawnError;
    result.error = "waitpid lost the child";
  }
  return result;
}

// -- PersistentProcess --------------------------------------------------------

namespace {

/// True when `buffer` holds a complete frame: a line equal to
/// `sentinel` (at the buffer start or right after a newline). On a
/// match, moves everything through the sentinel line into `*frame` and
/// leaves the rest buffered.
bool ExtractFrame(std::string& buffer, std::string_view sentinel,
                  std::string* frame) {
  std::size_t pos = 0;
  while ((pos = buffer.find(sentinel.data(), pos, sentinel.size())) !=
         std::string::npos) {
    const bool at_line_start = pos == 0 || buffer[pos - 1] == '\n';
    const std::size_t end = pos + sentinel.size();
    const bool at_line_end = end < buffer.size() && buffer[end] == '\n';
    if (at_line_start && at_line_end) {
      frame->assign(buffer, 0, end + 1);
      buffer.erase(0, end + 1);
      return true;
    }
    pos += 1;
  }
  return false;
}

}  // namespace

PersistentProcess::~PersistentProcess() {
  if (alive()) Kill();
}

bool PersistentProcess::Spawn(const std::vector<std::string>& argv,
                              const SubprocessLimits& limits,
                              std::string* error) {
  if (alive()) Kill();
  buffer_.clear();
  if (argv.empty()) {
    if (error != nullptr) *error = "empty argv";
    return false;
  }
  // A worker dying between frames must surface as an EPIPE write
  // failure the supervisor classifies, not a fatal SIGPIPE in the
  // supervisor itself.
  signal(SIGPIPE, SIG_IGN);

  int in_pipe[2];   // parent -> child stdin
  int out_pipe[2];  // child stdout -> parent
  if (pipe(in_pipe) != 0) {
    if (error != nullptr) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  if (pipe(out_pipe) != 0) {
    if (error != nullptr) *error = std::string("pipe: ") + std::strerror(errno);
    close(in_pipe[0]);
    close(in_pipe[1]);
    return false;
  }

  const pid_t pid = fork();
  if (pid < 0) {
    if (error != nullptr) *error = std::string("fork: ") + std::strerror(errno);
    close(in_pipe[0]);
    close(in_pipe[1]);
    close(out_pipe[0]);
    close(out_pipe[1]);
    return false;
  }

  if (pid == 0) {
    // Child: stdin/stdout to the pipes, stderr inherited for
    // diagnostics, same caps as a one-shot worker.
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    close(in_pipe[0]);
    close(in_pipe[1]);
    close(out_pipe[0]);
    close(out_pipe[1]);
    ApplyLimit(RLIMIT_CORE, 0);
    if (limits.rlimit_mb > 0) {
      ApplyLimit(RLIMIT_AS, limits.rlimit_mb * (1ULL << 20));
    }
    if (limits.cpu_seconds > 0) {
      struct rlimit lim;
      lim.rlim_cur = limits.cpu_seconds;
      lim.rlim_max = limits.cpu_seconds + 2;
      setrlimit(RLIMIT_CPU, &lim);
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) {
      cargv.push_back(const_cast<char*>(a.c_str()));
    }
    cargv.push_back(nullptr);
    execvp(cargv[0], cargv.data());
    _exit(127);
  }

  close(in_pipe[0]);
  close(out_pipe[1]);
  pid_ = pid;
  in_fd_ = in_pipe[1];
  out_fd_ = out_pipe[0];
  return true;
}

bool PersistentProcess::WriteLine(const std::string& line) {
  if (!alive()) return false;
  std::string data = line;
  data += '\n';
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(in_fd_, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE: the child is gone
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

PersistentProcess::ReadStatus PersistentProcess::ReadFrame(
    std::string_view sentinel, std::uint64_t deadline_ms,
    const std::atomic<int>* interrupt, std::string* frame) {
  if (!alive()) return ReadStatus::kEof;
  using Clock = std::chrono::steady_clock;
  const bool bounded = deadline_ms > 0;
  const Clock::time_point give_up =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  char buf[4096];
  for (;;) {
    // A complete response wins over a simultaneous deadline/interrupt.
    if (ExtractFrame(buffer_, sentinel, frame)) return ReadStatus::kOk;
    if (interrupt != nullptr &&
        interrupt->load(std::memory_order_relaxed) != 0) {
      return ReadStatus::kInterrupted;
    }
    if (bounded && Clock::now() >= give_up) return ReadStatus::kTimeout;
    struct pollfd pfd;
    pfd.fd = out_fd_;
    pfd.events = POLLIN;
    const int rc = poll(&pfd, 1, /*timeout_ms=*/20);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kError;
    }
    if (rc == 0) continue;  // re-check frame/deadline/interrupt
    const ssize_t n = read(out_fd_, buf, sizeof buf);
    if (n > 0) {
      buffer_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return ReadStatus::kEof;
  }
}

SubprocessResult PersistentProcess::Kill() { return Finish(true); }

SubprocessResult PersistentProcess::Reap() { return Finish(false); }

namespace {

void DecodeWaitStatus(bool reaped, int status, SubprocessResult* result) {
  if (reaped && WIFEXITED(status)) {
    result->status = SubprocessStatus::kExited;
    result->exit_code = WEXITSTATUS(status);
  } else if (reaped && WIFSIGNALED(status)) {
    result->status = SubprocessStatus::kSignaled;
    result->term_signal = WTERMSIG(status);
  } else {
    result->status = SubprocessStatus::kSpawnError;
    result->error = "waitpid lost the child";
  }
}

}  // namespace

SubprocessResult PersistentProcess::Release() {
  SubprocessResult result;
  result.output = buffer_;
  buffer_.clear();
  close(in_fd_);
  close(out_fd_);
  in_fd_ = out_fd_ = -1;
  pid_ = -1;
  return result;
}

SubprocessResult PersistentProcess::Finish(bool force_kill) {
  if (!alive()) {
    SubprocessResult result;
    result.output = buffer_;
    buffer_.clear();
    result.error = "no child to reap";
    return result;
  }
  const pid_t pid = static_cast<pid_t>(pid_);
  // Signaling an already-exited (zombie) child is a harmless no-op and
  // preserves its real wait status.
  if (force_kill) kill(pid, SIGKILL);
  SubprocessResult result = Release();
  int status = 0;
  pid_t reaped;
  do {
    reaped = waitpid(pid, &status, 0);
  } while (reaped < 0 && errno == EINTR);
  DecodeWaitStatus(reaped == pid, status, &result);
  return result;
}

std::optional<SubprocessResult> PersistentProcess::PollExit() {
  if (!alive()) return std::nullopt;
  const pid_t pid = static_cast<pid_t>(pid_);
  int status = 0;
  pid_t reaped;
  do {
    reaped = waitpid(pid, &status, WNOHANG);
  } while (reaped < 0 && errno == EINTR);
  if (reaped != pid) return std::nullopt;  // still running
  SubprocessResult result = Release();
  DecodeWaitStatus(true, status, &result);
  return result;
}

#else  // _WIN32

SubprocessResult RunProcess(const std::vector<std::string>&,
                            const SubprocessLimits&,
                            const std::atomic<int>*) {
  SubprocessResult result;
  result.error = "process isolation requires a POSIX host";
  return result;
}

PersistentProcess::~PersistentProcess() = default;

bool PersistentProcess::Spawn(const std::vector<std::string>&,
                              const SubprocessLimits&, std::string* error) {
  if (error != nullptr) *error = "process isolation requires a POSIX host";
  return false;
}

bool PersistentProcess::WriteLine(const std::string&) { return false; }

PersistentProcess::ReadStatus PersistentProcess::ReadFrame(
    std::string_view, std::uint64_t, const std::atomic<int>*, std::string*) {
  return ReadStatus::kError;
}

SubprocessResult PersistentProcess::Kill() { return SubprocessResult{}; }

SubprocessResult PersistentProcess::Reap() { return SubprocessResult{}; }

SubprocessResult PersistentProcess::Finish(bool) {
  return SubprocessResult{};
}

std::optional<SubprocessResult> PersistentProcess::PollExit() {
  return std::nullopt;
}

#endif

}  // namespace octopocs::support

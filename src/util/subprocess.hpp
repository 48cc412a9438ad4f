// Minimal child-process management for the sweep supervisor.
//
// The supervisor's whole job is to outlive its workers, so this wrapper is
// deliberately tiny and allocation-free after spawn: fork + execvp, a
// non-blocking reap (try_wait) the supervisor polls alongside its
// watchdog deadlines, a SIGKILL escalation, and a destructor that never
// leaks a zombie (a still-running child is killed and reaped — a
// supervisor unwinding from an exception must not leave orphan workers
// appending to the store).
//
// Each child leads its own process group, and every signal goes to the
// whole group, so whatever a worker starts (a shell's `sleep`, say) dies
// with it. A child also gets SIGKILL when the thread that spawned it dies
// (PR_SET_PDEATHSIG), so an interrupted supervisor takes its workers down;
// spawn from a thread that outlives the child.
//
// No pipes: workers communicate through the append-only store log (their
// stdout is routed to /dev/null or a file), which is what makes worker
// death recoverable in the first place — there is no in-flight protocol
// state to lose.
#pragma once

#include <csignal>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>

namespace sm::util {

/// Decoded waitpid status.
struct ExitStatus {
  bool exited = false;    ///< terminated via exit/_exit
  int code = 0;           ///< exit code when `exited`
  bool signaled = false;  ///< terminated by a signal
  int sig = 0;            ///< the signal when `signaled`

  bool ok() const { return exited && code == 0; }
  /// "exit 3" / "signal 9" — for logs.
  std::string describe() const;
};

/// One spawned child. Move-only; the destructor kills (SIGKILL) the
/// child's process group and reaps the child if it is still running.
class Child {
 public:
  /// Fork + execvp. `argv[0]` is the program (PATH-searched), `extra_env`
  /// entries are setenv'd in the child on top of the inherited environment,
  /// and the child's stdout is redirected to `stdout_path` ("" = inherit;
  /// default /dev/null — workers report through the store, not stdout).
  /// stderr is always inherited so worker failures surface in CI logs.
  /// Throws std::runtime_error if fork fails; exec failure surfaces as the
  /// child exiting 127.
  static Child spawn(
      const std::vector<std::string>& argv,
      const std::vector<std::pair<std::string, std::string>>& extra_env = {},
      const std::string& stdout_path = "/dev/null");

  Child() = default;
  ~Child();
  Child(Child&& other) noexcept { *this = std::move(other); }
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool valid() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }

  /// Non-blocking reap: nullopt while still running, the decoded status
  /// once exited (cached — safe to call again after it returns a value).
  std::optional<ExitStatus> try_wait();
  /// Blocking reap.
  ExitStatus wait();
  /// Send `sig` (default SIGKILL) to the child's process group. No-op once
  /// the child is reaped.
  void kill(int sig = SIGKILL);

 private:
  /// SIGKILL the process group and reap the child, unless already reaped.
  void kill_and_reap() noexcept;

  pid_t pid_ = -1;
  std::optional<ExitStatus> status_;
};

/// Absolute path of the running executable (/proc/self/exe), or "" when
/// the platform can't say — the supervisor uses it to re-exec itself as
/// `sm_flow sweep` workers.
std::string self_exe_path();

}  // namespace sm::util

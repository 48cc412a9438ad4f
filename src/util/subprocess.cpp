#include "util/subprocess.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace sm::util {
namespace {

ExitStatus decode(int status) {
  ExitStatus st;
  if (WIFEXITED(status)) {
    st.exited = true;
    st.code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    st.signaled = true;
    st.sig = WTERMSIG(status);
  }
  return st;
}

}  // namespace

std::string ExitStatus::describe() const {
  if (exited) return "exit " + std::to_string(code);
  if (signaled) return "signal " + std::to_string(sig);
  return "unknown";
}

Child Child::spawn(
    const std::vector<std::string>& argv,
    const std::vector<std::pair<std::string, std::string>>& extra_env,
    const std::string& stdout_path) {
  if (argv.empty()) throw std::runtime_error("subprocess: empty argv");
  // Build the exec vector before forking — no allocation between fork and
  // exec (the child of a multithreaded parent may only call async-signal-
  // safe functions; setenv/open below are the pragmatic exceptions every
  // spawner makes, but malloc is where real deadlocks live).
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0)
    throw std::runtime_error(std::string("subprocess: fork failed: ") +
                             std::strerror(errno));
  if (pid == 0) {
    // Lead a process group of our own, so the parent's kill(-pid) also
    // reaches everything this child starts. The parent sets it too: either
    // call may run first, and both must precede the parent's first signal.
    ::setpgid(0, 0);
    // Die with the parent: a killed or interrupted supervisor must not
    // leave workers behind. The signal is armed only now, so check that the
    // parent did not die before it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    for (const auto& [k, v] : extra_env) ::setenv(k.c_str(), v.c_str(), 1);
    if (!stdout_path.empty()) {
      const int fd =
          ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        if (fd != STDOUT_FILENO) ::close(fd);
      }
    }
    ::execvp(cargv[0], cargv.data());
    // exec failed: 127 is the shell convention for "command not found" and
    // unambiguous to the supervisor (never a fault-injection or sweep code).
    ::_exit(127);
  }
  // Fails with EACCES once the child has exec'd, which it does only after
  // its own setpgid: the group exists either way.
  ::setpgid(pid, pid);
  Child c;
  c.pid_ = pid;
  return c;
}

void Child::kill_and_reap() noexcept {
  if (pid_ > 0 && !status_) {
    ::kill(-pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

Child::~Child() { kill_and_reap(); }

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    kill_and_reap();  // our own child first, as the destructor would
    pid_ = other.pid_;
    status_ = other.status_;
    other.pid_ = -1;
    other.status_.reset();
  }
  return *this;
}

std::optional<ExitStatus> Child::try_wait() {
  if (status_ || pid_ <= 0) return status_;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == 0) return std::nullopt;
  if (r < 0) {
    if (errno == EINTR) return std::nullopt;
    throw std::runtime_error(std::string("subprocess: waitpid failed: ") +
                             std::strerror(errno));
  }
  status_ = decode(status);
  return status_;
}

ExitStatus Child::wait() {
  if (status_) return *status_;
  if (pid_ <= 0) throw std::runtime_error("subprocess: wait on invalid child");
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0) {
    if (errno != EINTR)
      throw std::runtime_error(std::string("subprocess: waitpid failed: ") +
                               std::strerror(errno));
  }
  status_ = decode(status);
  return *status_;
}

void Child::kill(int sig) {
  if (pid_ > 0 && !status_) ::kill(-pid_, sig);
}

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return std::string(buf);
}

}  // namespace sm::util

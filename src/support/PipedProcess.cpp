//===- support/PipedProcess.cpp - line-framed bidirectional subprocess ---===//

#include "support/PipedProcess.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <pthread.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace spe;

namespace {

void closePair(int P[2]) {
  if (P[0] >= 0)
    close(P[0]);
  if (P[1] >= 0)
    close(P[1]);
}

} // namespace

PipedProcess::~PipedProcess() {
  if (Pid > 0 && !Waited) {
    kill(SIGKILL);
    wait();
  }
  closeFds();
}

void PipedProcess::closeFds() {
  if (InFd >= 0)
    close(InFd);
  if (OutFd >= 0)
    close(OutFd);
  InFd = OutFd = -1;
}

bool PipedProcess::start(const std::vector<std::string> &Argv,
                         std::string &Err) {
  if (Pid > 0) {
    Err = "already started";
    return false;
  }
  if (Argv.empty()) {
    Err = "empty argv";
    return false;
  }

  // Every pipe is CLOEXEC from creation: a child another thread forks at
  // the same moment must not inherit these ends (it would hold this child's
  // stdin open and its parent would never see EOF). The child's dup2 onto
  // fds 0 and 1 clears the flag where the exec'd program needs it.
  int InP[2] = {-1, -1}, OutP[2] = {-1, -1}, ExecP[2] = {-1, -1};
  if (pipe2(InP, O_CLOEXEC) != 0 || pipe2(OutP, O_CLOEXEC) != 0 ||
      pipe2(ExecP, O_CLOEXEC) != 0) {
    Err = "pipe: " + std::string(std::strerror(errno));
    closePair(InP), closePair(OutP), closePair(ExecP);
    return false;
  }

  std::vector<char *> Args;
  Args.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  pid_t Child = fork();
  if (Child < 0) {
    Err = "fork: " + std::string(std::strerror(errno));
    closePair(InP), closePair(OutP), closePair(ExecP);
    return false;
  }

  if (Child == 0) {
    // Child: async-signal-safe territory only. Own process group so a
    // coordinator kill reaps anything the worker spawned; stderr is left
    // alone on purpose.
    setpgid(0, 0);
    dup2(InP[0], STDIN_FILENO);
    dup2(OutP[1], STDOUT_FILENO);
    closePair(InP), closePair(OutP);
    close(ExecP[0]);
    execvp(Args[0], Args.data());
    int E = errno;
    ssize_t Ignored = write(ExecP[1], &E, sizeof(E));
    (void)Ignored;
    _exit(127);
  }

  // Parent: mirror the child's setpgid so the group exists from both
  // sides' perspective before any kill can race it.
  setpgid(Child, Child);
  close(InP[0]), close(OutP[1]), close(ExecP[1]);

  // The errno pipe: EOF = exec succeeded; an int = the exec's errno.
  int ExecErrno = 0;
  ssize_t Got;
  do
    Got = read(ExecP[0], &ExecErrno, sizeof(ExecErrno));
  while (Got < 0 && errno == EINTR);
  close(ExecP[0]);
  if (Got > 0) {
    Err = "exec " + Argv[0] + ": " + std::strerror(ExecErrno);
    close(InP[1]), close(OutP[0]);
    int St;
    while (waitpid(Child, &St, 0) < 0 && errno == EINTR)
      ;
    return false;
  }

  Pid = Child;
  InFd = InP[1];
  OutFd = OutP[0];
  return true;
}

bool PipedProcess::writeLine(const std::string &Line) {
  if (InFd < 0)
    return false;
  std::string Framed = Line;
  Framed += '\n';
  size_t At = 0;
  while (At < Framed.size()) {
    // SIGPIPE blocked for the write: a dead child must surface as EPIPE
    // here, not kill the coordinator (the ProcessRunner stdin idiom).
    sigset_t PipeSet, Old;
    sigemptyset(&PipeSet);
    sigaddset(&PipeSet, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &PipeSet, &Old);
    ssize_t W;
    do
      W = write(InFd, Framed.data() + At, Framed.size() - At);
    while (W < 0 && errno == EINTR);
    if (W < 0 && errno == EPIPE) {
      timespec Zero = {0, 0};
      sigtimedwait(&PipeSet, nullptr, &Zero);
    }
    int E = errno;
    pthread_sigmask(SIG_SETMASK, &Old, nullptr);
    if (W < 0) {
      (void)E;
      return false;
    }
    At += static_cast<size_t>(W);
  }
  return true;
}

bool PipedProcess::readLine(std::string &Line) {
  for (;;) {
    size_t NL = Buf.find('\n');
    if (NL != std::string::npos) {
      Line = Buf.substr(0, NL);
      Buf.erase(0, NL + 1);
      return true;
    }
    if (OutFd < 0)
      return false;
    char Chunk[1 << 14];
    ssize_t Got;
    do
      Got = read(OutFd, Chunk, sizeof(Chunk));
    while (Got < 0 && errno == EINTR);
    if (Got <= 0) {
      Buf.clear(); // Unterminated fragment: the child died mid-line.
      return false;
    }
    Buf.append(Chunk, static_cast<size_t>(Got));
  }
}

void PipedProcess::closeStdin() {
  if (InFd >= 0)
    close(InFd);
  InFd = -1;
}

void PipedProcess::kill(int Sig) {
  if (Pid <= 0 || Waited)
    return;
  if (::kill(-Pid, Sig) != 0)
    ::kill(Pid, Sig);
}

int PipedProcess::wait() {
  if (Pid <= 0 || Waited)
    return Status;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
    ;
  Waited = true;
  return Status;
}

//===- support/PipedProcess.cpp - line-framed bidirectional subprocess ---===//

#include "support/PipedProcess.h"

#include "support/Spawn.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

using namespace spe;

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
  // Both pipes are CLOEXEC from creation: a child another thread spawns at
  // the same moment must not inherit these ends (it would hold this
  // child's stdin open and its parent would never see EOF). stderr is
  // inherited on purpose.
  int InP[2] = {-1, -1}, OutP[2] = {-1, -1};
  if (pipe2(InP, O_CLOEXEC) != 0 || pipe2(OutP, O_CLOEXEC) != 0) {
    Err = "pipe: " + std::string(std::strerror(errno));
    closePipe(InP), closePipe(OutP);
    return false;
  }
  pid_t Child = spawnProcess(Argv, {InP[0], OutP[1], -1}, Err);
  close(InP[0]), close(OutP[1]);
  if (Child < 0) {
    close(InP[1]), close(OutP[0]);
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
    // A dead child surfaces as EPIPE here instead of killing the caller.
    ssize_t W = writeNoSigpipe(InFd, Framed.data() + At, Framed.size() - At);
    if (W < 0)
      return false;
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
  reapProcess(Pid, Status);
  Waited = true;
  return Status;
}

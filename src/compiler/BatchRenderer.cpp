//===- compiler/BatchRenderer.cpp - pack variants into one TU ------------===//

#include "compiler/BatchRenderer.h"

#include "lang/Lexer.h"
#include "support/Diagnostics.h"

using namespace spe;

namespace {

/// Library names declared by the compile prelude rather than the variant
/// itself; renaming one would sever the libc/prelude linkage the variant
/// depends on. The mini-C dialect knows exactly two: printf and the
/// harness's spe_input() sweep intrinsic.
bool isPreservedName(const std::string &Name) {
  return Name == "printf" || Name == "spe_input";
}

/// The packed binary's main, linked from its own object: it reads the
/// member table every packed TU defines. argv is "<deadline ms> <output
/// cap> <member>..."; each member runs in a child forked from this
/// untouched image, fed the stdin bytes the parent read up front, and its
/// outcome goes to stdout as the frame "<member> <x|s|t> <exit
/// code|signal|0> <length>\n<stdout>" (x exited, s killed by a signal, t
/// killed at its deadline). The parent never touches stdio, so a child
/// inherits no buffered bytes, and every frame leaves through write(2).
/// Any failure of the dispatcher itself -- bad argv, a failed pipe, fork
/// or write -- exits 2 at once, which frames() reads as "no member
/// observed". Children stay in the dispatcher's process group, so a kill
/// of the group takes them too.
const char DispatcherSource[] = R"(#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

extern int (*const spe_d_members[])(void);
extern const unsigned long spe_d_count;

static int spe_d_num(const char *spe_d_s, unsigned long long *spe_d_v) {
  *spe_d_v = 0;
  if (!*spe_d_s)
    return 0;
  for (; *spe_d_s; ++spe_d_s) {
    if (*spe_d_s < '0' || *spe_d_s > '9' || *spe_d_v > 100000000000000ull)
      return 0;
    *spe_d_v = *spe_d_v * 10 + (unsigned long long)(*spe_d_s - '0');
  }
  return 1;
}

static long long spe_d_now_ms(void) {
  struct timespec spe_d_t;
  clock_gettime(CLOCK_MONOTONIC, &spe_d_t);
  return (long long)spe_d_t.tv_sec * 1000 + spe_d_t.tv_nsec / 1000000;
}

static void spe_d_put(const char *spe_d_p, size_t spe_d_n) {
  while (spe_d_n > 0) {
    ssize_t spe_d_w = write(1, spe_d_p, spe_d_n);
    if (spe_d_w < 0 && errno == EINTR)
      continue;
    if (spe_d_w <= 0)
      _exit(2);
    spe_d_p += spe_d_w;
    spe_d_n -= (size_t)spe_d_w;
  }
}

static void spe_d_run(unsigned long spe_d_k, const char *spe_d_in,
                      size_t spe_d_inlen, long long spe_d_limit,
                      size_t spe_d_cap) {
  int spe_d_ip[2], spe_d_op[2], spe_d_st = 0, spe_d_killed = 0, spe_d_h;
  size_t spe_d_sent = 0, spe_d_len = 0, spe_d_size = 0;
  char *spe_d_out = 0, spe_d_head[96];
  long long spe_d_end = spe_d_now_ms() + spe_d_limit;
  pid_t spe_d_pid;
  if (pipe(spe_d_ip) != 0 || pipe(spe_d_op) != 0)
    _exit(2);
  spe_d_pid = fork();
  if (spe_d_pid < 0)
    _exit(2);
  if (spe_d_pid == 0) {
    signal(SIGPIPE, SIG_DFL);
    dup2(spe_d_ip[0], 0);
    dup2(spe_d_op[1], 1);
    close(spe_d_ip[0]);
    close(spe_d_ip[1]);
    close(spe_d_op[0]);
    close(spe_d_op[1]);
    exit(spe_d_members[spe_d_k]());
  }
  close(spe_d_ip[0]);
  close(spe_d_op[1]);
  if (spe_d_inlen == 0) {
    close(spe_d_ip[1]);
    spe_d_ip[1] = -1;
  } else {
    fcntl(spe_d_ip[1], F_SETFL, O_NONBLOCK);
  }
  while (spe_d_op[0] >= 0) {
    struct pollfd spe_d_fd[2];
    int spe_d_nfd = 1, spe_d_wait = -1;
    if (spe_d_limit > 0 && !spe_d_killed) {
      long long spe_d_left = spe_d_end - spe_d_now_ms();
      if (spe_d_left <= 0) {
        kill(spe_d_pid, SIGKILL);
        spe_d_killed = 1;
      } else {
        spe_d_wait = spe_d_left > 1000000000 ? 1000000000 : (int)spe_d_left;
      }
    }
    spe_d_fd[0].fd = spe_d_op[0];
    spe_d_fd[0].events = POLLIN;
    spe_d_fd[0].revents = 0;
    if (spe_d_ip[1] >= 0) {
      spe_d_fd[1].fd = spe_d_ip[1];
      spe_d_fd[1].events = POLLOUT;
      spe_d_fd[1].revents = 0;
      spe_d_nfd = 2;
    }
    if (poll(spe_d_fd, spe_d_nfd, spe_d_wait) < 0) {
      if (errno == EINTR)
        continue;
      _exit(2);
    }
    if (spe_d_nfd == 2 && spe_d_fd[1].revents) {
      ssize_t spe_d_w = write(spe_d_ip[1], spe_d_in + spe_d_sent,
                              spe_d_inlen - spe_d_sent);
      if (spe_d_w > 0)
        spe_d_sent += (size_t)spe_d_w;
      if (spe_d_sent == spe_d_inlen ||
          (spe_d_w < 0 && errno != EINTR && errno != EAGAIN)) {
        close(spe_d_ip[1]);
        spe_d_ip[1] = -1;
      }
    }
    if (spe_d_fd[0].revents) {
      char spe_d_buf[4096];
      ssize_t spe_d_r = read(spe_d_op[0], spe_d_buf, sizeof spe_d_buf);
      size_t spe_d_keep;
      if (spe_d_r < 0 && errno == EINTR)
        continue;
      if (spe_d_r <= 0) {
        close(spe_d_op[0]);
        spe_d_op[0] = -1;
        continue;
      }
      spe_d_keep = spe_d_cap - spe_d_len < (size_t)spe_d_r
                       ? spe_d_cap - spe_d_len
                       : (size_t)spe_d_r;
      if (spe_d_len + spe_d_keep > spe_d_size) {
        spe_d_size = spe_d_size * 2 > spe_d_len + spe_d_keep
                         ? spe_d_size * 2
                         : spe_d_len + spe_d_keep;
        spe_d_out = (char *)realloc(spe_d_out, spe_d_size);
        if (!spe_d_out)
          _exit(2);
      }
      memcpy(spe_d_out + spe_d_len, spe_d_buf, spe_d_keep);
      spe_d_len += spe_d_keep;
    }
  }
  if (spe_d_ip[1] >= 0)
    close(spe_d_ip[1]);
  while (waitpid(spe_d_pid, &spe_d_st, 0) < 0)
    if (errno != EINTR)
      _exit(2);
  spe_d_h = snprintf(
      spe_d_head, sizeof spe_d_head, "%lu %c %d %lu\n", spe_d_k,
      spe_d_killed ? 't' : WIFSIGNALED(spe_d_st) ? 's' : 'x',
      spe_d_killed ? 0
      : WIFSIGNALED(spe_d_st) ? WTERMSIG(spe_d_st)
                             : WEXITSTATUS(spe_d_st),
      (unsigned long)spe_d_len);
  spe_d_put(spe_d_head, (size_t)spe_d_h);
  spe_d_put(spe_d_out, spe_d_len);
  free(spe_d_out);
}

int main(int argc, char **argv) {
  unsigned long long spe_d_limit, spe_d_cap, spe_d_k;
  char *spe_d_in = 0;
  size_t spe_d_inlen = 0, spe_d_size = 0;
  int spe_d_a;
  if (argc < 3 || !spe_d_num(argv[1], &spe_d_limit) ||
      !spe_d_num(argv[2], &spe_d_cap))
    return 2;
  for (spe_d_a = 3; spe_d_a < argc; ++spe_d_a)
    if (!spe_d_num(argv[spe_d_a], &spe_d_k) || spe_d_k >= spe_d_count)
      return 2;
  signal(SIGPIPE, SIG_IGN);
  for (;;) {
    ssize_t spe_d_r;
    if (spe_d_inlen == spe_d_size) {
      spe_d_size = spe_d_size ? spe_d_size * 2 : 4096;
      spe_d_in = (char *)realloc(spe_d_in, spe_d_size);
      if (!spe_d_in)
        return 2;
    }
    spe_d_r = read(0, spe_d_in + spe_d_inlen, spe_d_size - spe_d_inlen);
    if (spe_d_r < 0 && errno == EINTR)
      continue;
    if (spe_d_r < 0)
      return 2;
    if (spe_d_r == 0)
      break;
    spe_d_inlen += (size_t)spe_d_r;
  }
  for (spe_d_a = 3; spe_d_a < argc; ++spe_d_a) {
    spe_d_num(argv[spe_d_a], &spe_d_k);
    spe_d_run((unsigned long)spe_d_k, spe_d_in, spe_d_inlen,
              (long long)spe_d_limit, (size_t)spe_d_cap);
  }
  return 0;
}
)";

/// Headroom of a dispatcher's own deadline over the sum of its members'.
constexpr uint64_t DispatchSlackMs = 1000;

/// Parses the decimal field [B, E) of \p S; no sign, no empty field.
bool parseField(const std::string &S, size_t B, size_t E, uint64_t &V) {
  V = 0;
  if (B >= E || E - B > 18)
    return false;
  for (size_t I = B; I < E; ++I) {
    if (S[I] < '0' || S[I] > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(S[I] - '0');
  }
  return true;
}

} // namespace

bool BatchRenderer::prefixIdentifiers(const std::string &Source,
                                      const std::string &Prefix,
                                      std::string &Out, std::string &Error) {
  DiagnosticEngine Diags;
  Lexer Lex(Source, Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  if (Diags.hasErrors()) {
    Error = "variant does not re-lex: " + Diags.toString();
    return false;
  }

  // Token locations are 1-based line/column; rebuild byte offsets from the
  // line starts so the prefix splices into the raw text and everything
  // that is not an identifier survives byte-for-byte.
  std::vector<size_t> LineStart{0};
  for (size_t I = 0; I < Source.size(); ++I)
    if (Source[I] == '\n')
      LineStart.push_back(I + 1);

  Out.clear();
  Out.reserve(Source.size() + Tokens.size() * Prefix.size());
  size_t Prev = 0;
  for (const Token &T : Tokens) {
    if (T.Kind != TokenKind::Identifier || isPreservedName(T.Text))
      continue;
    if (!T.Loc.isValid() || T.Loc.Line > LineStart.size()) {
      Error = "identifier token with an unusable location";
      return false;
    }
    size_t Off = LineStart[T.Loc.Line - 1] + (T.Loc.Column - 1);
    // The raw text at the computed offset must spell the token; anything
    // else means the location math and the lexer disagree, and splicing
    // would corrupt the program.
    if (Off < Prev || Source.compare(Off, T.Text.size(), T.Text) != 0) {
      Error = "identifier token location does not match the source text";
      return false;
    }
    Out.append(Source, Prev, Off - Prev);
    Out += Prefix;
    Prev = Off;
  }
  Out.append(Source, Prev, Source.size() - Prev);
  return true;
}

BatchRenderer::Result
BatchRenderer::pack(const std::vector<std::string> &Variants,
                    const std::string &Prelude) {
  std::vector<size_t> All(Variants.size());
  for (size_t I = 0; I < All.size(); ++I)
    All[I] = I;
  return pack(Variants, All, Prelude);
}

BatchRenderer::Result
BatchRenderer::pack(const std::vector<std::string> &Variants,
                    const std::vector<size_t> &Subset,
                    const std::string &Prelude) {
  Result R;
  if (Subset.empty()) {
    R.Error = "empty batch";
    return R;
  }
  R.Source = Prelude;
  std::string Renamed;
  for (size_t Local = 0; Local < Subset.size(); ++Local) {
    const std::string &Variant = Variants[Subset[Local]];
    std::string Prefix = "v" + std::to_string(Local) + "_";
    if (!prefixIdentifiers(Variant, Prefix, Renamed, R.Error)) {
      R.Source.clear();
      return R;
    }
    R.Source += "/* variant " + std::to_string(Local) + " */\n";
    R.Source += Renamed;
    if (!R.Source.empty() && R.Source.back() != '\n')
      R.Source += '\n';
  }

  // The member table the dispatcher's main reads: full C (this text never
  // passes through the mini-C frontend).
  R.Source += "/* dispatch table */\n"
              "int (*const spe_d_members[])(void) = {\n";
  for (size_t Local = 0; Local < Subset.size(); ++Local)
    R.Source += "  v" + std::to_string(Local) + "_main,\n";
  R.Source += "};\n"
              "const unsigned long spe_d_count = " +
              std::to_string(Subset.size()) + ";\n";
  R.Ok = true;
  return R;
}

const char *BatchRenderer::dispatcherSource() { return DispatcherSource; }

BatchRenderer::Dispatch
BatchRenderer::dispatch(const std::string &Bin,
                        const std::vector<size_t> &Members,
                        const ProcessOptions &Member) {
  Dispatch D;
  D.Members = Members;
  D.Argv = {Bin, std::to_string(Member.TimeoutMs),
            std::to_string(Member.MaxOutputBytes)};
  for (size_t M : Members)
    D.Argv.push_back(std::to_string(M));
  D.Opts.StdinData = Member.StdinData;
  // Every frame fits under one member's cap in any batch whose members
  // print ordinary amounts; a batch that fills it resolves solo.
  D.Opts.MaxOutputBytes = Member.MaxOutputBytes;
  if (Member.TimeoutMs != 0)
    D.Opts.TimeoutMs = Member.TimeoutMs * Members.size() + DispatchSlackMs;
  return D;
}

std::vector<ProcessResult> BatchRenderer::frames(const Dispatch &D,
                                                 const ProcessResult &Run) {
  std::vector<ProcessResult> Out(D.Members.size());
  // Members from \p From on get no observation.
  auto Unobserved = [&Out](size_t From, const std::string &Why) {
    for (size_t M = From; M < Out.size(); ++M) {
      Out[M] = ProcessResult();
      Out[M].Error = Why;
    }
    return Out;
  };
  if (!Run.exitedWith(0))
    return Unobserved(0, "batch dispatcher did not exit 0");
  const std::string &S = Run.Stdout;
  if (S.size() >= D.Opts.MaxOutputBytes)
    return Unobserved(0, "batch dispatcher filled its output cap");
  size_t Pos = 0;
  for (size_t M = 0; M < D.Members.size(); ++M) {
    // "<member> <x|s|t> <value> <length>\n" then <length> stdout bytes.
    size_t NL = S.find('\n', Pos);
    size_t Sp1 = S.find(' ', Pos);
    size_t Sp3 = Sp1 == std::string::npos ? Sp1 : S.find(' ', Sp1 + 3);
    uint64_t Member, Value, Len;
    if (NL == std::string::npos || Sp3 == std::string::npos || Sp3 > NL ||
        S[Sp1 + 2] != ' ' || !parseField(S, Pos, Sp1, Member) ||
        Member != D.Members[M] || !parseField(S, Sp1 + 3, Sp3, Value) ||
        !parseField(S, Sp3 + 1, NL, Len) || Len > S.size() - (NL + 1))
      return Unobserved(M, "missing or malformed batch frame");
    ProcessResult &R = Out[M];
    switch (S[Sp1 + 1]) {
    case 'x':
      R.St = ProcessResult::Status::Exited;
      R.ExitCode = static_cast<int>(Value);
      break;
    case 's':
      R.St = ProcessResult::Status::Signaled;
      R.Signal = static_cast<int>(Value);
      break;
    case 't':
      R.St = ProcessResult::Status::TimedOut;
      break;
    default:
      return Unobserved(M, "missing or malformed batch frame");
    }
    R.Stdout = S.substr(NL + 1, Len);
    Pos = NL + 1 + Len;
  }
  if (Pos != S.size())
    return Unobserved(0, "bytes after the last batch frame");
  return Out;
}

//===- persist/LineText.h - shared line-text serialization ----------------===//
//
// The low-level pieces of the checkpoint file format, factored out so other
// line-framed formats (the fleet lease journal, the coordinator/worker wire
// protocol) serialize CampaignResults and escaped tokens with the *same*
// bytes the checkpoint writer produces. Checkpoint.cpp is the reference
// consumer; golden-byte tests there pin every helper in this header.
//
//===----------------------------------------------------------------------===//

#ifndef SPE_PERSIST_LINETEXT_H
#define SPE_PERSIST_LINETEXT_H

#include "testing/Harness.h"

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace spe {
namespace linetext {

/// Incremental FNV-1a over decimal-text renderings, so fingerprints and file
/// checksums are independent of host endianness and word size.
struct Fnv {
  uint64_t H = 1469598103934665603ull;
  void bytes(const char *P, size_t N) {
    for (size_t I = 0; I < N; ++I) {
      H ^= static_cast<unsigned char>(P[I]);
      H *= 1099511628211ull;
    }
  }
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
  void u64(uint64_t V) {
    std::string T = std::to_string(V);
    bytes(T.data(), T.size());
    bytes("|", 1);
  }
};

/// Appends the FNV-1a "checksum <u64>" trailer line over \p Body: the last
/// line of checkpoints, fleet fragments and the fleet lease journal.
std::string withChecksumTrailer(std::string Body);

/// Verifies and strips the trailer; \returns false with \p Err set on a
/// missing, malformed, or mismatching checksum.
bool stripChecksumTrailer(const std::string &Text, std::string &Body,
                          std::string &Err);

/// Escapes \p S into a whitespace-free token ("\e" for the empty string).
std::string escapeToken(const std::string &S);

bool unescapeToken(const std::string &T, std::string &Out);

bool parseU64(const std::string &T, uint64_t &Out);

bool parseI64(const std::string &T, int64_t &Out);

/// Serializes the checkpointed portion of a CampaignResult: the 14 campaign
/// counters plus both finding maps. Triaged/Reduction are deliberately not
/// part of the format -- triage runs post-campaign from the final snapshot
/// and is deterministic, so persisting its output would only duplicate
/// state (DESIGN.md Section 11). OracleStoreBytes is re-derived at
/// campaign end.
void writeResult(std::ostringstream &Out, const CampaignResult &R);

void writeCov(std::ostringstream &Out, const std::set<std::string> &Hits);

/// Tokenized line reader with sticky first-error diagnostics.
struct Reader {
  std::vector<std::vector<std::string>> Lines;
  size_t At = 0;
  std::string Err;

  explicit Reader(const std::string &Text);

  bool fail(const std::string &Msg);

  /// Consumes the next line, requiring keyword \p Kw and exactly \p NTokens
  /// tokens (keyword included). \returns null after recording an error.
  const std::vector<std::string> *line(const char *Kw, size_t NTokens);

  bool u64(const std::string &T, uint64_t &Out);
  bool i64(const std::string &T, int64_t &Out);
  bool strTok(const std::string &T, std::string &Out);
  bool boolTok(const std::string &T, bool &Out);
};

bool readResult(Reader &R, CampaignResult &Out);

bool readCov(Reader &R, std::set<std::string> &Out);

} // namespace linetext
} // namespace spe

#endif // SPE_PERSIST_LINETEXT_H

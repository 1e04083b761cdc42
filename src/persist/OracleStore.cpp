//===- persist/OracleStore.cpp - on-disk oracle-verdict log --------------===//

#include "persist/OracleStore.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

using namespace spe;

namespace {

/// File magic; bump the version on any record-layout, key or oracle
/// semantics change so older logs load cold instead of being misparsed or
/// replayed. v2 keys carry the step budget (oracleCacheKey); v3 verdicts
/// end block-scope lifetimes, so a v2 Ok may read a dead block.
const char Magic[] = "SPE-ORACLE-LOG v3\n";
constexpr size_t MagicLen = sizeof(Magic) - 1;

/// Reads up to \p MaxBytes of \p Path into \p Out. \returns false when the
/// file cannot be opened.
bool readPrefix(const std::string &Path, uint64_t MaxBytes,
                std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  char Buf[1 << 16];
  while (Out.size() < MaxBytes) {
    size_t Want = sizeof(Buf);
    if (MaxBytes - Out.size() < Want)
      Want = static_cast<size_t>(MaxBytes - Out.size());
    size_t Got = std::fread(Buf, 1, Want, F);
    if (Got == 0)
      break;
    Out.append(Buf, Got);
  }
  std::fclose(F);
  return true;
}

} // namespace

uint64_t OracleStore::loadInto(OracleCache &Cache, uint64_t MaxBytes,
                               uint64_t *ValidBytes) const {
  if (ValidBytes)
    *ValidBytes = 0;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return 0; // Cold store.
  // Streaming, one record in memory at a time: cross-generation logs grow
  // with every campaign, and slurping the whole file would make startup
  // peak RAM scale with total history.
  char Head[MagicLen];
  if (MaxBytes < MagicLen || std::fread(Head, 1, MagicLen, F) != MagicLen ||
      std::memcmp(Head, Magic, MagicLen) != 0) {
    std::fclose(F);
    return 0; // Unknown header or version: treat as cold rather than guess.
  }

  uint64_t Loaded = 0;
  uint64_t At = MagicLen;
  if (ValidBytes)
    *ValidBytes = At; // Valid-but-empty log: keep the header.
  // Upper bound for the header's length fields: a corrupt SrcLen/OutLen
  // must end the valid prefix, not feed resize() an absurd allocation.
  uint64_t FileBytes = bytesOnDisk();
  char Header[128];
  std::string Src, Out;
  for (;;) {
    if (!std::fgets(Header, sizeof(Header), F))
      break; // EOF.
    size_t HLen = std::strlen(Header);
    if (HLen == 0 || Header[HLen - 1] != '\n')
      break; // Torn or overlong header: stop at the valid prefix.
    uint64_t SrcLen = 0, OutLen = 0;
    unsigned FrontendOk = 0, Status = 0;
    long long Exit = 0;
    int Fields = std::sscanf(Header, "R %" SCNu64 " %u %u %lld %" SCNu64,
                             &SrcLen, &FrontendOk, &Status, &Exit, &OutLen);
    if (Fields != 5)
      break; // Torn or foreign record header: stop at the valid prefix.
    // A verdict feeds the differential arbiter directly, so a corrupt
    // byte must end the valid prefix, not replay as an arbitrary enum.
    if (FrontendOk > 1 ||
        Status > static_cast<unsigned>(ExecStatus::Unsupported))
      break;
    // Length fields that cannot possibly fit the file are corruption
    // (this also keeps the RecordBytes sum overflow-free below).
    if (SrcLen > FileBytes || OutLen > FileBytes)
      break;
    // Payload + trailing newline must be fully present and inside the
    // caller's byte budget (a checkpoint's recorded valid length always
    // falls on a record boundary).
    uint64_t RecordBytes = HLen + SrcLen + OutLen + 1;
    if (At + RecordBytes > MaxBytes)
      break;
    Src.resize(SrcLen);
    Out.resize(OutLen);
    if ((SrcLen != 0 && std::fread(&Src[0], 1, SrcLen, F) != SrcLen) ||
        (OutLen != 0 && std::fread(&Out[0], 1, OutLen, F) != OutLen) ||
        std::fgetc(F) != '\n')
      break; // Torn payload.
    OracleCache::Entry E;
    E.FrontendOk = FrontendOk != 0;
    E.Status = static_cast<ExecStatus>(Status);
    E.ExitCode = Exit;
    E.Output = Out;
    Cache.insert(Src, std::move(E));
    ++Loaded;
    At += RecordBytes;
    if (ValidBytes)
      *ValidBytes = At;
  }
  std::fclose(F);
  return Loaded;
}

bool OracleStore::append(const std::vector<Record> &Batch) {
  if (Batch.empty())
    return true;
  // Freshness is judged by header inspection, not existence: a crash can
  // die between creating the file and getting the magic to disk, and a
  // magic-less log would be unparseable forever. A missing file or a
  // *prefix of our magic* (the torn-header signature) is restarted from
  // scratch ("wb" truncates the partial header away). Anything else --
  // short or long, a foreign file at the store path or a future format --
  // is refused outright: appending after unparseable content would
  // strand the records forever, and truncating would destroy data this
  // layer does not own.
  std::string Head;
  readPrefix(Path, MagicLen, Head);
  bool Fresh = Head.size() < MagicLen;
  if (Head.compare(0, Head.size(), Magic, Head.size()) != 0)
    return false;
  std::FILE *F = std::fopen(Path.c_str(), Fresh ? "wb" : "ab");
  if (!F)
    return false;
  bool Ok = true;
  if (Fresh)
    Ok = std::fwrite(Magic, 1, MagicLen, F) == MagicLen;
  for (const Record &R : Batch) {
    if (!Ok)
      break;
    const std::string &Src = R.first;
    const OracleCache::Entry &E = R.second;
    Ok = std::fprintf(F, "R %" PRIu64 " %u %u %lld %" PRIu64 "\n",
                      static_cast<uint64_t>(Src.size()),
                      E.FrontendOk ? 1u : 0u,
                      static_cast<unsigned>(E.Status),
                      static_cast<long long>(E.ExitCode),
                      static_cast<uint64_t>(E.Output.size())) > 0 &&
         std::fwrite(Src.data(), 1, Src.size(), F) == Src.size() &&
         std::fwrite(E.Output.data(), 1, E.Output.size(), F) ==
             E.Output.size() &&
         std::fputc('\n', F) != EOF;
  }
  Ok = std::fflush(F) == 0 && Ok;
  // Checkpoint snapshots record this log's byte length as already
  // durable, so push the records past the kernel cache before any
  // snapshot referencing them can be written; on first creation the
  // directory entry must be durable too, or power loss could leave a
  // snapshot referencing a log that no longer exists.
  Ok = Ok && ::fsync(fileno(F)) == 0;
  std::fclose(F);
  if (Ok && Fresh)
    fsyncParentDir(Path);
  return Ok;
}

uint64_t OracleStore::bytesOnDisk() const {
  std::error_code EC;
  uint64_t Size = std::filesystem::file_size(Path, EC);
  return EC ? 0 : Size;
}

bool spe::fsyncParentDir(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  if (Dir.empty())
    Dir = "/";
  int Fd = ::open(Dir.c_str(), O_RDONLY);
  if (Fd < 0)
    return false;
  bool Ok = ::fsync(Fd) == 0;
  ::close(Fd);
  return Ok;
}

bool OracleStore::truncateTo(uint64_t Bytes) const {
  std::error_code EC;
  uint64_t Size = std::filesystem::file_size(Path, EC);
  if (EC || Size <= Bytes)
    return true; // Missing or already short enough.
  std::filesystem::resize_file(Path, Bytes, EC);
  return !EC;
}

//===- tests/testing_status_feed_test.cpp - status feed hardening ---------===//
//
// Regression tests for three CampaignStatusFeed bugs the fleet layer leans on:
//
//  1. writeNow() used to discard atomicWriteFile failures (the Err string
//     was dead) while serializeLocked pre-counted the in-flight write as
//     Writes + 1 -- so after one failed write the on-disk "writes" counter
//     lied on the next success, and nothing anywhere recorded the failure.
//
//  2. The windowed variants/sec divided over a zero-millisecond interval
//     when two writes landed in the same nowMs() tick (EveryMs=0 feeds do
//     this constantly); the `if (WinMs > 0)` guard silently reported 0.0
//     for a window that actually enumerated variants.
//
//  3. Concurrent writeNow() calls from shard workers serialized under the
//     state mutex but wrote outside it through one shared temp file, so
//     one writer's rename failed under another's and nothing kept an
//     older document from replacing a newer one.
//
//===----------------------------------------------------------------------===//

#include "testing/CampaignStatus.h"

#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace spe;

namespace {

std::string readFile(const std::string &Path) {
  std::string Text;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Text;
  char Buf[1 << 12];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, Got);
  std::fclose(F);
  return Text;
}

/// Pulls the numeric value of \p Key out of a flat JSON document.
std::string jsonValue(const std::string &Doc, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":";
  size_t At = Doc.find(Needle);
  if (At == std::string::npos)
    return "";
  At += Needle.size();
  size_t End = At;
  while (End < Doc.size() && Doc[End] != ',' && Doc[End] != '}')
    ++End;
  return Doc.substr(At, End - At);
}

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/spe-status-test-XXXXXX";
    Path = mkdtemp(Buf);
  }
  ~TempDir() {
    std::remove((Path + "/status.json").c_str());
    std::remove((Path + "/status.json.tmp").c_str());
    ::rmdir(Path.c_str());
  }
};

//===----------------------------------------------------------------------===//
// Bug 1: failed writes must be surfaced and never counted
//===----------------------------------------------------------------------===//

TEST(StatusFeedWriteFailures, UnwritablePathIsCountedNotSwallowed) {
  TempDir Tmp;
  CampaignStatusFeed::Options O;
  // The parent directory does not exist, so the .tmp open fails.
  O.Path = Tmp.Path + "/no-such-dir/status.json";
  O.EveryMs = 0;
  CampaignStatusFeed Feed(O);

  Feed.writeNow();
  Feed.writeNow();
  EXPECT_EQ(Feed.writes(), 0u);
  EXPECT_EQ(Feed.writeFailures(), 2u);
}

TEST(StatusFeedWriteFailures, DocCountsOnlyCommittedWrites) {
  TempDir Tmp;
  std::string MissingDir = Tmp.Path + "/late-dir";
  CampaignStatusFeed::Options O;
  O.Path = MissingDir + "/status.json";
  O.EveryMs = 0;
  CampaignStatusFeed Feed(O);

  // First write fails (directory missing)...
  Feed.writeNow();
  ASSERT_EQ(Feed.writes(), 0u);
  ASSERT_EQ(Feed.writeFailures(), 1u);

  // ...then the directory appears and the next write commits. The document
  // must report the committed writes BEFORE it (0) and the failure tally
  // (1). The pre-fix code emitted "writes":1 here (the Writes+1 pre-count)
  // and had no write_failures field at all.
  ASSERT_EQ(::mkdir(MissingDir.c_str(), 0755), 0);
  Feed.writeNow();
  EXPECT_EQ(Feed.writes(), 1u);

  std::string Doc = readFile(O.Path);
  ASSERT_FALSE(Doc.empty());
  EXPECT_EQ(jsonValue(Doc, "writes"), "0");
  EXPECT_EQ(jsonValue(Doc, "write_failures"), "1");

  // A further committed write advances the on-disk counter by exactly one.
  Feed.writeNow();
  Doc = readFile(O.Path);
  EXPECT_EQ(jsonValue(Doc, "writes"), "1");
  EXPECT_EQ(jsonValue(Doc, "write_failures"), "1");

  std::remove(O.Path.c_str());
  ::rmdir(MissingDir.c_str());
}

//===----------------------------------------------------------------------===//
// Bug 2: same-tick writes must not zero the windowed rate
//===----------------------------------------------------------------------===//

uint64_t FrozenNow = 1000;
uint64_t frozenClock() { return FrozenNow; }

TEST(StatusFeedWindowMath, SameTickWriteKeepsNonZeroRate) {
  TempDir Tmp;
  CampaignStatusFeed::Options O;
  O.Path = Tmp.Path + "/status.json";
  O.EveryMs = 0;
  CampaignStatusFeed Feed(O);
  FrozenNow = 1000;
  Feed.setClockForTest(&frozenClock);

  StatusCounters Base;
  Feed.beginCampaign(1, 0, Base); // First write at t=1000 (window = start).
  Feed.beginSeed(1);

  // 50 variants land and a second write happens in the SAME millisecond
  // tick: the window is 0 ms wide but saw 50 variants. Pre-fix this
  // serialized "variants_per_sec":0.000; the clamped math reports the
  // 50 variants over a 1 ms floor instead.
  for (int I = 0; I < 50; ++I)
    Feed.noteVariant();
  Feed.writeNow();

  std::string Doc = readFile(O.Path);
  ASSERT_FALSE(Doc.empty());
  EXPECT_EQ(jsonValue(Doc, "variants"), "50");
  EXPECT_EQ(jsonValue(Doc, "variants_per_sec"), "50000.000");
  // Total rate has the same zero-uptime hazard on the clamped path.
  EXPECT_EQ(jsonValue(Doc, "variants_per_sec_total"), "50000.000");
}

TEST(StatusFeedWindowMath, AdvancingClockStillComputesRealRates) {
  TempDir Tmp;
  CampaignStatusFeed::Options O;
  O.Path = Tmp.Path + "/status.json";
  O.EveryMs = 0;
  CampaignStatusFeed Feed(O);
  FrozenNow = 5000;
  Feed.setClockForTest(&frozenClock);

  StatusCounters Base;
  Feed.beginCampaign(1, 0, Base); // Window anchor: t=5000, 0 variants.

  for (int I = 0; I < 200; ++I)
    Feed.noteVariant();
  FrozenNow = 5500; // 200 variants over a real 500 ms window.
  Feed.writeNow();

  std::string Doc = readFile(O.Path);
  EXPECT_EQ(jsonValue(Doc, "variants_per_sec"), "400.000");
  EXPECT_EQ(jsonValue(Doc, "uptime_ms"), "500");
}

//===----------------------------------------------------------------------===//
// Bug 3: concurrent writers must not race on the shared temp file
//===----------------------------------------------------------------------===//

std::atomic<uint64_t> TickingNow{0};
uint64_t tickingClock() { return TickingNow.fetch_add(1) + 1; }

constexpr unsigned WriterThreads = 4;
constexpr unsigned WritesPerThread = 200;

TEST(StatusFeedConcurrentWrites, WritersNeverCollideAndTheNewestDocWins) {
  TempDir Tmp;
  CampaignStatusFeed::Options O;
  O.Path = Tmp.Path + "/status.json";
  O.EveryMs = 0;
  CampaignStatusFeed Feed(O);
  // The clock ticks once per read, and each writeNow() reads it once, so
  // the document of the last generation reports the largest uptime_ms:
  // one tick per write after the clock's installation.
  TickingNow = 0;
  Feed.setClockForTest(&tickingClock);

  // Shard workers all write at EveryMs = 0. Unordered, two writers
  // truncate and rename the one status.json.tmp under each other (a
  // failed rename) and an older document can land last.
  std::vector<std::thread> Writers;
  for (unsigned T = 0; T < WriterThreads; ++T)
    Writers.emplace_back([&Feed] {
      for (unsigned I = 0; I < WritesPerThread; ++I)
        Feed.writeNow();
    });
  for (std::thread &W : Writers)
    W.join();

  EXPECT_EQ(Feed.writeFailures(), 0u);
  EXPECT_GT(Feed.writes(), 0u);
  std::string Doc = readFile(O.Path);
  EXPECT_TRUE(isValidJsonText(Doc)) << Doc;
  EXPECT_EQ(jsonValue(Doc, "uptime_ms"),
            std::to_string(WriterThreads * WritesPerThread));
}

} // namespace

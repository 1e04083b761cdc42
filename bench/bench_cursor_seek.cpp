//===- bench/bench_cursor_seek.cpp - no perfbench workload seeks ----------===//
//
// Times AssignmentCursor::seek to 50 random ranks of a ~10^82 class space,
// each followed by one next(), without stepping through any variant.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/AssignmentCursor.h"
#include "support/RandomEngine.h"

#include <chrono>

using namespace spe;
using namespace spe::bench;

namespace {

/// A Table-1-shaped skeleton: several type classes, a scope chain with
/// variables at every level, and dozens of holes -- the exact class count
/// runs to dozens of decimal digits.
AbstractSkeleton bigSkeleton() {
  AbstractSkeleton Sk;
  ScopeId Scope = AbstractSkeleton::rootScope();
  std::vector<ScopeId> Chain{Scope};
  for (unsigned Depth = 0; Depth < 4; ++Depth) {
    Scope = Sk.addScope(Scope);
    Chain.push_back(Scope);
  }
  for (TypeKey T = 0; T < 3; ++T) {
    for (ScopeId S : Chain) {
      Sk.addVariable("v" + std::to_string(T) + "_" + std::to_string(S), S, T);
      Sk.addVariable("w" + std::to_string(T) + "_" + std::to_string(S), S, T);
    }
    for (ScopeId S : Chain)
      for (unsigned H = 0; H < 8; ++H)
        Sk.addHole(S, T);
  }
  return Sk;
}

} // namespace

int main() {
  header("Cursor seek latency on a Table-1-sized space");
  AbstractSkeleton Sk = bigSkeleton();
  AssignmentCursor Cursor(Sk, SpeMode::Exact);
  std::printf("skeleton: %u holes, %u scopes, 3 types\n", Sk.numHoles(),
              Sk.numScopes());
  std::printf("class space: %s (~10^%.0f)\n", Cursor.size().toString().c_str(),
              Cursor.size().log10());

  RandomEngine Rng(0x5eedULL);
  const unsigned Seeks = 50;
  double Total = 0.0, Worst = 0.0;
  for (unsigned I = 0; I < Seeks; ++I) {
    // A pseudo-random rank: size * r / 2^31 for a 31-bit r.
    uint64_t R = static_cast<uint64_t>(
        Rng.uniformInt(0, static_cast<int64_t>(0x7fffffff)));
    BigInt Rank = (Cursor.size() * R).divideBySmall(uint64_t(1) << 31);
    auto Start = std::chrono::steady_clock::now();
    Cursor.seek(Rank);
    const Assignment *A = Cursor.next();
    double Sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
    if (!A) {
      std::printf("!! seek(%s) produced nothing\n", Rank.toString().c_str());
      return 1;
    }
    Total += Sec;
    if (Sec > Worst)
      Worst = Sec;
  }
  std::printf("%u random seeks: avg %.3f ms, worst %.3f ms\n", Seeks,
              1e3 * Total / Seeks, 1e3 * Worst);
  return 0;
}

//===- core/SpeEnumerator.cpp - Non-alpha-equivalent enumeration ---------===//

#include "core/SpeEnumerator.h"

#include "core/AssignmentCursor.h"
#include "core/PaperAlgorithm.h"
#include "core/ScopePartitionDP.h"

using namespace spe;

const char *spe::speModeName(SpeMode Mode) {
  switch (Mode) {
  case SpeMode::Exact:
    return "exact";
  case SpeMode::PaperFaithful:
    return "paper-faithful";
  }
  return "unknown";
}

SpeEnumerator::SpeEnumerator(const AbstractSkeleton &Skeleton, SpeMode Mode)
    : Skeleton(Skeleton), Mode(Mode) {}

BigInt SpeEnumerator::count() const {
  return Mode == SpeMode::Exact ? countExactClasses(Skeleton)
                                : countPaperFaithful(Skeleton);
}

uint64_t SpeEnumerator::enumerate(
    const std::function<bool(const Assignment &)> &Callback,
    uint64_t Limit) const {
  AssignmentCursor Cursor(Skeleton, Mode);
  uint64_t Produced = 0;
  while (const Assignment *A = Cursor.next()) {
    ++Produced;
    if (!Callback(*A))
      break;
    if (Limit != 0 && Produced >= Limit)
      break;
  }
  return Produced;
}

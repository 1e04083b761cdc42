//===- core/ValidityPruning.cpp - Per-hole forbidden variable sets --------===//

#include "core/ValidityPruning.h"

using namespace spe;

bool spe::assignmentViolates(const Assignment &A,
                             const ValidityConstraints &C) {
  for (size_t H = 0; H < A.size(); ++H)
    if (C.forbids(static_cast<unsigned>(H), A[H]))
      return true;
  return false;
}

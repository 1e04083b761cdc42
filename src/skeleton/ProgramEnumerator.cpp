//===- skeleton/ProgramEnumerator.cpp - whole-program enumeration --------===//

#include "skeleton/ProgramEnumerator.h"

#include "core/NaiveEnumerator.h"

#include <cassert>

using namespace spe;

namespace {

/// Strict decimal parse for restoreState: \returns false unless \p Text is
/// a non-empty all-digit string (BigInt::fromDecimalString asserts on
/// malformed input, which is wrong for data read from disk).
bool parseDecimal(const std::string &Text, BigInt &Out) {
  if (Text.empty())
    return false;
  for (char C : Text)
    if (C < '0' || C > '9')
      return false;
  Out = BigInt::fromDecimalString(Text);
  return true;
}

} // namespace

ProgramCursor::ProgramCursor(const std::vector<SkeletonUnit> &Units,
                             SpeMode Mode)
    : Mode(Mode) {
  UnitCursors.reserve(Units.size());
  for (const SkeletonUnit &Unit : Units)
    UnitCursors.emplace_back(Unit.Skeleton, Mode);
  UnitSuffix.assign(Units.size() + 1, BigInt(1));
  for (size_t U = Units.size(); U-- > 0;)
    UnitSuffix[U] = UnitCursors[U].size() * UnitSuffix[U + 1];
  Size = UnitSuffix[0];
  End = Size;
  Current.resize(Units.size());
}

void ProgramCursor::setConstraints(
    std::vector<const ValidityConstraints *> PerUnit) {
  assert(PerUnit.size() == UnitCursors.size() &&
         "one constraint table per unit");
  Constraints = std::move(PerUnit);
  HasForbidden = false;
  for (const ValidityConstraints *C : Constraints)
    if (C && !C->empty())
      HasForbidden = true;
}

AssignmentCursor::Offense ProgramCursor::offense(
    const std::vector<const ValidityConstraints *> &PerUnit) const {
  using Offense = AssignmentCursor::Offense;
  for (size_t U = 0; U < UnitCursors.size(); ++U) {
    if (!PerUnit[U] || !assignmentViolates(Current[U], *PerUnit[U]))
      continue;
    Offense O = UnitCursors[U].offense(*PerUnit[U]);
    return O == Offense::OneRank && UnitSuffix[U + 1].isOne() ? O
                                                              : Offense::Span;
  }
  return Offense::None;
}

BigInt ProgramCursor::invalidSpanEnd(
    const BigInt &Rank,
    const std::vector<const ValidityConstraints *> &PerUnit) const {
  if (Mode != SpeMode::Exact)
    return Rank;
  BigInt Rest = Rank;
  for (size_t U = 0; U < UnitCursors.size(); ++U) {
    BigInt Q;
    BigInt::divmod(Rest, UnitSuffix[U + 1], Q, Rest);
    if (!PerUnit[U] || PerUnit[U]->empty())
      continue;
    BigInt SpanEnd = UnitCursors[U].invalidSpanEnd(Q, *PerUnit[U]);
    if (SpanEnd > Q) {
      // Unit U's component is invalid for all of [Q, SpanEnd); every
      // program rank sharing this prefix is invalid too.
      return Rank - Rest + (SpanEnd - Q) * UnitSuffix[U + 1];
    }
  }
  return Rank;
}

void ProgramCursor::materialize(const BigInt &Rank) {
  // Mixed-radix decomposition, unit 0 most significant. Each unit cursor is
  // left positioned one past its decoded rank, so a later carry pulls the
  // successor with a plain next().
  BigInt Rest = Rank;
  for (size_t U = 0; U < UnitCursors.size(); ++U) {
    BigInt Q, Rem;
    BigInt::divmod(Rest, UnitSuffix[U + 1], Q, Rem);
    UnitCursors[U].seek(Q);
    const Assignment *A = UnitCursors[U].next();
    assert(A && "unit rank out of range");
    Current[U] = *A;
    Rest = Rem;
  }
  OdoRank = Rank;
  OdoValid = true;
}

const ProgramAssignment *ProgramCursor::next() {
  if (!HasForbidden)
    return produce();
  for (;;) {
    // Valid variants stay on the O(1)-amortized odometer hot path, and so
    // does a violation whose invalid span is its own rank alone. Only a
    // wider span pays the mixed-radix rank decode, to jump the rest of the
    // invalid subrange in one step.
    const ProgramAssignment *PA = produce();
    if (!PA)
      return nullptr;
    AssignmentCursor::Offense O = offense(Constraints);
    if (O == AssignmentCursor::Offense::None)
      return PA;
    if (O == AssignmentCursor::Offense::OneRank) {
      Pruned += BigInt(1); // The odometer steps past it on the next pull.
      continue;
    }
    BigInt Bad = Pos - BigInt(1); // The rank produce() just consumed.
    BigInt SpanEnd = invalidSpanEnd(Bad, Constraints);
    if (SpanEnd <= Bad)
      SpanEnd = Bad + BigInt(1);
    BigInt Clipped = SpanEnd > End ? End : SpanEnd;
    Pruned += Clipped - Bad;
    if (Clipped > Pos) {
      Pos = Clipped;
      OdoValid = false;
    }
  }
}

const ProgramAssignment *ProgramCursor::produce() {
  if (Pos >= End)
    return nullptr;
  if (!OdoValid) {
    materialize(Pos);
  } else if (OdoRank < Pos) {
    // Advance the mixed-radix odometer: the last unit varies fastest.
    size_t U = UnitCursors.size();
    while (U-- > 0) {
      if (const Assignment *A = UnitCursors[U].next()) {
        Current[U] = *A;
        for (size_t V = U + 1; V < UnitCursors.size(); ++V) {
          UnitCursors[V].reset();
          const Assignment *First = UnitCursors[V].next();
          assert(First && "unit space emptied mid-stream");
          Current[V] = *First;
        }
        break;
      }
      assert(U > 0 && "advanced past the end of the program space");
    }
    OdoRank += BigInt(1);
  }
  assert(OdoRank == Pos && "odometer out of sync with position");
  Pos += BigInt(1);
  return &Current;
}

void ProgramCursor::seek(const BigInt &Rank) {
  Pos = Rank > Size ? Size : Rank;
  if (Pos < Size)
    materialize(Pos);
  else
    OdoValid = false;
}

void ProgramCursor::setEnd(const BigInt &Rank) {
  End = Rank > Size ? Size : Rank;
}

CursorState ProgramCursor::saveState() const {
  return {Pos.toString(), End.toString(), Pruned.toString()};
}

bool ProgramCursor::restoreState(const CursorState &State) {
  BigInt NewPos, NewEnd, NewPruned;
  if (!parseDecimal(State.Position, NewPos) ||
      !parseDecimal(State.End, NewEnd) ||
      !parseDecimal(State.Pruned, NewPruned))
    return false;
  if (NewPos > NewEnd || NewEnd > Size)
    return false;
  End = NewEnd;
  // The next range of one the cursor just ran starts where it stands: its
  // odometer already holds that rank, or produce() rebuilds it.
  if (NewPos != Pos)
    seek(NewPos);
  Pruned = NewPruned;
  return true;
}

ProgramEnumerator::ProgramEnumerator(const std::vector<SkeletonUnit> &Units,
                                     SpeMode Mode)
    : Units(Units), Mode(Mode) {}

BigInt ProgramEnumerator::countSpe() const {
  BigInt Total(1);
  for (const SkeletonUnit &Unit : Units) {
    Total *= SpeEnumerator(Unit.Skeleton, Mode).count();
    if (Total.isZero())
      return Total;
  }
  return Total;
}

BigInt ProgramEnumerator::countNaive() const {
  BigInt Total(1);
  for (const SkeletonUnit &Unit : Units) {
    Total *= NaiveEnumerator(Unit.Skeleton).count();
    if (Total.isZero())
      return Total;
  }
  return Total;
}

uint64_t ProgramEnumerator::enumerate(
    const std::function<bool(const ProgramAssignment &)> &Callback,
    uint64_t Limit) const {
  ProgramCursor Cursor(Units, Mode);
  uint64_t Produced = 0;
  while (const ProgramAssignment *PA = Cursor.next()) {
    ++Produced;
    if (!Callback(*PA))
      break;
    if (Limit != 0 && Produced >= Limit)
      break;
  }
  return Produced;
}

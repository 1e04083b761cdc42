//===- core/AssignmentCursor.cpp - Pull-based rankable enumeration -------===//

#include "core/AssignmentCursor.h"

#include "combinatorics/SetPartitions.h"
#include "core/PaperAlgorithm.h"
#include "core/ScopePartitionDP.h"

#include <cassert>
#include <map>

using namespace spe;

namespace {

/// Paper-faithful pull adapter: a sliding window over the push driver.
/// Refills restart the driver and skip to the window start; consecutive
/// forward refills double the window so a full sequential scan stays
/// O(N) amortized up to MaxChunk (DESIGN.md Section 5.3).
constexpr uint64_t InitialChunk = 1024;
constexpr uint64_t MaxChunk = 65536;

/// \returns true when \p C forbids \p Hole every variable of \p Vars: a
/// level digit choosing their scope is invalid whatever its groups do.
bool allForbidden(const ValidityConstraints &C, unsigned Hole,
                  const std::vector<VarId> &Vars) {
  for (VarId V : Vars)
    if (!C.forbids(Hole, V))
      return false;
  return true;
}

} // namespace

struct AssignmentCursor::Impl {
  const AbstractSkeleton &Sk;
  SpeMode Mode;
  StirlingTable Table;

  BigInt Size;
  BigInt Pos;  ///< Rank of the assignment the next next() produces.
  BigInt End;  ///< Exclusive bound of the active range.

  /// Validity pruning (see core/ValidityPruning.h). Null/empty = disabled.
  const ValidityConstraints *Constraints = nullptr;
  bool HasForbidden = false; ///< Cached !Constraints->empty().
  BigInt Pruned;             ///< Ranks skipped as invalid by next().
  /// Unranking tables for the group-digit validity walk, keyed by (N, K).
  std::map<std::pair<unsigned, unsigned>, RgsRanker> Rankers;

  // --- Exact mode: mixed-radix odometer with DP-backed unranking ---------

  struct GroupState {
    std::vector<unsigned> Holes;     ///< Absolute hole indices.
    const std::vector<VarId> *Vars; ///< The scope's row of ScopeVars.
    SetPartitionGenerator Gen;
    GroupState(std::vector<unsigned> Holes, const std::vector<VarId> &Vars)
        : Holes(std::move(Holes)), Vars(&Vars),
          Gen(static_cast<unsigned>(this->Holes.size()),
              static_cast<unsigned>(Vars.size())) {}

    /// A group is a radix-1 digit when it has one partition.
    bool hasRadixOne() const { return Holes.size() <= 1 || Vars->size() <= 1; }
  };
  struct TypeState {
    std::vector<unsigned> LevelIdx; ///< Index into Problem.Domains[i].
    std::vector<GroupState> Groups; ///< Ascending declaration scope.
  };

  std::vector<ExactTypeProblem> Problems;
  /// ScopeVars[t][s]: the variables of Problems[t]'s type declared in scope
  /// s, in declaration order. Built once, so a level carry allocates no
  /// variable list.
  std::vector<std::vector<std::vector<VarId>>> ScopeVars;
  std::vector<TypeState> Types;
  std::vector<BigInt> TypeSuffix; ///< TypeSuffix[t] = prod counts of t..T-1.
  Assignment Current;
  BigInt OdoRank;       ///< Rank currently materialized in Current.
  bool OdoValid = false;

  // --- Paper-faithful mode: restartable window over the push driver ------

  std::vector<Assignment> Buffer;
  uint64_t BufferStart = 0;
  uint64_t Chunk = InitialChunk;

  Impl(const AbstractSkeleton &Sk, SpeMode Mode) : Sk(Sk), Mode(Mode) {
    if (Mode == SpeMode::Exact) {
      Problems = buildExactTypeProblems(Sk);
      ScopeVars.assign(Problems.size(),
                       std::vector<std::vector<VarId>>(Sk.numScopes()));
      for (VarId V = 0; V < Sk.numVars(); ++V)
        for (size_t T = 0; T < Problems.size(); ++T)
          if (Problems[T].Type == Sk.var(V).Type)
            ScopeVars[T][Sk.var(V).Scope].push_back(V);
      Types.resize(Problems.size());
      TypeSuffix.assign(Problems.size() + 1, BigInt(1));
      for (size_t T = Problems.size(); T-- > 0;) {
        TypeSuffix[T] =
            countExactType(Sk, Problems[T], Table) * TypeSuffix[T + 1];
      }
      Size = TypeSuffix[0];
      Current.assign(Sk.numHoles(), 0);
    } else {
      Size = countPaperFaithful(Sk);
    }
    End = Size;
  }

  // --- Exact mode --------------------------------------------------------

  void writeGroup(const GroupState &G) {
    const RestrictedGrowthString &RGS = G.Gen.current();
    for (size_t I = 0; I < G.Holes.size(); ++I)
      Current[G.Holes[I]] = (*G.Vars)[RGS[I]];
  }

  /// Rebuilds the per-scope groups of type \p T from its level choices.
  /// Generators are left unstarted; the caller primes or seeks them.
  void rebuildGroups(size_t T) {
    const ExactTypeProblem &P = Problems[T];
    TypeState &TS = Types[T];
    std::map<ScopeId, std::vector<unsigned>> ByScope;
    for (size_t I = 0; I < P.Holes.size(); ++I)
      ByScope[P.Domains[I][TS.LevelIdx[I]]].push_back(P.Holes[I]);
    TS.Groups.clear();
    for (auto &[Scope, Holes] : ByScope)
      TS.Groups.emplace_back(std::move(Holes), ScopeVars[T][Scope]);
  }

  /// Resets type \p T to its first configuration and writes it.
  void resetType(size_t T) {
    TypeState &TS = Types[T];
    TS.LevelIdx.assign(Problems[T].Holes.size(), 0);
    rebuildGroups(T);
    for (GroupState &G : TS.Groups) {
      G.Gen.reset();
      G.Gen.next();
      writeGroup(G);
    }
  }

  /// Advances type \p T to its next configuration in legacy enumeration
  /// order (partitions vary fastest, then the level odometer). \returns
  /// false when the type's space wrapped around.
  bool advanceType(size_t T) {
    TypeState &TS = Types[T];
    for (size_t GI = TS.Groups.size(); GI-- > 0;) {
      if (TS.Groups[GI].Gen.next()) {
        writeGroup(TS.Groups[GI]);
        for (size_t GJ = GI + 1; GJ < TS.Groups.size(); ++GJ) {
          TS.Groups[GJ].Gen.reset();
          TS.Groups[GJ].Gen.next();
          writeGroup(TS.Groups[GJ]);
        }
        return true;
      }
    }
    const ExactTypeProblem &P = Problems[T];
    for (size_t HI = P.Holes.size(); HI-- > 0;) {
      if (TS.LevelIdx[HI] + 1 < P.Domains[HI].size()) {
        ++TS.LevelIdx[HI];
        for (size_t HJ = HI + 1; HJ < P.Holes.size(); ++HJ)
          TS.LevelIdx[HJ] = 0;
        rebuildGroups(T);
        for (GroupState &G : TS.Groups) {
          G.Gen.next();
          writeGroup(G);
        }
        return true;
      }
    }
    return false;
  }

  /// Advances the whole odometer by one rank. Types later in type order are
  /// less significant, matching the legacy nesting.
  void advanceExact() {
    for (size_t T = Types.size(); T-- > 0;) {
      if (advanceType(T)) {
        for (size_t U = T + 1; U < Types.size(); ++U)
          resetType(U);
        OdoRank += BigInt(1);
        return;
      }
    }
    assert(false && "advanced past the end of the space");
  }

  /// Unranks type \p T's component \p Rank into level choices and partition
  /// generator states, leaving Current holding the decoded assignment.
  /// NOTE: invalidSpanEnd below is a read-only twin of this decoder; keep
  /// their digit orders in lockstep.
  void materializeType(size_t T, const BigInt &Rank) {
    const ExactTypeProblem &P = Problems[T];
    TypeState &TS = Types[T];
    size_t NumHoles = P.Holes.size();
    TS.LevelIdx.assign(NumHoles, 0);

    // Level map first: in lex order the level digits are more significant
    // than every partition. Walk holes in order, charging each candidate
    // level with the completion count of the remaining holes.
    BigInt Rest = Rank;
    std::vector<unsigned> PrefixCounts(Sk.numScopes(), 0);
    for (size_t HI = 0; HI < NumHoles; ++HI) {
      bool Found = false;
      for (size_t D = 0; D < P.Domains[HI].size(); ++D) {
        ScopeId S = P.Domains[HI][D];
        ++PrefixCounts[S];
        BigInt W = countExactCompletions(Sk, P, HI + 1, PrefixCounts, Table);
        if (Rest < W) {
          TS.LevelIdx[HI] = static_cast<unsigned>(D);
          Found = true;
          break;
        }
        Rest -= W;
        --PrefixCounts[S];
      }
      assert(Found && "level unranking exhausted the domain");
      (void)Found;
    }

    // Then the per-scope partitions, group-major with earlier scopes more
    // significant, each group's restricted growth string in lex order.
    rebuildGroups(T);
    std::vector<BigInt> GroupSuffix(TS.Groups.size() + 1, BigInt(1));
    for (size_t GI = TS.Groups.size(); GI-- > 0;) {
      const GroupState &G = TS.Groups[GI];
      GroupSuffix[GI] =
          Table.partitionsUpTo(static_cast<unsigned>(G.Holes.size()),
                               static_cast<unsigned>(G.Vars->size())) *
          GroupSuffix[GI + 1];
    }
    for (size_t GI = 0; GI < TS.Groups.size(); ++GI) {
      GroupState &G = TS.Groups[GI];
      BigInt Q, Rem;
      BigInt::divmod(Rest, GroupSuffix[GI + 1], Q, Rem);
      G.Gen.seekTo(ranker(static_cast<unsigned>(G.Holes.size()),
                          static_cast<unsigned>(G.Vars->size()))
                       .unrank(Q));
      writeGroup(G);
      Rest = Rem;
    }
    assert(Rest.isZero() && "partition unranking did not terminate");
  }

  /// Positions the exact-mode odometer directly on \p Rank (< Size).
  void materializeExact(const BigInt &Rank) {
    BigInt Rest = Rank;
    for (size_t T = 0; T < Types.size(); ++T) {
      BigInt Q, Rem;
      BigInt::divmod(Rest, TypeSuffix[T + 1], Q, Rem);
      materializeType(T, Q);
      Rest = Rem;
    }
    OdoRank = Rank;
    OdoValid = true;
  }

  // --- Paper-faithful mode -----------------------------------------------

  /// Refills the window so that it contains rank \p Target.
  void refillPaper(uint64_t Target) {
    if (Target == BufferStart + Buffer.size() && !Buffer.empty())
      Chunk = std::min(Chunk * 2, MaxChunk);
    else
      Chunk = InitialChunk;
    Buffer.clear();
    BufferStart = Target;
    uint64_t Seen = 0;
    enumeratePaperFaithful(Sk, [&](const Assignment &A) {
      if (Seen++ < Target)
        return true;
      Buffer.push_back(A);
      return Buffer.size() < Chunk;
    });
  }

  const Assignment *nextPaper() {
    assert(Pos.fitsInUint64() &&
           "paper-faithful cursor positions beyond 2^64 are unsupported");
    uint64_t P64 = Pos.toUint64();
    if (P64 < BufferStart || P64 >= BufferStart + Buffer.size())
      refillPaper(P64);
    assert(P64 - BufferStart < Buffer.size() && "paper window refill failed");
    Pos += BigInt(1);
    return &Buffer[P64 - BufferStart];
  }

  // --- Shared ------------------------------------------------------------

  /// Produces the assignment at Pos with no validity filtering (the
  /// pre-pruning next()).
  const Assignment *produce() {
    if (Pos >= End)
      return nullptr;
    if (Mode == SpeMode::PaperFaithful)
      return nextPaper();
    if (!OdoValid)
      materializeExact(Pos);
    else if (OdoRank < Pos)
      advanceExact();
    assert(OdoRank == Pos && "odometer out of sync with position");
    Pos += BigInt(1);
    return &Current;
  }

  const Assignment *next() {
    if (!HasForbidden)
      return produce();
    for (;;) {
      // Valid assignments stay on the O(1)-amortized odometer hot path: a
      // produced assignment costs only an O(holes) byte-table scan. So
      // does a violation whose invalid span is its own rank alone; the
      // digit-by-digit rank decode runs only for the others, to jump the
      // rest of the invalid subrange in one step.
      const Assignment *A = produce();
      if (!A)
        return nullptr;
      if (!assignmentViolates(*A, *Constraints))
        return A;
      if (offense(*Constraints) == Offense::OneRank) {
        Pruned += BigInt(1); // The odometer steps past it on the next pull.
        continue;
      }
      BigInt Bad = Pos - BigInt(1); // The rank produce() just consumed.
      BigInt SpanEnd = invalidSpanEnd(Bad, *Constraints);
      if (SpanEnd <= Bad) // Paper mode (no decode) degrades to span 1.
        SpanEnd = Bad + BigInt(1);
      BigInt Clipped = SpanEnd > End ? End : SpanEnd;
      Pruned += Clipped - Bad;
      if (Clipped > Pos) {
        Pos = Clipped;
        OdoValid = false;
      }
    }
  }

  RgsRanker &ranker(unsigned N, unsigned K) {
    auto It = Rankers.find({N, K});
    if (It == Rankers.end())
      It = Rankers.try_emplace({N, K}, N, K).first;
    return It->second;
  }

  /// See AssignmentCursor::offense. Reads the odometer's digits in
  /// invalidSpanEnd's order; the span of an offending group is one rank
  /// exactly when every later group of its type and every later type has
  /// radix 1, since invalidSpanEnd then returns Rank + 1.
  Offense offense(const ValidityConstraints &C) const {
    if (Mode != SpeMode::Exact || !OdoValid)
      return Offense::Span;
    for (size_t T = 0; T < Types.size(); ++T) {
      const ExactTypeProblem &P = Problems[T];
      const TypeState &TS = Types[T];
      for (size_t HI = 0; HI < P.Holes.size(); ++HI)
        if (allForbidden(C, P.Holes[HI],
                         ScopeVars[T][P.Domains[HI][TS.LevelIdx[HI]]]))
          return Offense::Span;
      for (size_t GI = 0; GI < TS.Groups.size(); ++GI) {
        bool Forbids = false;
        for (unsigned H : TS.Groups[GI].Holes)
          Forbids = Forbids || C.forbids(H, Current[H]);
        if (!Forbids)
          continue;
        if (!TypeSuffix[T + 1].isOne())
          return Offense::Span;
        for (size_t GJ = GI + 1; GJ < TS.Groups.size(); ++GJ)
          if (!TS.Groups[GJ].hasRadixOne())
            return Offense::Span;
        return Offense::OneRank;
      }
    }
    return Offense::None;
  }

  /// See AssignmentCursor::invalidSpanEnd. Decodes \p Rank digit by digit,
  /// most significant first (type, then level map, then per-scope
  /// partition), and stops at the first digit whose choice alone is
  /// forbidden; the returned span covers every rank sharing that digit.
  ///
  /// NOTE: this is a read-only twin of materializeType's decoder and must
  /// decode the exact same digit order; any change to enumeration order
  /// there must land here too. The lockstep is pinned by
  /// tests/core_validity_pruning_test.cpp (InvalidSpanEndIsExact) and the
  /// brute-force sweep in tests/testing_validity_property_test.cpp.
  BigInt invalidSpanEnd(const BigInt &Rank, const ValidityConstraints &C) {
    if (Mode != SpeMode::Exact || Rank >= Size)
      return Rank;
    BigInt Rest = Rank;
    for (size_t T = 0; T < Problems.size(); ++T) {
      BigInt R, Low;
      BigInt::divmod(Rest, TypeSuffix[T + 1], R, Low);
      const ExactTypeProblem &P = Problems[T];

      // Level digits: walking holes in order, each candidate level is a
      // digit of width countExactCompletions(remaining holes).
      std::vector<unsigned> PrefixCounts(Sk.numScopes(), 0);
      std::map<ScopeId, std::vector<unsigned>> ByScope;
      for (size_t HI = 0; HI < P.Holes.size(); ++HI) {
        bool Found = false;
        for (size_t D = 0; D < P.Domains[HI].size(); ++D) {
          ScopeId S = P.Domains[HI][D];
          ++PrefixCounts[S];
          BigInt W =
              countExactCompletions(Sk, P, HI + 1, PrefixCounts, Table);
          if (R < W) {
            if (allForbidden(C, P.Holes[HI], ScopeVars[T][S]))
              return Rank + (W - R) * TypeSuffix[T + 1] - Low;
            ByScope[S].push_back(P.Holes[HI]);
            Found = true;
            break;
          }
          R -= W;
          --PrefixCounts[S];
        }
        assert(Found && "level decoding exhausted the domain");
        (void)Found;
      }

      // Partition digits: group-major in ascending scope order, each
      // group's restricted growth string one digit.
      struct GroupRef {
        const std::vector<unsigned> *Holes;
        const std::vector<VarId> *Vars;
      };
      std::vector<GroupRef> Groups;
      Groups.reserve(ByScope.size());
      for (auto &[Scope, Holes] : ByScope)
        Groups.push_back({&Holes, &ScopeVars[T][Scope]});
      std::vector<BigInt> GroupSuffix(Groups.size() + 1, BigInt(1));
      for (size_t GI = Groups.size(); GI-- > 0;) {
        GroupSuffix[GI] =
            Table.partitionsUpTo(
                static_cast<unsigned>(Groups[GI].Holes->size()),
                static_cast<unsigned>(Groups[GI].Vars->size())) *
            GroupSuffix[GI + 1];
      }
      for (size_t GI = 0; GI < Groups.size(); ++GI) {
        BigInt QG, Rem;
        BigInt::divmod(R, GroupSuffix[GI + 1], QG, Rem);
        const GroupRef &G = Groups[GI];
        RestrictedGrowthString RGS =
            ranker(static_cast<unsigned>(G.Holes->size()),
                   static_cast<unsigned>(G.Vars->size()))
                .unrank(QG);
        for (size_t I = 0; I < RGS.size(); ++I) {
          if (C.forbids((*G.Holes)[I], (*G.Vars)[RGS[I]]))
            return Rank + (GroupSuffix[GI + 1] - Rem) * TypeSuffix[T + 1] -
                   Low;
        }
        R = Rem;
      }
      Rest = Low;
    }
    return Rank;
  }

  void seek(const BigInt &Rank) {
    Pos = Rank > Size ? Size : Rank;
    if (Mode == SpeMode::PaperFaithful)
      return; // nextPaper() refills lazily.
    if (Pos < Size)
      materializeExact(Pos);
    else
      OdoValid = false;
  }

  void reset() {
    Pos = BigInt(0);
    if (Mode == SpeMode::PaperFaithful || Size.isZero())
      return; // The paper window refills lazily from rank 0.
    for (size_t T = 0; T < Types.size(); ++T)
      resetType(T);
    OdoRank = BigInt(0);
    OdoValid = true;
  }
};

AssignmentCursor::AssignmentCursor(const AbstractSkeleton &Skeleton,
                                   SpeMode Mode)
    : I(std::make_unique<Impl>(Skeleton, Mode)) {}

AssignmentCursor::~AssignmentCursor() = default;
AssignmentCursor::AssignmentCursor(AssignmentCursor &&Other) noexcept = default;
AssignmentCursor &
AssignmentCursor::operator=(AssignmentCursor &&Other) noexcept = default;

const BigInt &AssignmentCursor::size() const { return I->Size; }
const BigInt &AssignmentCursor::position() const { return I->Pos; }
const BigInt &AssignmentCursor::end() const { return I->End; }

const Assignment *AssignmentCursor::next() { return I->next(); }

void AssignmentCursor::seek(const BigInt &Rank) { I->seek(Rank); }

void AssignmentCursor::reset() { I->reset(); }

void AssignmentCursor::setEnd(const BigInt &Rank) {
  I->End = Rank > I->Size ? I->Size : Rank;
}

void AssignmentCursor::shard(uint64_t Index, uint64_t Count) {
  assert(Count > 0 && Index < Count && "invalid shard request");
  BigInt Begin, NewEnd;
  cursor_detail::shardRange(I->Pos, I->End, Index, Count, Begin, NewEnd);
  I->End = NewEnd;
  I->seek(Begin);
}

void AssignmentCursor::setConstraints(const ValidityConstraints *C) {
  I->Constraints = C;
  I->HasForbidden = C != nullptr && !C->empty();
}

const BigInt &AssignmentCursor::pruned() const { return I->Pruned; }

AssignmentCursor::Offense
AssignmentCursor::offense(const ValidityConstraints &C) const {
  return I->offense(C);
}

CursorState AssignmentCursor::saveState() const {
  return {I->Pos.toString(), I->End.toString(), I->Pruned.toString()};
}

bool AssignmentCursor::restoreState(const CursorState &State) {
  BigInt Pos, End, Pruned;
  if (!cursor_detail::parseDecimal(State.Position, Pos) ||
      !cursor_detail::parseDecimal(State.End, End) ||
      !cursor_detail::parseDecimal(State.Pruned, Pruned))
    return false;
  if (Pos > End || End > I->Size)
    return false;
  I->End = End;
  I->seek(Pos);
  I->Pruned = Pruned;
  return true;
}

BigInt AssignmentCursor::invalidSpanEnd(const BigInt &Rank,
                                        const ValidityConstraints &C) const {
  return I->invalidSpanEnd(Rank, C);
}


//===- core/AssignmentCursor.cpp - Pull-based rankable enumeration -------===//

#include "core/AssignmentCursor.h"

#include "combinatorics/SetPartitions.h"
#include "core/PaperAlgorithm.h"
#include "core/ScopePartitionDP.h"

#include <cassert>
#include <map>
#include <unordered_map>

using namespace spe;

namespace {

/// Paper-faithful pull adapter: a sliding window over the push driver.
/// Refills restart the driver and skip to the window start; consecutive
/// forward refills double the window so a full sequential scan stays
/// O(N) amortized up to MaxChunk (DESIGN.md Section 5.3).
constexpr uint64_t InitialChunk = 1024;
constexpr uint64_t MaxChunk = 65536;

/// Completion counts a cursor memoizes before it starts over: a bound for
/// a cursor that seeks all over a huge space, far above what the nearby
/// ranks of a campaign's budget ever touch.
constexpr size_t MaxCompletions = 1 << 16;

/// FNV-1a over a completion key's words.
struct CompletionKeyHash {
  size_t operator()(const std::vector<unsigned> &Key) const {
    uint64_t H = 1469598103934665603ull;
    for (unsigned W : Key) {
      H ^= W;
      H *= 1099511628211ull;
    }
    return static_cast<size_t>(H);
  }
};

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
  BigInt Pos; ///< Rank of the assignment the next next() produces.

  /// Unranking tables for the group digits, keyed by (N, K).
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
  /// countExactCompletions by {type, first free hole, prefix counts...},
  /// all that it reads. Ranks near each other decode through the same
  /// level prefixes, so a seek or an invalidSpanEnd near an earlier one
  /// runs almost no tree DP. Cleared past MaxCompletions entries.
  std::unordered_map<std::vector<unsigned>, BigInt, CompletionKeyHash>
      Completions;
  std::vector<unsigned> CompletionKey; ///< Lookup scratch.

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

  /// The rank decoder of type \p T: splits its component \p Rank into
  /// digits, most significant first -- the level digit of every hole in
  /// hole order (in lex order the level digits outrank every partition),
  /// then one restricted growth string per per-scope group in ascending
  /// scope order -- and shows each digit to \p Visit:
  ///
  ///   bool level(size_t HI, size_t D, ScopeId S): hole HI of Problems[T]
  ///     takes its domain's candidate D, a variable declared in scope S;
  ///   bool group(ScopeId S, std::vector<unsigned> &Holes,
  ///              const RestrictedGrowthString &RGS): the group of Holes
  ///     (absolute indices, hole order; the visitor may take the vector)
  ///     fills from scope S's variables by RGS.
  ///
  /// A visitor returns true to stop at that digit. \returns how many ranks
  /// of the component, from \p Rank on, share the digit it stopped at (at
  /// least one), or zero when it never stopped. Seek materializes through
  /// this decoder and invalidSpanEnd measures spans through it, so the two
  /// cannot disagree on the digit order.
  template <typename Visitor>
  BigInt decodeType(size_t T, const BigInt &Rank, Visitor &&Visit) {
    const ExactTypeProblem &P = Problems[T];
    BigInt Rest = Rank;
    std::vector<unsigned> PrefixCounts(Sk.numScopes(), 0);
    std::map<ScopeId, std::vector<unsigned>> ByScope;
    for (size_t HI = 0; HI < P.Holes.size(); ++HI) {
      // Each candidate level is a digit value as wide as the completion
      // count of the remaining holes.
      size_t D = 0;
      for (; D < P.Domains[HI].size(); ++D) {
        ScopeId S = P.Domains[HI][D];
        ++PrefixCounts[S];
        const BigInt &W = completions(T, HI + 1, PrefixCounts);
        if (Rest < W) {
          if (Visit.level(HI, D, S))
            return W - Rest;
          ByScope[S].push_back(P.Holes[HI]);
          break;
        }
        Rest -= W;
        --PrefixCounts[S];
      }
      assert(D < P.Domains[HI].size() &&
             "level decoding exhausted the domain");
    }

    std::vector<BigInt> GroupSuffix(ByScope.size() + 1, BigInt(1));
    size_t GI = ByScope.size();
    for (auto It = ByScope.rbegin(); It != ByScope.rend(); ++It, --GI)
      GroupSuffix[GI - 1] =
          Table.partitionsUpTo(
              static_cast<unsigned>(It->second.size()),
              static_cast<unsigned>(ScopeVars[T][It->first].size())) *
          GroupSuffix[GI];
    for (auto &[S, Holes] : ByScope) {
      BigInt Q, Rem;
      BigInt::divmod(Rest, GroupSuffix[++GI], Q, Rem);
      RestrictedGrowthString RGS =
          ranker(static_cast<unsigned>(Holes.size()),
                 static_cast<unsigned>(ScopeVars[T][S].size()))
              .unrank(Q);
      if (Visit.group(S, Holes, RGS))
        return GroupSuffix[GI] - Rem;
      Rest = Rem;
    }
    assert(Rest.isZero() && "partition decoding did not terminate");
    return BigInt(0);
  }

  /// The memoized countExactCompletions(Sk, Problems[T], FromHole,
  /// PrefixCounts, Table); the reference lives until the next call.
  const BigInt &completions(size_t T, size_t FromHole,
                            const std::vector<unsigned> &PrefixCounts) {
    CompletionKey.assign(
        {static_cast<unsigned>(T), static_cast<unsigned>(FromHole)});
    CompletionKey.insert(CompletionKey.end(), PrefixCounts.begin(),
                         PrefixCounts.end());
    auto It = Completions.find(CompletionKey);
    if (It != Completions.end())
      return It->second;
    if (Completions.size() >= MaxCompletions)
      Completions.clear();
    return Completions
        .emplace(CompletionKey, countExactCompletions(Sk, Problems[T],
                                                      FromHole, PrefixCounts,
                                                      Table))
        .first->second;
  }

  /// Unranks type \p T's component \p Rank into level choices and partition
  /// generator states, leaving Current holding the decoded assignment.
  void materializeType(size_t T, const BigInt &Rank) {
    struct Materialize {
      Impl &Cursor;
      size_t T;
      bool level(size_t HI, size_t D, ScopeId) {
        Cursor.Types[T].LevelIdx[HI] = static_cast<unsigned>(D);
        return false;
      }
      bool group(ScopeId S, std::vector<unsigned> &Holes,
                 const RestrictedGrowthString &RGS) {
        GroupState &G = Cursor.Types[T].Groups.emplace_back(
            std::move(Holes), Cursor.ScopeVars[T][S]);
        G.Gen.seekTo(RGS);
        Cursor.writeGroup(G);
        return false;
      }
    };
    Types[T].LevelIdx.assign(Problems[T].Holes.size(), 0);
    Types[T].Groups.clear();
    decodeType(T, Rank, Materialize{*this, T});
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

  const Assignment *next() {
    if (Pos >= Size)
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

  RgsRanker &ranker(unsigned N, unsigned K) {
    auto It = Rankers.find({N, K});
    if (It == Rankers.end())
      It = Rankers.try_emplace({N, K}, N, K).first;
    return It->second;
  }

  /// See AssignmentCursor::offense. Reads the odometer's digits in
  /// decodeType's order; the span of an offending group is one rank
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

  /// See AssignmentCursor::invalidSpanEnd. Decodes \p Rank type by type
  /// and stops at the first digit whose choice alone is forbidden; the
  /// returned span covers every rank sharing that digit.
  BigInt invalidSpanEnd(const BigInt &Rank, const ValidityConstraints &C) {
    if (Mode != SpeMode::Exact || Rank >= Size)
      return Rank;
    struct FirstForbidden {
      const ValidityConstraints &C;
      const ExactTypeProblem &P;
      const std::vector<std::vector<VarId>> &Vars; ///< ScopeVars[T].
      bool level(size_t HI, size_t, ScopeId S) const {
        return allForbidden(C, P.Holes[HI], Vars[S]);
      }
      bool group(ScopeId S, std::vector<unsigned> &Holes,
                 const RestrictedGrowthString &RGS) const {
        for (size_t I = 0; I < RGS.size(); ++I)
          if (C.forbids(Holes[I], Vars[S][RGS[I]]))
            return true;
        return false;
      }
    };
    BigInt Rest = Rank;
    for (size_t T = 0; T < Problems.size(); ++T) {
      BigInt R, Low;
      BigInt::divmod(Rest, TypeSuffix[T + 1], R, Low);
      BigInt Width =
          decodeType(T, R, FirstForbidden{C, Problems[T], ScopeVars[T]});
      if (!Width.isZero())
        return Rank + Width * TypeSuffix[T + 1] - Low;
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

const Assignment *AssignmentCursor::next() { return I->next(); }

void AssignmentCursor::seek(const BigInt &Rank) { I->seek(Rank); }

void AssignmentCursor::reset() { I->reset(); }

AssignmentCursor::Offense
AssignmentCursor::offense(const ValidityConstraints &C) const {
  return I->offense(C);
}

BigInt AssignmentCursor::invalidSpanEnd(const BigInt &Rank,
                                        const ValidityConstraints &C) const {
  return I->invalidSpanEnd(Rank, C);
}


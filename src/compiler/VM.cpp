//===- compiler/VM.cpp - MiniCC IR execution engine ----------------------===//

#include "compiler/VM.h"

#include "support/BrentCycle.h"
#include "support/StdinScan.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

using namespace spe;

namespace {

struct VMValue {
  bool IsPtr = false;
  uint64_t Bits = 0;
  uint32_t Block = 0;
  int64_t Offset = 0;

  bool operator==(const VMValue &O) const {
    return IsPtr == O.IsPtr && Bits == O.Bits && Block == O.Block &&
           Offset == O.Offset;
  }
};

struct VMBlock {
  std::vector<uint8_t> Bytes;
  bool Alive = true;
  /// VM::Clock at the block's last store, copy, fill, allocation or free.
  uint64_t Written = 0;
  /// Whether a pointer, or a non-pointer, was ever stored here; a load of
  /// the other kind reinterprets bytes and may expose a block id.
  bool HeldPointer = false;
  bool HeldInteger = false;
};

/// The machine state after a retreating branch that a later one in the
/// same activation must match to prove the run diverges (DESIGN.md Section
/// 18): the branch target, the activation's registers (a miscompiled
/// module may read one before the iteration redefines it), every live
/// block, the stdin position and the id-exposure count.
struct LoopState {
  uint64_t Clock = 0;
  uint64_t LiveBlocks = 0;
  uint64_t Exposures = 0;
  size_t StdinPos = 0;
  unsigned Target = 0;
  std::vector<VMValue> Regs;
  /// Every live block (ascending ids) and its bytes at Starts[I].
  std::vector<uint32_t> Ids;
  std::vector<size_t> Starts;
  std::vector<uint8_t> Bytes;
};

/// One activation's divergence check: Brent's schedule plus the state it
/// last saved.
struct LoopDetector {
  BrentSchedule Schedule;
  LoopState Saved;
};

class VM {
public:
  VM(const IRModule &M, const VMOptions &Opts)
      : M(M), Opts(Opts), Stdin(Opts.Input) {
    VMBlock Null;
    Null.Alive = false;
    Blocks.push_back(std::move(Null));
  }

  VMResult run();

private:
  void trap(const std::string &Message) {
    if (Done)
      return;
    Done = true;
    Result.Status = VMStatus::Trap;
    Result.Message = Message;
  }
  bool step() {
    if (Done)
      return false;
    if (++Steps > Opts.MaxSteps) {
      Done = true;
      Result.Status = VMStatus::Timeout;
      Result.Message = "step budget exhausted";
      return false;
    }
    return true;
  }

  uint32_t allocate(uint64_t Size) {
    VMBlock B;
    B.Bytes.assign(Size, 0);
    Blocks.push_back(std::move(B));
    uint32_t Id = static_cast<uint32_t>(Blocks.size() - 1);
    ++LiveBlocks;
    touch(Id);
    return Id;
  }
  void touch(uint32_t Block) {
    Blocks[Block].Written = ++Clock;
    LastWritten = Block;
  }

  /// Counts a retreating branch to \p Target; on a check, ends the run
  /// with Timeout when the state repeats one saved earlier.
  void loopHead(LoopDetector &D, unsigned Target,
                const std::vector<VMValue> &Regs);
  void saveState(LoopState &S, unsigned Target,
                 const std::vector<VMValue> &Regs) const;
  bool matchesState(const LoopState &S, unsigned Target,
                    const std::vector<VMValue> &Regs) const;
  bool blockMatches(const LoopState &S, size_t Index) const;
  bool checkAccess(uint32_t Block, int64_t Offset, uint64_t Size,
                   const char *What) {
    if (Block == 0 || Block >= Blocks.size() || !Blocks[Block].Alive) {
      trap(std::string("bad pointer ") + What);
      return false;
    }
    if (Offset < 0 ||
        static_cast<uint64_t>(Offset) + Size > Blocks[Block].Bytes.size()) {
      trap(std::string("out-of-bounds ") + What);
      return false;
    }
    return true;
  }

  VMValue convertTo(const VMValue &V, const Type *Ty) {
    VMValue R;
    if (Ty->isPointer()) {
      if (V.IsPtr)
        return V;
      R.IsPtr = true;
      R.Block = 0;
      R.Offset = static_cast<int64_t>(V.Bits);
      return R;
    }
    if (V.IsPtr)
      ++Exposures;
    uint64_t Raw = V.IsPtr ? (static_cast<uint64_t>(V.Block) << 32) |
                                 static_cast<uint32_t>(V.Offset)
                           : V.Bits;
    R.Bits = normalizeIntValue(Ty, Raw);
    return R;
  }

  VMValue evalOperand(const IROperand &O,
                      const std::vector<VMValue> &Regs) {
    VMValue V;
    if (O.isConst()) {
      if (O.Ty && O.Ty->isPointer()) {
        V.IsPtr = true;
        V.Block = 0;
        V.Offset = static_cast<int64_t>(O.Imm);
      } else {
        V.Bits = O.Imm;
      }
      return V;
    }
    if (O.isReg())
      return Regs[O.Reg];
    return V;
  }

  static bool truthy(const VMValue &V) {
    return V.IsPtr ? (V.Block != 0 || V.Offset != 0) : V.Bits != 0;
  }

  VMValue loadFrom(uint32_t Block, int64_t Offset, const Type *Ty);
  void storeTo(uint32_t Block, int64_t Offset, const Type *Ty,
               const VMValue &V);

  VMValue applyBin(const IRInstr &I, const VMValue &L, const VMValue &R);
  void doPrintf(const IRInstr &I, const std::vector<VMValue> &Regs);

  VMValue callFunction(unsigned FnIndex, const std::vector<VMValue> &Args);

  const IRModule &M;
  const VMOptions &Opts;
  VMResult Result;
  bool Done = false;
  uint64_t Steps = 0;
  std::vector<VMBlock> Blocks;
  std::vector<uint32_t> GlobalBlocks;
  unsigned CallDepth = 0;
  StdinIntScanner Stdin; ///< Sweep-input cursor for IROp::Input.

  // --- divergence check (DESIGN.md Section 18) ---------------------------
  uint64_t Clock = 0;       ///< Bumped by every memory mutation.
  uint32_t LastWritten = 0; ///< Block of the latest mutation.
  uint64_t LiveBlocks = 0;
  /// Pointer-to-integer conversions plus reinterpreting loads so far: the
  /// only operations that can observe which id a fresh block received.
  uint64_t Exposures = 0;
};

void VM::loopHead(LoopDetector &D, unsigned Target,
                  const std::vector<VMValue> &Regs) {
  if (!D.Schedule.due())
    return;
  if (D.Schedule.saved() && matchesState(D.Saved, Target, Regs)) {
    Done = true;
    Result.Status = VMStatus::Timeout;
    Result.Message = "state repeats at loop head";
    return;
  }
  if (D.Schedule.advance())
    saveState(D.Saved, Target, Regs);
}

void VM::saveState(LoopState &S, unsigned Target,
                   const std::vector<VMValue> &Regs) const {
  S.Clock = Clock;
  S.LiveBlocks = LiveBlocks;
  S.Exposures = Exposures;
  S.StdinPos = Stdin.position();
  S.Target = Target;
  S.Regs = Regs;
  S.Ids.clear();
  S.Starts.clear();
  S.Bytes.clear();
  for (uint32_t Id = 1; Id < Blocks.size(); ++Id) {
    if (!Blocks[Id].Alive)
      continue;
    S.Ids.push_back(Id);
    S.Starts.push_back(S.Bytes.size());
    S.Bytes.insert(S.Bytes.end(), Blocks[Id].Bytes.begin(),
                   Blocks[Id].Bytes.end());
  }
  S.Starts.push_back(S.Bytes.size());
}

bool VM::blockMatches(const LoopState &S, size_t Index) const {
  const VMBlock &B = Blocks[S.Ids[Index]];
  if (B.Written <= S.Clock)
    return true; // Untouched since the save.
  size_t Start = S.Starts[Index];
  return B.Alive && B.Bytes.size() == S.Starts[Index + 1] - Start &&
         (B.Bytes.empty() ||
          !std::memcmp(B.Bytes.data(), S.Bytes.data() + Start,
                       B.Bytes.size()));
}

/// Blocks of calling activations cannot be freed while this one runs and a
/// block allocated since the save can only die, so an equal live count
/// says every such block is dead again.
bool VM::matchesState(const LoopState &S, unsigned Target,
                      const std::vector<VMValue> &Regs) const {
  if (Target != S.Target || Exposures != S.Exposures ||
      LiveBlocks != S.LiveBlocks || Stdin.position() != S.StdinPos)
    return false;
  // The latest write is the likeliest difference; try it first.
  auto Last = std::lower_bound(S.Ids.begin(), S.Ids.end(), LastWritten);
  if (Last != S.Ids.end() && *Last == LastWritten &&
      !blockMatches(S, Last - S.Ids.begin()))
    return false;
  if (Regs != S.Regs)
    return false;
  for (size_t I = 0; I < S.Ids.size(); ++I)
    if (!blockMatches(S, I))
      return false;
  return true;
}

VMValue VM::loadFrom(uint32_t Block, int64_t Offset, const Type *Ty) {
  uint64_t Size = Ty->isPointer() ? 8 : Ty->sizeInBytes();
  if (!checkAccess(Block, Offset, Size, "load"))
    return {};
  if (Ty->isPointer() ? Blocks[Block].HeldInteger : Blocks[Block].HeldPointer)
    ++Exposures;
  const std::vector<uint8_t> &Bytes = Blocks[Block].Bytes;
  VMValue V;
  if (Ty->isPointer()) {
    V.IsPtr = true;
    uint32_t Blk = 0, Off = 0;
    for (int I = 3; I >= 0; --I)
      Blk = (Blk << 8) | Bytes[Offset + I];
    for (int I = 3; I >= 0; --I)
      Off = (Off << 8) | Bytes[Offset + 4 + I];
    V.Block = Blk;
    V.Offset = static_cast<int32_t>(Off);
    return V;
  }
  uint64_t Raw = 0;
  for (uint64_t I = Size; I-- > 0;)
    Raw = (Raw << 8) | Bytes[Offset + I];
  V.Bits = normalizeIntValue(Ty, Raw);
  return V;
}

void VM::storeTo(uint32_t Block, int64_t Offset, const Type *Ty,
                 const VMValue &V) {
  uint64_t Size = Ty && Ty->isPointer() ? 8
                  : Ty                  ? Ty->sizeInBytes()
                                        : 8;
  bool AsPtr = V.IsPtr;
  if (!checkAccess(Block, Offset, AsPtr ? 8 : Size, "store"))
    return;
  touch(Block);
  std::vector<uint8_t> &Bytes = Blocks[Block].Bytes;
  if (AsPtr) {
    Blocks[Block].HeldPointer = true;
    uint32_t Off = static_cast<uint32_t>(static_cast<int32_t>(V.Offset));
    for (int I = 0; I < 4; ++I)
      Bytes[Offset + I] = static_cast<uint8_t>(V.Block >> (8 * I));
    for (int I = 0; I < 4; ++I)
      Bytes[Offset + 4 + I] = static_cast<uint8_t>(Off >> (8 * I));
    return;
  }
  Blocks[Block].HeldInteger = true;
  for (uint64_t I = 0; I < Size; ++I)
    Bytes[Offset + I] = static_cast<uint8_t>(V.Bits >> (8 * I));
}

VMValue VM::applyBin(const IRInstr &I, const VMValue &L, const VMValue &R) {
  VMValue V;
  // Pointer comparisons.
  if ((L.IsPtr || R.IsPtr) && isComparisonOp(I.Bin)) {
    VMValue PL = L.IsPtr ? L : VMValue{true, 0, 0, static_cast<int64_t>(L.Bits)};
    VMValue PR = R.IsPtr ? R : VMValue{true, 0, 0, static_cast<int64_t>(R.Bits)};
    bool Res = false;
    switch (I.Bin) {
    case BinaryOp::EQ:
      Res = PL.Block == PR.Block && PL.Offset == PR.Offset;
      break;
    case BinaryOp::NE:
      Res = PL.Block != PR.Block || PL.Offset != PR.Offset;
      break;
    case BinaryOp::LT:
      Res = std::pair(PL.Block, PL.Offset) < std::pair(PR.Block, PR.Offset);
      break;
    case BinaryOp::GT:
      Res = std::pair(PL.Block, PL.Offset) > std::pair(PR.Block, PR.Offset);
      break;
    case BinaryOp::LE:
      Res = std::pair(PL.Block, PL.Offset) <= std::pair(PR.Block, PR.Offset);
      break;
    default:
      Res = std::pair(PL.Block, PL.Offset) >= std::pair(PR.Block, PR.Offset);
      break;
    }
    V.Bits = Res ? 1 : 0;
    return V;
  }

  // Integer operations: the computation type is the operands' common type
  // (carried on operand A for comparisons, on I.Ty for arithmetic).
  const Type *Ty = isComparisonOp(I.Bin) && I.A.Ty ? I.A.Ty : I.Ty;
  unsigned Width = Ty->isInteger() ? Ty->intWidth() : 64;
  bool Signed = Ty->isInteger() ? Ty->isSigned() : true;
  uint64_t UL = L.Bits, UR = R.Bits;
  int64_t SL = static_cast<int64_t>(UL), SR = static_cast<int64_t>(UR);
  uint64_t Raw = 0;
  bool Res = false;
  switch (I.Bin) {
  case BinaryOp::Add:
    Raw = UL + UR;
    break;
  case BinaryOp::Sub:
    Raw = UL - UR;
    break;
  case BinaryOp::Mul:
    Raw = UL * UR;
    break;
  case BinaryOp::Div:
  case BinaryOp::Rem: {
    if (UR == 0) {
      trap("division by zero");
      return {};
    }
    if (Signed) {
      if (SL == std::numeric_limits<int64_t>::min() && SR == -1) {
        trap("division overflow");
        return {};
      }
      Raw = static_cast<uint64_t>(I.Bin == BinaryOp::Div ? SL / SR
                                                         : SL % SR);
    } else {
      Raw = I.Bin == BinaryOp::Div ? UL / UR : UL % UR;
    }
    break;
  }
  case BinaryOp::Shl:
    Raw = UL << (UR & (Width - 1));
    break;
  case BinaryOp::Shr:
    if (Signed)
      Raw = static_cast<uint64_t>(SL >> (UR & (Width - 1)));
    else
      Raw = normalizeIntValue(Ty, UL) >> (UR & (Width - 1));
    break;
  case BinaryOp::BitAnd:
    Raw = UL & UR;
    break;
  case BinaryOp::BitXor:
    Raw = UL ^ UR;
    break;
  case BinaryOp::BitOr:
    Raw = UL | UR;
    break;
  case BinaryOp::LT:
  case BinaryOp::GT:
  case BinaryOp::LE:
  case BinaryOp::GE:
  case BinaryOp::EQ:
  case BinaryOp::NE: {
    uint64_t NL = normalizeIntValue(Ty, UL), NR = normalizeIntValue(Ty, UR);
    int64_t TSL = static_cast<int64_t>(NL), TSR = static_cast<int64_t>(NR);
    switch (I.Bin) {
    case BinaryOp::LT:
      Res = Signed ? TSL < TSR : NL < NR;
      break;
    case BinaryOp::GT:
      Res = Signed ? TSL > TSR : NL > NR;
      break;
    case BinaryOp::LE:
      Res = Signed ? TSL <= TSR : NL <= NR;
      break;
    case BinaryOp::GE:
      Res = Signed ? TSL >= TSR : NL >= NR;
      break;
    case BinaryOp::EQ:
      Res = NL == NR;
      break;
    default:
      Res = NL != NR;
      break;
    }
    V.Bits = Res ? 1 : 0;
    return V;
  }
  default:
    trap("unsupported binary operator in VM");
    return {};
  }
  V.Bits = normalizeIntValue(I.Ty && I.Ty->isInteger() ? I.Ty : Ty, Raw);
  return V;
}

void VM::doPrintf(const IRInstr &I, const std::vector<VMValue> &Regs) {
  std::vector<VMValue> Args;
  std::vector<const Type *> Types;
  for (const IROperand &O : I.Args) {
    Args.push_back(evalOperand(O, Regs));
    Types.push_back(O.Ty);
  }
  const std::string &F = I.Fmt;
  size_t Arg = 0;
  std::string Out;
  for (size_t P = 0; P < F.size(); ++P) {
    if (F[P] != '%') {
      Out += F[P];
      continue;
    }
    ++P;
    if (P >= F.size())
      break;
    bool Long = false;
    while (P < F.size() && F[P] == 'l') {
      Long = true;
      ++P;
    }
    char Conv = P < F.size() ? F[P] : '%';
    if (Conv == '%') {
      Out += '%';
      continue;
    }
    if (Arg >= Args.size()) {
      trap("printf: missing argument");
      return;
    }
    VMValue V = Args[Arg++];
    switch (Conv) {
    case 'd':
    case 'i': {
      int64_t X = Long ? static_cast<int64_t>(V.Bits)
                       : static_cast<int32_t>(V.Bits);
      Out += std::to_string(X);
      break;
    }
    case 'u': {
      uint64_t X = Long ? V.Bits : static_cast<uint32_t>(V.Bits);
      Out += std::to_string(X);
      break;
    }
    case 'x': {
      uint64_t X = Long ? V.Bits : static_cast<uint32_t>(V.Bits);
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%llx",
                    static_cast<unsigned long long>(X));
      Out += Buf;
      break;
    }
    case 'c':
      Out += static_cast<char>(V.Bits & 0xff);
      break;
    default:
      trap(std::string("printf conversion %") + Conv);
      return;
    }
  }
  Result.Output += Out;
}

VMValue VM::callFunction(unsigned FnIndex,
                         const std::vector<VMValue> &Args) {
  if (++CallDepth > Opts.MaxCallDepth) {
    Done = true;
    Result.Status = VMStatus::Timeout;
    Result.Message = "call depth exceeded";
    --CallDepth;
    return {};
  }
  const IRFunction &F = M.Functions[FnIndex];
  std::vector<VMValue> Regs(F.NumRegs);
  std::vector<uint32_t> SlotBlocks(F.Slots.size());
  for (size_t S = 0; S < F.Slots.size(); ++S)
    SlotBlocks[S] = allocate(F.Slots[S].Ty->isPointer() ? 8
                                                        : F.Slots[S].Size);
  for (size_t A = 0; A < Args.size() && A < F.NumParams; ++A)
    storeTo(SlotBlocks[A], 0, F.Slots[A].Ty, Args[A]);

  unsigned BlockIndex = 0;
  size_t InstrIndex = 0;
  VMValue RetVal;
  // Every CFG cycle has an edge whose target index is <= its source's, so
  // checking after those branches sees every loop.
  LoopDetector Detector;
  while (!Done) {
    if (!step())
      break;
    assert(BlockIndex < F.Blocks.size() &&
           InstrIndex < F.Blocks[BlockIndex].Instrs.size());
    const IRInstr &I = F.Blocks[BlockIndex].Instrs[InstrIndex];
    ++InstrIndex;
    switch (I.Op) {
    case IROp::Const: {
      Regs[I.Dst] = evalOperand(I.A, Regs);
      break;
    }
    case IROp::Copy:
      Regs[I.Dst] = convertTo(evalOperand(I.A, Regs), I.Ty);
      break;
    case IROp::Bin:
      Regs[I.Dst] = applyBin(I, evalOperand(I.A, Regs),
                             evalOperand(I.B, Regs));
      break;
    case IROp::Neg: {
      VMValue V = evalOperand(I.A, Regs);
      Regs[I.Dst].IsPtr = false;
      Regs[I.Dst].Bits = normalizeIntValue(I.Ty, 0 - V.Bits);
      break;
    }
    case IROp::BitNot: {
      VMValue V = evalOperand(I.A, Regs);
      Regs[I.Dst].IsPtr = false;
      Regs[I.Dst].Bits = normalizeIntValue(I.Ty, ~V.Bits);
      break;
    }
    case IROp::Not: {
      VMValue V = evalOperand(I.A, Regs);
      Regs[I.Dst] = VMValue{};
      Regs[I.Dst].Bits = truthy(V) ? 0 : 1;
      break;
    }
    case IROp::AddrSlot: {
      VMValue V;
      V.IsPtr = true;
      V.Block = SlotBlocks[I.SlotIndex];
      Regs[I.Dst] = V;
      break;
    }
    case IROp::AddrGlobal: {
      VMValue V;
      V.IsPtr = true;
      V.Block = GlobalBlocks[I.GlobalIndex];
      Regs[I.Dst] = V;
      break;
    }
    case IROp::PtrAdd: {
      VMValue P = evalOperand(I.A, Regs);
      VMValue D = evalOperand(I.B, Regs);
      P.Offset += static_cast<int64_t>(D.Bits) *
                  static_cast<int64_t>(I.Scale);
      Regs[I.Dst] = P;
      break;
    }
    case IROp::PtrDiff: {
      VMValue A = evalOperand(I.A, Regs);
      VMValue B = evalOperand(I.B, Regs);
      if (A.Block != B.Block) {
        trap("cross-object pointer difference");
        break;
      }
      VMValue V;
      V.Bits = normalizeIntValue(
          I.Ty, static_cast<uint64_t>((A.Offset - B.Offset) /
                                      static_cast<int64_t>(I.Scale)));
      Regs[I.Dst] = V;
      break;
    }
    case IROp::Load: {
      VMValue P = evalOperand(I.A, Regs);
      Regs[I.Dst] = loadFrom(P.Block, P.Offset, I.Ty);
      break;
    }
    case IROp::Store: {
      VMValue P = evalOperand(I.A, Regs);
      VMValue V = evalOperand(I.B, Regs);
      storeTo(P.Block, P.Offset, I.Ty, V);
      break;
    }
    case IROp::Memcpy: {
      VMValue D = evalOperand(I.A, Regs);
      VMValue S = evalOperand(I.B, Regs);
      if (!checkAccess(D.Block, D.Offset, I.Size, "memcpy dst") ||
          !checkAccess(S.Block, S.Offset, I.Size, "memcpy src"))
        break;
      touch(D.Block);
      Blocks[D.Block].HeldPointer |= Blocks[S.Block].HeldPointer;
      Blocks[D.Block].HeldInteger |= Blocks[S.Block].HeldInteger;
      for (uint64_t Byte = 0; Byte < I.Size; ++Byte)
        Blocks[D.Block].Bytes[D.Offset + Byte] =
            Blocks[S.Block].Bytes[S.Offset + Byte];
      break;
    }
    case IROp::Memset: {
      VMValue D = evalOperand(I.A, Regs);
      if (!checkAccess(D.Block, D.Offset, I.Size, "memset"))
        break;
      touch(D.Block);
      for (uint64_t Byte = 0; Byte < I.Size; ++Byte)
        Blocks[D.Block].Bytes[D.Offset + Byte] = 0;
      break;
    }
    case IROp::Call: {
      std::vector<VMValue> CallArgs;
      for (const IROperand &O : I.Args)
        CallArgs.push_back(evalOperand(O, Regs));
      VMValue R = callFunction(static_cast<unsigned>(I.CalleeIndex),
                               CallArgs);
      if (I.HasDst)
        Regs[I.Dst] = R;
      break;
    }
    case IROp::Printf:
      doPrintf(I, Regs);
      break;
    case IROp::Input: {
      VMValue V;
      V.Bits = normalizeIntValue(I.Ty, static_cast<uint64_t>(static_cast<uint32_t>(
                                           Stdin.next())));
      if (I.HasDst)
        Regs[I.Dst] = V;
      break;
    }
    case IROp::Ret:
      if (!I.A.isNone())
        RetVal = evalOperand(I.A, Regs);
      goto FunctionExit;
    case IROp::Br:
    case IROp::CondBr: {
      unsigned From = BlockIndex;
      BlockIndex = I.Op == IROp::Br || truthy(evalOperand(I.A, Regs))
                       ? I.Succ0
                       : I.Succ1;
      InstrIndex = 0;
      if (BlockIndex <= From)
        loopHead(Detector, BlockIndex, Regs);
      break;
    }
    case IROp::Unreachable:
      trap("reached unreachable");
      break;
    }
  }
FunctionExit:
  for (uint32_t B : SlotBlocks) {
    Blocks[B].Alive = false;
    --LiveBlocks;
    touch(B);
  }
  --CallDepth;
  return RetVal;
}

VMResult VM::run() {
  for (const IRGlobal &G : M.Globals) {
    uint32_t B = allocate(G.InitBytes.size());
    Blocks[B].Bytes = G.InitBytes;
    Blocks[B].HeldInteger =
        std::any_of(G.InitBytes.begin(), G.InitBytes.end(),
                    [](uint8_t Byte) { return Byte != 0; });
    GlobalBlocks.push_back(B);
  }
  if (M.MainIndex < 0) {
    trap("no main function");
    return Result;
  }
  VMValue Exit = callFunction(static_cast<unsigned>(M.MainIndex), {});
  if (!Done) {
    Result.Status = VMStatus::Ok;
    Result.ExitCode = static_cast<int32_t>(Exit.Bits);
  }
  return Result;
}

} // namespace

VMResult spe::executeModule(const IRModule &M, VMOptions Opts) {
  VM Machine(M, Opts);
  VMResult R = Machine.run();
  // A Timeout carries no output, so no observation depends on when
  // non-termination was proven.
  if (R.Status == VMStatus::Timeout)
    R.Output.clear();
  return R;
}

//===- compiler/Compiler.cpp - MiniCC driver ------------------------------===//

#include "compiler/Compiler.h"

#include "compiler/Passes.h"

using namespace spe;

namespace {

/// Where a mutilation edits a module: instruction Instr of block Block of
/// function Fn.
struct MutilationSite {
  size_t Fn = 0;
  size_t Block = 0;
  size_t Instr = 0;
};

bool sameOperand(const IROperand &A, const IROperand &B) {
  return A.K == B.K && A.Imm == B.Imm && A.Reg == B.Reg && A.Ty == B.Ty;
}

/// Finds the instruction \p Mut edits in \p M. \returns false when there
/// is none, or when the edit would leave the module as it is: a swap of
/// equal operands or of equal successors.
bool findMutilationSite(const IRModule &M, Mutilation Mut,
                        MutilationSite &Site) {
  if (Mut == Mutilation::None || M.MainIndex < 0)
    return false;
  const size_t Main = static_cast<size_t>(M.MainIndex);
  const std::vector<IRBlock> &MainBlocks = M.Functions[Main].Blocks;
  switch (Mut) {
  case Mutilation::None:
    return false;
  case Mutilation::DropLastStore:
    for (size_t B = MainBlocks.size(); B-- > 0;)
      for (size_t I = MainBlocks[B].Instrs.size(); I-- > 0;)
        if (MainBlocks[B].Instrs[I].Op == IROp::Store) {
          Site = {Main, B, I};
          return true;
        }
    return false;
  case Mutilation::DropFirstStore:
    for (size_t B = 0; B < MainBlocks.size(); ++B)
      for (size_t I = 0; I < MainBlocks[B].Instrs.size(); ++I)
        if (MainBlocks[B].Instrs[I].Op == IROp::Store) {
          Site = {Main, B, I};
          return true;
        }
    return false;
  case Mutilation::SwapFirstSubOperands:
  case Mutilation::FoldSelfDivToOne:
    for (size_t F = 0; F < M.Functions.size(); ++F) {
      const std::vector<IRBlock> &Blocks = M.Functions[F].Blocks;
      for (size_t B = 0; B < Blocks.size(); ++B)
        for (size_t I = 0; I < Blocks[B].Instrs.size(); ++I) {
          const IRInstr &In = Blocks[B].Instrs[I];
          if (In.Op != IROp::Bin)
            continue;
          Site = {F, B, I};
          if (Mut == Mutilation::SwapFirstSubOperands &&
              In.Bin == BinaryOp::Sub)
            return !sameOperand(In.A, In.B);
          if (Mut == Mutilation::FoldSelfDivToOne &&
              In.Bin == BinaryOp::Div && In.A.isReg() && In.B.isReg() &&
              In.A.Reg == In.B.Reg)
            return true;
        }
    }
    return false;
  case Mutilation::NegateFirstCondBr:
    for (size_t F = 0; F < M.Functions.size(); ++F) {
      const std::vector<IRBlock> &Blocks = M.Functions[F].Blocks;
      for (size_t B = 0; B < Blocks.size(); ++B) {
        const IRInstr &Term = Blocks[B].Instrs.back();
        if (Term.Op == IROp::CondBr) {
          Site = {F, B, Blocks[B].Instrs.size() - 1};
          return Term.Succ0 != Term.Succ1;
        }
      }
    }
    return false;
  }
  return false;
}

/// Applies \p Mut at \p Site, which findMutilationSite found in \p M.
void mutilateAt(IRModule &M, Mutilation Mut, const MutilationSite &Site) {
  std::vector<IRInstr> &Instrs =
      M.Functions[Site.Fn].Blocks[Site.Block].Instrs;
  IRInstr &I = Instrs[Site.Instr];
  switch (Mut) {
  case Mutilation::None:
    return;
  case Mutilation::DropLastStore:
  case Mutilation::DropFirstStore:
    Instrs.erase(Instrs.begin() + static_cast<long>(Site.Instr));
    return;
  case Mutilation::SwapFirstSubOperands:
    std::swap(I.A, I.B);
    return;
  case Mutilation::FoldSelfDivToOne: {
    IRInstr New;
    New.Op = IROp::Const;
    New.HasDst = true;
    New.Dst = I.Dst;
    New.Ty = I.Ty;
    New.A = IROperand::constant(1, I.Ty);
    I = std::move(New);
    return;
  }
  case Mutilation::NegateFirstCondBr:
    std::swap(I.Succ0, I.Succ1);
    return;
  }
}

} // namespace

bool spe::applyMutilation(IRModule &M, Mutilation Mut) {
  MutilationSite Site;
  if (!findMutilationSite(M, Mut, Site))
    return false;
  mutilateAt(M, Mut, Site);
  return true;
}

LoweredUnit::LoweredUnit(ASTContext &Ctx, CoverageRegistry *Cov)
    : Features(extractFeatures(Ctx)), Gen(generateIR(Ctx)), Cov(Cov) {
  if (!Gen.Ok)
    return;
  BaseCost = 1;
  for (const IRFunction &F : Gen.Module.Functions)
    BaseCost += F.Blocks.size();

  // Frontend coverage points keyed on syntactic features and on the
  // operators the lowering actually emitted.
  if (Cov) {
    Cov->hit("irgen.function");
    if (Features.NumLoops > 0)
      Cov->hit("irgen.loop");
    if (Features.NumGotos > 0)
      Cov->hit("irgen.goto");
    if (Features.NumCalls > 0)
      Cov->hit("irgen.call");
    if (Features.NumDerefs > 0)
      Cov->hit("irgen.pointer");
    if (Features.NumStructAccesses > 0)
      Cov->hit("irgen.struct");
    Cov->hit("irgen.branch");
    for (const IRFunction &F : Gen.Module.Functions)
      for (const IRBlock &B : F.Blocks)
        for (const IRInstr &I : B.Instrs)
          if (I.Op == IROp::Bin)
            Cov->hit(std::string("irgen.bin.") + binaryOpSpelling(I.Bin));
  }
}

const LoweredUnit::Module &LoweredUnit::module(unsigned OptLevel,
                                               Mutilation Mut) {
  auto It = Modules.find({OptLevel, Mut});
  if (It != Modules.end())
    return It->second;
  Module M;
  if (Mut == Mutilation::None) {
    // The pipeline reads only the module and the level, and the registry
    // is a hit set, so one run per level equals one run per config.
    M.IR = Gen.Module;
    runPipeline(M.IR, OptLevel, Cov);
  } else {
    const Module &Level = module(OptLevel, Mutilation::None);
    MutilationSite Site;
    // A mutilation that would change nothing is the level's module itself:
    // no copy, no verifier run, and the VM memo shares its run.
    if (!findMutilationSite(Level.IR, Mut, Site))
      return Level;
    M.IR = Level.IR;
    mutilateAt(M.IR, Mut, Site);
  }
  M.VerifyError = verifyModule(M.IR);
  return Modules.emplace(std::make_pair(OptLevel, Mut), std::move(M))
      .first->second;
}

CompileResult MiniCompiler::compile(ASTContext &Ctx) const {
  LoweredUnit Unit(Ctx, Cov);
  return compile(Unit);
}

CompileResult MiniCompiler::compile(LoweredUnit &Unit) const {
  CompileResult Result;
  if (const IRModule *M = compileInPlace(Unit, Result))
    Result.Module = *M;
  return Result;
}

const IRModule *MiniCompiler::compileInPlace(LoweredUnit &Unit,
                                             CompileResult &Result) const {
  if (!Unit.ok()) {
    Result.St = CompileResult::Status::Rejected;
    Result.Error = Unit.error();
    return nullptr;
  }
  Result.CompileCost = Unit.baseCost();

  // Injected bug hooks: crashes preempt everything; wrong-code mutilates
  // the module after optimization; performance inflates the cost.
  Mutilation PendingMut = Mutilation::None;
  if (InjectBugs) {
    for (const InjectedBug &B : bugDatabase()) {
      if (!B.firesOn(Config, Unit.features()))
        continue;
      Result.FiredBugs.push_back(B.Id);
      if (B.Effect == BugEffect::Crash && Result.CrashBugId == 0) {
        Result.St = CompileResult::Status::Crashed;
        Result.CrashSignature = B.CrashSignature;
        Result.CrashBugId = B.Id;
      } else if (B.Effect == BugEffect::WrongCode &&
                 PendingMut == Mutilation::None) {
        PendingMut = B.Mut;
      } else if (B.Effect == BugEffect::Performance) {
        Result.CompileCost += 1'000'000;
      }
    }
  }
  if (Result.CrashBugId != 0)
    return nullptr; // A crashed compile runs no pipeline.

  const LoweredUnit::Module &M = Unit.module(Config.OptLevel, PendingMut);
  if (!M.VerifyError.empty()) {
    // A pipeline bug in MiniCC itself; surface it as a crash so the harness
    // notices instead of executing bogus IR.
    Result.St = CompileResult::Status::Crashed;
    Result.CrashSignature = "internal compiler error: " + M.VerifyError;
    return &M.IR;
  }
  Result.St = CompileResult::Status::Ok;
  return &M.IR;
}

//===- compiler/Compiler.cpp - MiniCC driver ------------------------------===//

#include "compiler/Compiler.h"

#include "compiler/Passes.h"

using namespace spe;

void spe::applyMutilation(IRModule &M, Mutilation Mut) {
  if (Mut == Mutilation::None || M.MainIndex < 0)
    return;
  IRFunction &Main = M.Functions[static_cast<size_t>(M.MainIndex)];
  switch (Mut) {
  case Mutilation::None:
    return;
  case Mutilation::DropLastStore: {
    for (size_t B = Main.Blocks.size(); B-- > 0;) {
      std::vector<IRInstr> &Instrs = Main.Blocks[B].Instrs;
      for (size_t I = Instrs.size(); I-- > 0;) {
        if (Instrs[I].Op == IROp::Store) {
          Instrs.erase(Instrs.begin() + static_cast<long>(I));
          return;
        }
      }
    }
    return;
  }
  case Mutilation::DropFirstStore: {
    for (IRBlock &B : Main.Blocks) {
      for (size_t I = 0; I < B.Instrs.size(); ++I) {
        if (B.Instrs[I].Op == IROp::Store) {
          B.Instrs.erase(B.Instrs.begin() + static_cast<long>(I));
          return;
        }
      }
    }
    return;
  }
  case Mutilation::SwapFirstSubOperands: {
    for (IRFunction &F : M.Functions) {
      for (IRBlock &B : F.Blocks) {
        for (IRInstr &I : B.Instrs) {
          if (I.Op == IROp::Bin && I.Bin == BinaryOp::Sub) {
            std::swap(I.A, I.B);
            return;
          }
        }
      }
    }
    return;
  }
  case Mutilation::FoldSelfDivToOne: {
    for (IRFunction &F : M.Functions) {
      for (IRBlock &B : F.Blocks) {
        for (IRInstr &I : B.Instrs) {
          if (I.Op == IROp::Bin && I.Bin == BinaryOp::Div && I.A.isReg() &&
              I.B.isReg() && I.A.Reg == I.B.Reg) {
            IRInstr New;
            New.Op = IROp::Const;
            New.HasDst = true;
            New.Dst = I.Dst;
            New.Ty = I.Ty;
            New.A = IROperand::constant(1, I.Ty);
            I = std::move(New);
            return;
          }
        }
      }
    }
    return;
  }
  case Mutilation::NegateFirstCondBr: {
    for (IRFunction &F : M.Functions) {
      for (IRBlock &B : F.Blocks) {
        IRInstr &Term = B.Instrs.back();
        if (Term.Op == IROp::CondBr) {
          std::swap(Term.Succ0, Term.Succ1);
          return;
        }
      }
    }
    return;
  }
  }
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
    M.IR = module(OptLevel, Mutilation::None).IR;
    applyMutilation(M.IR, Mut);
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

//===- interp/Interpreter.cpp - Reference interpreter with UB oracle -----===//

#include "interp/Interpreter.h"

#include "analysis/ExprEvents.h"
#include "support/Divergence.h"
#include "support/Printf.h"
#include "support/Scratch.h"
#include "support/StdinScan.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <vector>

using namespace spe;

namespace {

/// A runtime scalar: an integer (sign-/zero-extended into 64 bits) or a
/// pointer (block + byte offset). Uninit marks the indeterminate value a
/// non-void function "returns" when control falls off its end.
struct Value {
  const Type *Ty = nullptr;
  uint64_t Bits = 0;
  uint32_t Block = 0;
  int64_t Offset = 0;
  bool Uninit = false;

  bool isPointer() const { return Ty && Ty->isPointer(); }
};

/// A memory place.
struct LValue {
  uint32_t Block = 0;
  int64_t Offset = 0;
  const Type *Ty = nullptr;
};

/// An activation's frame: its slice of the slot stack, one block id per
/// variable of the unit (by Sema's VarDecl::varId), 0 for a variable
/// without a live object in it.
struct FrameView {
  const uint32_t *Slots;
  size_t Width;
};

/// The interpreter's saved image of a loop activation: its frame.
struct SavedFrame {
  std::vector<uint32_t> Frame;

  bool sameLoop(const FrameView &) const { return true; }
  static bool covers(const DriftPlan &, const FrameView &) { return true; }
  bool matches(const FrameView &Current, const DriftPlan *) const {
    return std::equal(Frame.begin(), Frame.end(), Current.Slots,
                      Current.Slots + Current.Width);
  }
  SavedFrame &operator=(const FrameView &Current) {
    Frame.assign(Current.Slots, Current.Slots + Current.Width);
    return *this;
  }
};

/// A loop's drift plan and the variable behind each of its cells.
struct LoopPlan {
  DriftPlan Plan;
  std::vector<const VarDecl *> Vars;
};

/// The walk of one function body that fills the statement index.
struct ScopeWalk {
  const CompoundStmt *Body = nullptr;
  std::vector<const Stmt *> Path; ///< The statements enclosing the visit.
  std::vector<const LabelStmt *> Labels;
  std::vector<const GotoStmt *> Gotos;
};

/// Control-flow signal propagated out of statement execution.
struct Signal {
  enum Kind { None, Break, Continue, Return, Goto } K = None;
  Value Ret;
  const LabelStmt *Target = nullptr; ///< A goto's label.
};

/// What block lifetimes need of one statement, computed once per run.
struct StmtScope {
  /// A nested compound's, or a for statement's, own locals: those it
  /// declares outside any nested compound or for. A function body's own
  /// locals end with its frame instead.
  std::vector<const VarDecl *> Owned;
  /// A goto's label.
  const LabelStmt *Target = nullptr;
  /// A label's enclosing statements, its function's body first.
  std::vector<const Stmt *> Enclosing;
};

/// The oracle's per-thread scratch (support/Scratch.h). A run
/// re-initializes each table before reading it.
struct OracleTables {
  /// The slot stack. Frame 0, at the bottom, holds the globals' blocks;
  /// each call pushes one frame for the callee's parameters and locals.
  /// Every frame is the unit's variable count wide.
  std::vector<uint32_t> Slots;
  /// Evaluated call arguments, until the callee's parameters take them.
  std::vector<Value> Args;
  std::vector<uint64_t> PrintfArgs;
  std::vector<StmtScope> Scopes; ///< Indexed by Sema statement id.
  ScopeWalk Walk;
};

class Interp {
public:
  Interp(ASTContext &Ctx, const InterpOptions &Opts)
      : Ctx(Ctx), Opts(Opts), Stdin(Opts.Input), Mem("<null>"),
        FrameWidth(Ctx.numVars()) {}

  ExecResult run();

private:
  // --- failure handling -------------------------------------------------
  void fail(ExecStatus Status, const std::string &Message) {
    if (Failed)
      return;
    Failed = true;
    Result.Status = Status;
    Result.Message = Message;
  }
  void ub(const std::string &Message) {
    fail(ExecStatus::UndefinedBehavior, Message);
  }
  void timeout(TimeoutReason Reason, const char *Message) {
    if (!Failed)
      Result.Reason = Reason;
    fail(ExecStatus::Timeout, Message);
  }
  bool step() {
    if (Failed)
      return false;
    if (++Steps > Opts.MaxSteps) {
      timeout(TimeoutReason::Budget, "step budget exhausted");
      return false;
    }
    return true;
  }

  /// Counts a visit to \p Loop's head, or with a null \p Loop a taken
  /// goto; on a check, \returns true (after failing the run with Timeout)
  /// when the state repeats one saved earlier, or, at a loop head, repeats
  /// up to drift cells the budget ends before.
  bool loopHead(LoopDetector<SavedFrame> &D, const Stmt *Loop);
  /// \returns \p Loop's drift plan, classifying it on first use, and arms
  /// \p W with it.
  const DriftPlan *armDrift(DriftWatch &W, const Stmt *Loop);
  LoopPlan classifyLoop(const Stmt *Loop);
  void noteStore(uint32_t Block) {
    for (DriftWatch *W : Watches)
      if (W->recording())
        W->stored(Mem, Block);
  }

  // --- memory -----------------------------------------------------------
  uint32_t allocate(const char *Name, uint64_t Size, bool ZeroInit);
  bool checkAccess(const LValue &LV, uint64_t Size, const char *What);
  Value loadScalar(const LValue &LV);
  void storeScalar(const LValue &LV, const Value &V);
  void copyObject(const LValue &Dst, const LValue &Src, uint64_t Size);

  // --- value helpers ----------------------------------------------------
  Value makeInt(const Type *Ty, uint64_t Raw) const;
  Value convert(const Value &V, const Type *To);
  /// \returns the boolean truth of a scalar; flags UB on uninit.
  bool truthy(const Value &V);
  bool requireInit(const Value &V, const char *What);

  // --- evaluation -------------------------------------------------------
  Value evalExpr(const Expr *E);
  bool evalLValue(const Expr *E, LValue &Out);
  Value evalBinary(const BinaryExpr *B);
  Value applyArith(BinaryOp Op, const Type *Ty, const Value &L,
                   const Value &R, SourceLocation Loc);
  Value pointerAdd(const Value &Ptr, int64_t Delta, SourceLocation Loc);
  Value evalCall(const CallExpr *C);
  void doPrintf(const CallExpr *C);
  /// Calls \p F on the arguments at T->Args[ArgBase...].
  Value callFunction(const FunctionDecl *F, size_t ArgBase);

  // --- statements -------------------------------------------------------
  Signal execStmt(const Stmt *S);
  /// Runs \p F from its condition, or from its step when \p FromStep.
  Signal iterateFor(const ForStmt *F, bool FromStep);
  /// Enters \p S, which is or encloses \p Target, jumping to the label.
  Signal execSeek(const Stmt *S, const LabelStmt *Target);
  Signal runBody(const CompoundStmt *Body);
  void execVarDecl(const VarDecl *V);
  void initializeObject(const LValue &LV, const Expr *Init);

  // --- block lifetimes ----------------------------------------------------
  /// Indexes \p S, whose declarations belong to \p Owner.
  void indexScopes(const Stmt *S, const Stmt *Owner, ScopeWalk &W);
  StmtScope &scopeOf(const Stmt *S) { return T->Scopes[S->stmtId()]; }
  /// \returns whether \p S is \p Target or encloses it.
  bool onPath(const Stmt *S, const LabelStmt *Target) {
    const std::vector<const Stmt *> &E = scopeOf(Target).Enclosing;
    return S == Target || std::find(E.begin(), E.end(), S) != E.end();
  }
  /// Ends the lifetimes of \p Block's own locals as \p Sig leaves it; a
  /// goto to a label inside it does not leave it.
  void leaveBlock(const Stmt *Block, const Signal &Sig);
  /// Creates the objects a jump over \p S skips, indeterminate.
  void declareSkipped(const Stmt *S);

  /// \p V's slot in the current frame, or in the globals' frame.
  uint32_t &slotOf(const VarDecl *V) {
    return T->Slots[(V->isGlobal() ? 0 : FrameBase) + V->varId()];
  }
  uint32_t blockOf(const VarDecl *V) { return slotOf(V); }
  FrameView currentFrame() {
    return {T->Slots.data() + FrameBase, FrameWidth};
  }

  ASTContext &Ctx;
  const InterpOptions &Opts;
  ExecResult Result;
  bool Failed = false;
  uint64_t Steps = 0;
  StdinIntScanner Stdin; ///< Sweep-input cursor for spe_input().

  MachineMemory Mem;
  ScratchLease<OracleTables> T;
  size_t FrameWidth;     ///< The unit's variable count.
  size_t FrameBase = 0;  ///< The current frame's first slot.
  unsigned CallDepth = 0;

  // --- drift proofs (DESIGN.md Section 18.5) -------------------------------
  std::map<const Stmt *, LoopPlan> Plans; ///< Classified loops of this run.
  std::vector<DriftWatch *> Watches;      ///< Armed watches, innermost last.
  /// Variables whose address is taken anywhere; filled on first use.
  std::set<const VarDecl *> AddressTaken;
  bool AddressTakenKnown = false;
};

//===----------------------------------------------------------------------===//
// Divergence check
//===----------------------------------------------------------------------===//

bool Interp::loopHead(LoopDetector<SavedFrame> &D, const Stmt *Loop) {
  TimeoutReason Reason =
      D.visit(Mem, Stdin.position(), currentFrame(), Steps, Opts.MaxSteps,
              [&](DriftWatch &W) { return Loop ? armDrift(W, Loop) : nullptr; });
  if (Reason == TimeoutReason::None)
    return false;
  timeout(Reason, !Loop ? "state repeats at goto"
                  : Reason == TimeoutReason::Repeat
                      ? "state repeats at loop head"
                      : "state drifts at loop head");
  return true;
}

const DriftPlan *Interp::armDrift(DriftWatch &W, const Stmt *Loop) {
  auto It = Plans.find(Loop);
  if (It == Plans.end())
    It = Plans.emplace(Loop, classifyLoop(Loop)).first;
  const LoopPlan &P = It->second;
  std::vector<uint32_t> Cells;
  for (const VarDecl *V : P.Vars)
    if (uint32_t Block = blockOf(V))
      Cells.push_back(Block);
  if (P.Plan.empty() || Cells.size() != P.Vars.size())
    return nullptr;
  W.arm(P.Plan, std::move(Cells), Watches);
  return &P.Plan;
}

namespace {

/// Calls \p Fn(E, ValueUsed) on every full expression under \p S that runs
/// inside the statement (a nested for's init included).
template <class FnT> void forEachFullExpr(const Stmt *S, FnT &&Fn) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->body())
      forEachFullExpr(Child, Fn);
    return;
  case Stmt::Kind::Decl:
    for (const VarDecl *V : cast<DeclStmt>(S)->decls())
      if (V->init())
        Fn(V->init(), true);
    return;
  case Stmt::Kind::Expr:
    if (const Expr *E = cast<ExprStmt>(S)->expr())
      Fn(E, false);
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    Fn(I->cond(), true);
    forEachFullExpr(I->thenStmt(), Fn);
    forEachFullExpr(I->elseStmt(), Fn);
    return;
  }
  case Stmt::Kind::While:
    Fn(cast<WhileStmt>(S)->cond(), true);
    forEachFullExpr(cast<WhileStmt>(S)->body(), Fn);
    return;
  case Stmt::Kind::Do:
    forEachFullExpr(cast<DoStmt>(S)->body(), Fn);
    Fn(cast<DoStmt>(S)->cond(), true);
    return;
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    forEachFullExpr(F->init(), Fn);
    if (F->cond())
      Fn(F->cond(), true);
    forEachFullExpr(F->body(), Fn);
    if (F->step())
      Fn(F->step(), false);
    return;
  }
  case Stmt::Kind::Return:
    if (const Expr *V = cast<ReturnStmt>(S)->value())
      Fn(V, true);
    return;
  case Stmt::Kind::Label:
    forEachFullExpr(cast<LabelStmt>(S)->sub(), Fn);
    return;
  default:
    return;
  }
}

/// Calls \p Fn on \p E and every subexpression.
template <class FnT> void forEachSubExpr(const Expr *E, FnT &&Fn) {
  if (!E)
    return;
  Fn(E);
  switch (E->kind()) {
  case Expr::Kind::Unary:
    forEachSubExpr(cast<UnaryExpr>(E)->sub(), Fn);
    return;
  case Expr::Kind::Binary:
    forEachSubExpr(cast<BinaryExpr>(E)->lhs(), Fn);
    forEachSubExpr(cast<BinaryExpr>(E)->rhs(), Fn);
    return;
  case Expr::Kind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    forEachSubExpr(C->cond(), Fn);
    forEachSubExpr(C->trueExpr(), Fn);
    forEachSubExpr(C->falseExpr(), Fn);
    return;
  }
  case Expr::Kind::Call:
    for (const Expr *A : cast<CallExpr>(E)->args())
      forEachSubExpr(A, Fn);
    return;
  case Expr::Kind::Index:
    forEachSubExpr(cast<IndexExpr>(E)->base(), Fn);
    forEachSubExpr(cast<IndexExpr>(E)->index(), Fn);
    return;
  case Expr::Kind::Member:
    forEachSubExpr(cast<MemberExpr>(E)->base(), Fn);
    return;
  case Expr::Kind::Cast:
    forEachSubExpr(cast<CastExpr>(E)->sub(), Fn);
    return;
  case Expr::Kind::InitList:
    for (const Expr *El : cast<InitListExpr>(E)->elements())
      forEachSubExpr(El, Fn);
    return;
  default:
    return;
  }
}

const DeclRefExpr *varRef(const Expr *E) {
  const auto *DR = dyn_cast<DeclRefExpr>(E);
  return DR && DR->decl() ? DR : nullptr;
}

/// A small positive literal: a self-update by it cannot overflow the
/// promoted type of a narrow cell.
bool smallLiteral(const Expr *E, int64_t &Value) {
  const auto *L = dyn_cast<IntegerLiteral>(E);
  if (!L || L->value() > 0x7fff)
    return false;
  Value = static_cast<int64_t>(L->value());
  return true;
}

/// Every variable access of a loop, from ExprEvents, and the accesses that
/// fit a drift rule.
struct LoopUses : ExprEventHandler {
  std::map<const VarDecl *, std::vector<const DeclRefExpr *>> Sites;
  std::set<const DeclRefExpr *> Allowed;
  bool Calls = false, Derefs = false;

  void onRead(const DeclRefExpr *Site, bool) override {
    Sites[Site->decl()].push_back(Site);
  }
  void onWrite(const DeclRefExpr *Site) override {
    Sites[Site->decl()].push_back(Site);
  }
  void onCall(const FunctionDecl *, bool) override { Calls = true; }
};

} // namespace

/// The drift classification of DESIGN.md Section 18.5: a cell drifts when
/// every access to it inside the loop is a constant self-update whose value
/// is discarded, a bare printf argument, or one side of a relational
/// comparison whose other side reads no drift cell.
LoopPlan Interp::classifyLoop(const Stmt *Loop) {
  struct Update {
    const VarDecl *Var;
    int64_t Delta;
    const Type *LiteralTy;
  };
  struct Compare {
    const BinaryExpr *Site;
    const VarDecl *Var;
    bool CellOnLeft;
    const Expr *Other;
  };
  LoopUses Uses;
  std::vector<Update> Updates;
  std::vector<Compare> Compares;
  auto Visit = [&](const Expr *Full, bool ValueUsed) {
    walkExprEvents(Full, true, Uses);
    // The full expression (or a comma's left operand) is the only place a
    // self-update's value is discarded.
    std::vector<const Expr *> Discarded;
    if (!ValueUsed)
      Discarded.push_back(Full);
    forEachSubExpr(Full, [&](const Expr *E) {
      bool Unused =
          std::find(Discarded.begin(), Discarded.end(), E) != Discarded.end();
      if (const auto *U = dyn_cast<UnaryExpr>(E)) {
        if (U->op() == UnaryOp::Deref)
          Uses.Derefs = true;
        bool Inc = U->op() == UnaryOp::PreInc || U->op() == UnaryOp::PostInc;
        bool Dec = U->op() == UnaryOp::PreDec || U->op() == UnaryOp::PostDec;
        if (const DeclRefExpr *X = varRef(U->sub()); X && Unused && (Inc || Dec)) {
          Uses.Allowed.insert(X);
          Updates.push_back({X->decl(), Inc ? 1 : -1, nullptr});
        }
      } else if (isa<IndexExpr>(E) ||
                 (isa<MemberExpr>(E) && cast<MemberExpr>(E)->isArrow())) {
        Uses.Derefs = true;
      } else if (const auto *C = dyn_cast<CallExpr>(E)) {
        if (C->callee()->name() == "printf")
          for (size_t I = 1; I < C->args().size(); ++I)
            if (const DeclRefExpr *X = varRef(C->args()[I]))
              Uses.Allowed.insert(X);
      } else if (const auto *B = dyn_cast<BinaryExpr>(E)) {
        BinaryOp Op = B->op();
        const DeclRefExpr *X = varRef(B->lhs());
        int64_t C = 0;
        if (Op == BinaryOp::Comma) {
          Discarded.push_back(B->lhs());
          if (Unused)
            Discarded.push_back(B->rhs());
        } else if ((Op == BinaryOp::AddAssign || Op == BinaryOp::SubAssign) &&
                   X && Unused && smallLiteral(B->rhs(), C)) {
          Uses.Allowed.insert(X);
          Updates.push_back({X->decl(), Op == BinaryOp::AddAssign ? C : -C,
                             B->rhs()->type()});
        } else if (Op == BinaryOp::Assign && X && Unused) {
          // x = x + c, x = c + x, x = x - c.
          const auto *R = dyn_cast<BinaryExpr>(B->rhs());
          if (R && (R->op() == BinaryOp::Add || R->op() == BinaryOp::Sub)) {
            const DeclRefExpr *Y = varRef(R->lhs());
            const Expr *Lit = R->rhs();
            if (!(Y && Y->decl() == X->decl()) && R->op() == BinaryOp::Add) {
              Y = varRef(R->rhs());
              Lit = R->lhs();
            }
            if (Y && Y->decl() == X->decl() && smallLiteral(Lit, C)) {
              Uses.Allowed.insert(X);
              Uses.Allowed.insert(Y);
              Updates.push_back({X->decl(), R->op() == BinaryOp::Add ? C : -C,
                                 Lit->type()});
            }
          }
        } else if (Op == BinaryOp::LT || Op == BinaryOp::GT ||
                   Op == BinaryOp::LE || Op == BinaryOp::GE) {
          if (X) {
            Uses.Allowed.insert(X);
            Compares.push_back({B, X->decl(), true, B->rhs()});
          }
          if (const DeclRefExpr *Y = varRef(B->rhs())) {
            Uses.Allowed.insert(Y);
            Compares.push_back({B, Y->decl(), false, B->lhs()});
          }
        }
      }
    });
  };
  if (const auto *W = dyn_cast<WhileStmt>(Loop)) {
    Visit(W->cond(), true);
    forEachFullExpr(W->body(), Visit);
  } else if (const auto *D = dyn_cast<DoStmt>(Loop)) {
    forEachFullExpr(D->body(), Visit);
    Visit(D->cond(), true);
  } else if (const auto *F = dyn_cast<ForStmt>(Loop)) {
    if (F->cond())
      Visit(F->cond(), true);
    forEachFullExpr(F->body(), Visit);
    if (F->step())
      Visit(F->step(), false);
  }

  // Only a loop that dereferences or calls can reach a cell through a
  // pointer, and only a cell whose address is taken somewhere.
  if ((Uses.Calls || Uses.Derefs) && !AddressTakenKnown) {
    AddressTakenKnown = true;
    auto Scan = [&](const Expr *E, bool) {
      forEachSubExpr(E, [&](const Expr *Sub) {
        const auto *U = dyn_cast<UnaryExpr>(Sub);
        if (U && U->op() == UnaryOp::AddrOf)
          if (const DeclRefExpr *DR = varRef(U->sub()))
            AddressTaken.insert(DR->decl());
      });
    };
    for (const FunctionDecl *F : Ctx.functions())
      forEachFullExpr(F->body(), Scan);
    for (const VarDecl *G : Ctx.globals())
      if (G->init())
        Scan(G->init(), true);
  }

  // Candidates: integer scalars every access of which fits a rule, that
  // some self-update moves, and that no pointer or callee can reach.
  std::set<const VarDecl *> Drifting;
  for (const Update &U : Updates) {
    const VarDecl *V = U.Var;
    const std::vector<const DeclRefExpr *> &Sites = Uses.Sites[V];
    bool Ok = V->type()->isInteger() && !(V->isGlobal() && Uses.Calls) &&
              !(AddressTaken.count(V) && (Uses.Calls || Uses.Derefs)) &&
              std::all_of(Sites.begin(), Sites.end(),
                          [&](const DeclRefExpr *S) {
                            return Uses.Allowed.count(S) != 0;
                          });
    if (Ok)
      Drifting.insert(V);
  }
  // A comparison qualifies when its other side reads no candidate and the
  // comparison type holds every value of the cell.
  const std::set<const VarDecl *> Candidates = Drifting;
  for (const Compare &C : Compares) {
    bool ReadsCell = false;
    forEachSubExpr(C.Other, [&](const Expr *E) {
      if (const DeclRefExpr *X = varRef(E))
        ReadsCell = ReadsCell || Candidates.count(X->decl());
    });
    const Type *Cell = C.Var->type();
    const Type *Other = C.Other->type();
    const Type *Cmp = Cell->isInteger() && Other && Other->isInteger()
                          ? Ctx.types().usualArithmeticConversions(Cell, Other)
                          : nullptr;
    if (ReadsCell || !Cmp || (Cell->isSigned() && !Cmp->isSigned()))
      Drifting.erase(C.Var);
  }

  LoopPlan P;
  for (const VarDecl *V : Drifting) {
    DriftPlan::Cell Cell;
    Cell.Width = V->type()->intWidth();
    Cell.Signed = V->type()->isSigned();
    for (const Update &U : Updates) {
      if (U.Var != V)
        continue;
      Cell.Deltas.push_back(U.Delta);
      // A same-width signed computation overflows exactly when the cell
      // leaves its range; a narrow cell's promoted sum never overflows.
      const Type *Promoted = Ctx.types().promote(V->type());
      const Type *Ty =
          U.LiteralTy && U.LiteralTy->isInteger()
              ? Ctx.types().usualArithmeticConversions(Promoted, U.LiteralTy)
              : Promoted;
      Cell.UbOnWrap = Cell.UbOnWrap ||
                      (Ty->isSigned() && Ty->intWidth() == Cell.Width);
    }
    P.Vars.push_back(V);
    P.Plan.Cells.push_back(std::move(Cell));
  }
  for (const Compare &C : Compares) {
    auto It = std::find(P.Vars.begin(), P.Vars.end(), C.Var);
    if (It == P.Vars.end())
      continue;
    DriftPlan::Guard G;
    G.Site = C.Site;
    G.Cell = static_cast<unsigned>(It - P.Vars.begin());
    G.CellOnLeft = C.CellOnLeft;
    bool Less = C.Site->op() == BinaryOp::LT || C.Site->op() == BinaryOp::LE;
    bool Strict = C.Site->op() == BinaryOp::LT || C.Site->op() == BinaryOp::GT;
    // With the cell on the right, x > w reads w < x.
    if (!C.CellOnLeft)
      Less = !Less;
    G.Op = Less ? (Strict ? GuardOp::Less : GuardOp::LessEq)
                : (Strict ? GuardOp::Greater : GuardOp::GreaterEq);
    P.Plan.Guards.push_back(G);
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Memory
//===----------------------------------------------------------------------===//

uint32_t Interp::allocate(const char *Name, uint64_t Size, bool ZeroInit) {
  uint32_t Id = Mem.allocate(Size, true, ZeroInit);
  Mem.Blocks[Id].Name = Name;
  return Id;
}

bool Interp::checkAccess(const LValue &LV, uint64_t Size, const char *What) {
  if (LV.Block == 0 || LV.Block >= Mem.Blocks.size()) {
    ub(std::string("null pointer ") + What);
    return false;
  }
  MachineBlock &B = Mem.Blocks[LV.Block];
  if (!B.Alive) {
    ub(std::string("dangling pointer ") + What + " of '" + B.Name + "'");
    return false;
  }
  if (LV.Offset < 0 ||
      static_cast<uint64_t>(LV.Offset) + Size > B.Bytes.size()) {
    ub(std::string("out-of-bounds ") + What + " of '" + B.Name + "'");
    return false;
  }
  return true;
}

Value Interp::loadScalar(const LValue &LV) {
  assert(LV.Ty->isScalar() && "loadScalar on aggregate");
  uint64_t Size = LV.Ty->sizeInBytes();
  if (!checkAccess(LV, Size, "read"))
    return {};
  if (!Mem.initialized(LV.Block, LV.Offset, Size)) {
    ub(std::string("read of uninitialized value from '") +
       Mem.Blocks[LV.Block].Name + "'");
    return {};
  }
  if (LV.Ty->isPointer()) {
    Value V;
    V.Ty = LV.Ty;
    Mem.loadPointer(LV.Block, LV.Offset, V.Block, V.Offset);
    return V;
  }
  return makeInt(LV.Ty, Mem.loadInteger(LV.Block, LV.Offset, Size));
}

void Interp::storeScalar(const LValue &LV, const Value &V) {
  assert(LV.Ty->isScalar() && "storeScalar on aggregate");
  uint64_t Size = LV.Ty->sizeInBytes();
  if (!checkAccess(LV, Size, "write"))
    return;
  if (V.Uninit) {
    // Storing an indeterminate value leaves the bytes uninitialized.
    Mem.touch(LV.Block);
    Mem.setInit(LV.Block, LV.Offset, Size, false);
    return;
  }
  if (LV.Ty->isPointer())
    Mem.storePointer(LV.Block, LV.Offset, V.Block, V.Offset);
  else
    Mem.storeInteger(LV.Block, LV.Offset, Size, V.Bits);
  if (!Watches.empty())
    noteStore(LV.Block);
}

void Interp::copyObject(const LValue &Dst, const LValue &Src, uint64_t Size) {
  if (!checkAccess(Src, Size, "read") || !checkAccess(Dst, Size, "write"))
    return;
  MachineBlock &SB = Mem.Blocks[Src.Block];
  MachineBlock &DB = Mem.Blocks[Dst.Block];
  Mem.touch(Dst.Block);
  DB.HeldPointer |= SB.HeldPointer;
  DB.HeldInteger |= SB.HeldInteger;
  for (uint64_t I = 0; I < Size; ++I) {
    DB.Bytes[Dst.Offset + I] = SB.Bytes[Src.Offset + I];
    DB.Init[Dst.Offset + I] = SB.Init[Src.Offset + I];
  }
}

//===----------------------------------------------------------------------===//
// Values and conversions
//===----------------------------------------------------------------------===//

Value Interp::makeInt(const Type *Ty, uint64_t Raw) const {
  Value V;
  V.Ty = Ty;
  V.Bits = normalizeIntValue(Ty, Raw);
  return V;
}

Value Interp::convert(const Value &V, const Type *To) {
  if (V.Uninit || V.Ty == To)
    return V.Uninit ? V : [&] {
      Value C = V;
      C.Ty = To;
      if (To->isInteger())
        C.Bits = normalizeIntValue(To, V.Bits);
      return C;
    }();
  Value C;
  C.Ty = To;
  if (To->isInteger()) {
    uint64_t Raw =
        V.isPointer() ? Mem.pointerToInt(V.Block, V.Offset) : V.Bits;
    C.Bits = normalizeIntValue(To, Raw);
    return C;
  }
  if (To->isPointer()) {
    if (V.isPointer()) {
      C.Block = V.Block;
      C.Offset = V.Offset;
      return C;
    }
    // int -> ptr: zero becomes null, anything else a poisoned pointer.
    C.Block = V.Bits == 0 ? 0 : 0;
    C.Offset = static_cast<int64_t>(V.Bits);
    return C;
  }
  return C;
}

bool Interp::requireInit(const Value &V, const char *What) {
  if (!V.Uninit)
    return true;
  ub(std::string("use of indeterminate value in ") + What);
  return false;
}

bool Interp::truthy(const Value &V) {
  if (!requireInit(V, "condition"))
    return false;
  if (V.isPointer())
    return V.Block != 0 || V.Offset != 0;
  return V.Bits != 0;
}

//===----------------------------------------------------------------------===//
// Arithmetic with UB detection
//===----------------------------------------------------------------------===//

Value Interp::applyArith(BinaryOp Op, const Type *Ty, const Value &L,
                         const Value &R, SourceLocation Loc) {
  (void)Loc;
  if (!requireInit(L, "arithmetic") || !requireInit(R, "arithmetic"))
    return {};
  unsigned Width = Ty->intWidth();
  bool Signed = Ty->isSigned();
  uint64_t UL = normalizeIntValue(Ty, L.Bits);
  uint64_t UR = normalizeIntValue(Ty, R.Bits);
  int64_t SL = static_cast<int64_t>(UL);
  int64_t SR = static_cast<int64_t>(UR);

  auto CheckSignedRange = [&](__int128 Wide, const char *OpName) -> bool {
    __int128 Min = -(static_cast<__int128>(1) << (Width - 1));
    __int128 Max = (static_cast<__int128>(1) << (Width - 1)) - 1;
    if (Wide < Min || Wide > Max) {
      ub(std::string("signed integer overflow in '") + OpName + "'");
      return false;
    }
    return true;
  };

  uint64_t Raw = 0;
  switch (Op) {
  case BinaryOp::Add:
    if (Signed) {
      __int128 Wide = static_cast<__int128>(SL) + SR;
      if (!CheckSignedRange(Wide, "+"))
        return {};
      Raw = static_cast<uint64_t>(static_cast<int64_t>(Wide));
    } else {
      Raw = UL + UR;
    }
    break;
  case BinaryOp::Sub:
    if (Signed) {
      __int128 Wide = static_cast<__int128>(SL) - SR;
      if (!CheckSignedRange(Wide, "-"))
        return {};
      Raw = static_cast<uint64_t>(static_cast<int64_t>(Wide));
    } else {
      Raw = UL - UR;
    }
    break;
  case BinaryOp::Mul:
    if (Signed) {
      __int128 Wide = static_cast<__int128>(SL) * SR;
      if (!CheckSignedRange(Wide, "*"))
        return {};
      Raw = static_cast<uint64_t>(static_cast<int64_t>(Wide));
    } else {
      Raw = UL * UR;
    }
    break;
  case BinaryOp::Div:
  case BinaryOp::Rem: {
    bool IsDiv = Op == BinaryOp::Div;
    if ((Signed && SR == 0) || (!Signed && UR == 0)) {
      ub(IsDiv ? "division by zero" : "remainder by zero");
      return {};
    }
    if (Signed) {
      int64_t MinVal = Width == 64
                           ? std::numeric_limits<int64_t>::min()
                           : -(static_cast<int64_t>(1) << (Width - 1));
      if (SL == MinVal && SR == -1) {
        ub("signed overflow in division (MIN / -1)");
        return {};
      }
      Raw = static_cast<uint64_t>(IsDiv ? SL / SR : SL % SR);
    } else {
      Raw = IsDiv ? UL / UR : UL % UR;
    }
    break;
  }
  case BinaryOp::Shl:
  case BinaryOp::Shr: {
    // The count is the RHS as written; the type is the promoted LHS type.
    int64_t Count = R.Ty->isInteger() && R.Ty->isSigned()
                        ? static_cast<int64_t>(R.Bits)
                        : static_cast<int64_t>(R.Bits);
    if (Count < 0 || Count >= static_cast<int64_t>(Width)) {
      ub("shift amount out of range");
      return {};
    }
    if (Op == BinaryOp::Shl) {
      if (Signed && SL < 0) {
        ub("left shift of negative value");
        return {};
      }
      if (Signed) {
        __int128 Wide = static_cast<__int128>(SL) << Count;
        __int128 Max = (static_cast<__int128>(1) << (Width - 1)) - 1;
        if (Wide > Max) {
          ub("signed overflow in left shift");
          return {};
        }
        Raw = static_cast<uint64_t>(static_cast<int64_t>(Wide));
      } else {
        Raw = UL << Count;
      }
    } else {
      Raw = Signed ? static_cast<uint64_t>(SL >> Count) : UL >> Count;
    }
    break;
  }
  case BinaryOp::BitAnd:
    Raw = UL & UR;
    break;
  case BinaryOp::BitXor:
    Raw = UL ^ UR;
    break;
  case BinaryOp::BitOr:
    Raw = UL | UR;
    break;
  default:
    assert(false && "not an arithmetic operator");
  }
  return makeInt(Ty, Raw);
}

Value Interp::pointerAdd(const Value &Ptr, int64_t Delta,
                         SourceLocation Loc) {
  (void)Loc;
  if (Ptr.Block == 0) {
    if (Delta == 0)
      return Ptr; // NULL + 0 stays NULL.
    ub("arithmetic on null pointer");
    return {};
  }
  uint64_t ElemSize = Ptr.Ty->elementType()->sizeInBytes();
  Value R = Ptr;
  R.Offset = Ptr.Offset + Delta * static_cast<int64_t>(ElemSize);
  const MachineBlock &B = Mem.Blocks[Ptr.Block];
  if (!B.Alive) {
    // The pointer's value became indeterminate with its object (C11
    // 6.2.4p2).
    ub(std::string("dangling pointer arithmetic on '") + B.Name + "'");
    return {};
  }
  if (R.Offset < 0 ||
      static_cast<uint64_t>(R.Offset) > B.Bytes.size()) {
    ub(std::string("pointer arithmetic escapes object '") + B.Name + "'");
    return {};
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

bool Interp::evalLValue(const Expr *E, LValue &Out) {
  if (Failed || !step())
    return false;
  switch (E->kind()) {
  case Expr::Kind::DeclRef: {
    const auto *Ref = cast<DeclRefExpr>(E);
    uint32_t Block = blockOf(Ref->decl());
    if (Block == 0) {
      fail(ExecStatus::Unsupported, "unbound variable '" + Ref->name() + "'");
      return false;
    }
    Out = LValue{Block, 0, Ref->decl()->type()};
    return true;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    assert(U->op() == UnaryOp::Deref && "not an lvalue unary");
    Value P = evalExpr(U->sub());
    if (Failed || !requireInit(P, "dereference"))
      return false;
    Out = LValue{P.Block, P.Offset, E->type()};
    return true;
  }
  case Expr::Kind::Index: {
    const auto *Ix = cast<IndexExpr>(E);
    Value Base = evalExpr(Ix->base());
    Value Index = evalExpr(Ix->index());
    if (Failed || !requireInit(Base, "subscript") ||
        !requireInit(Index, "subscript"))
      return false;
    Value P = pointerAdd(Base, static_cast<int64_t>(Index.Bits), Ix->loc());
    if (Failed)
      return false;
    Out = LValue{P.Block, P.Offset, E->type()};
    return true;
  }
  case Expr::Kind::Member: {
    const auto *M = cast<MemberExpr>(E);
    const Type *StructTy;
    LValue BaseLV;
    if (M->isArrow()) {
      Value P = evalExpr(M->base());
      if (Failed || !requireInit(P, "member access"))
        return false;
      StructTy = P.Ty->elementType();
      BaseLV = LValue{P.Block, P.Offset, StructTy};
    } else {
      if (!evalLValue(M->base(), BaseLV))
        return false;
      StructTy = BaseLV.Ty;
    }
    const Type::Field &F = StructTy->fields()[M->fieldIndex()];
    Out = LValue{BaseLV.Block, BaseLV.Offset + static_cast<int64_t>(F.Offset),
                 F.Ty};
    return true;
  }
  case Expr::Kind::Conditional: {
    // Needed for struct-valued ?: as in the paper's Figure 3 program.
    const auto *C = cast<ConditionalExpr>(E);
    Value Cond = evalExpr(C->cond());
    if (Failed)
      return false;
    return evalLValue(truthy(Cond) ? C->trueExpr() : C->falseExpr(), Out);
  }
  default:
    fail(ExecStatus::Unsupported, "expression is not an lvalue");
    return false;
  }
}

Value Interp::evalExpr(const Expr *E) {
  if (Failed || !step())
    return {};
  switch (E->kind()) {
  case Expr::Kind::IntegerLiteral:
    return makeInt(E->type(), cast<IntegerLiteral>(E)->value());
  case Expr::Kind::StringLiteral:
    fail(ExecStatus::Unsupported, "string literal outside printf");
    return {};
  case Expr::Kind::DeclRef: {
    const auto *Ref = cast<DeclRefExpr>(E);
    LValue LV;
    if (!evalLValue(E, LV))
      return {};
    // Arrays decay to a pointer to their first element.
    if (Ref->decl()->type()->isArray()) {
      Value V;
      V.Ty = Ctx.types().pointerTo(Ref->decl()->type()->elementType());
      V.Block = LV.Block;
      V.Offset = LV.Offset;
      return V;
    }
    if (!Ref->decl()->type()->isScalar()) {
      fail(ExecStatus::Unsupported, "aggregate rvalue use");
      return {};
    }
    return loadScalar(LV);
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    switch (U->op()) {
    case UnaryOp::Plus:
      return convert(evalExpr(U->sub()), E->type());
    case UnaryOp::Neg: {
      Value V = convert(evalExpr(U->sub()), E->type());
      if (Failed || !requireInit(V, "negation"))
        return {};
      Value Zero = makeInt(E->type(), 0);
      return applyArith(BinaryOp::Sub, E->type(), Zero, V, U->loc());
    }
    case UnaryOp::BitNot: {
      Value V = convert(evalExpr(U->sub()), E->type());
      if (Failed || !requireInit(V, "bitwise not"))
        return {};
      return makeInt(E->type(), ~V.Bits);
    }
    case UnaryOp::LogicalNot: {
      Value V = evalExpr(U->sub());
      if (Failed)
        return {};
      return makeInt(E->type(), truthy(V) ? 0 : 1);
    }
    case UnaryOp::Deref: {
      LValue LV;
      if (!evalLValue(E, LV))
        return {};
      if (LV.Ty->isArray()) {
        Value V;
        V.Ty = Ctx.types().pointerTo(LV.Ty->elementType());
        V.Block = LV.Block;
        V.Offset = LV.Offset;
        return V;
      }
      if (!LV.Ty->isScalar()) {
        fail(ExecStatus::Unsupported, "aggregate rvalue deref");
        return {};
      }
      return loadScalar(LV);
    }
    case UnaryOp::AddrOf: {
      LValue LV;
      if (!evalLValue(U->sub(), LV))
        return {};
      Value V;
      V.Ty = E->type();
      V.Block = LV.Block;
      V.Offset = LV.Offset;
      return V;
    }
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec: {
      LValue LV;
      if (!evalLValue(U->sub(), LV))
        return {};
      Value Old = loadScalar(LV);
      if (Failed)
        return {};
      bool IsInc =
          U->op() == UnaryOp::PreInc || U->op() == UnaryOp::PostInc;
      Value New;
      if (Old.isPointer()) {
        New = pointerAdd(Old, IsInc ? 1 : -1, U->loc());
      } else {
        const Type *Ty = Ctx.types().promote(Old.Ty);
        Value One = makeInt(Ty, 1);
        New = applyArith(IsInc ? BinaryOp::Add : BinaryOp::Sub, Ty,
                         convert(Old, Ty), One, U->loc());
        if (!Failed)
          New = convert(New, Old.Ty);
      }
      if (Failed)
        return {};
      storeScalar(LV, New);
      bool IsPost =
          U->op() == UnaryOp::PostInc || U->op() == UnaryOp::PostDec;
      return IsPost ? Old : New;
    }
    }
    return {};
  }
  case Expr::Kind::Binary:
    return evalBinary(cast<BinaryExpr>(E));
  case Expr::Kind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    Value Cond = evalExpr(C->cond());
    if (Failed)
      return {};
    const Expr *Arm = truthy(Cond) ? C->trueExpr() : C->falseExpr();
    if (Failed)
      return {};
    Value V = evalExpr(Arm);
    if (Failed)
      return {};
    return E->type()->isScalar() ? convert(V, E->type()) : V;
  }
  case Expr::Kind::Call:
    return evalCall(cast<CallExpr>(E));
  case Expr::Kind::Index: {
    LValue LV;
    if (!evalLValue(E, LV))
      return {};
    if (LV.Ty->isArray()) {
      Value V;
      V.Ty = Ctx.types().pointerTo(LV.Ty->elementType());
      V.Block = LV.Block;
      V.Offset = LV.Offset;
      return V;
    }
    return loadScalar(LV);
  }
  case Expr::Kind::Member: {
    LValue LV;
    if (!evalLValue(E, LV))
      return {};
    if (LV.Ty->isArray()) {
      Value V;
      V.Ty = Ctx.types().pointerTo(LV.Ty->elementType());
      V.Block = LV.Block;
      V.Offset = LV.Offset;
      return V;
    }
    if (!LV.Ty->isScalar()) {
      fail(ExecStatus::Unsupported, "aggregate rvalue member");
      return {};
    }
    return loadScalar(LV);
  }
  case Expr::Kind::Cast: {
    Value V = evalExpr(cast<CastExpr>(E)->sub());
    if (Failed)
      return {};
    if (V.Uninit)
      return V;
    return convert(V, E->type());
  }
  case Expr::Kind::SizeOf: {
    const auto *S = cast<SizeOfExpr>(E);
    const Type *Ty =
        S->typeOperand() ? S->typeOperand() : S->exprOperand()->type();
    uint64_t Size = Ty->isPointer() ? 8 : Ty->sizeInBytes();
    if (Ty->isArray() && Ty->elementType()->isPointer())
      Size = Ty->arraySize() * 8;
    return makeInt(E->type(), Size);
  }
  case Expr::Kind::InitList:
    fail(ExecStatus::Unsupported, "initializer list in expression");
    return {};
  }
  return {};
}

Value Interp::evalBinary(const BinaryExpr *B) {
  BinaryOp Op = B->op();

  if (Op == BinaryOp::Comma) {
    evalExpr(B->lhs());
    if (Failed)
      return {};
    return evalExpr(B->rhs());
  }

  if (Op == BinaryOp::LogicalAnd || Op == BinaryOp::LogicalOr) {
    Value L = evalExpr(B->lhs());
    if (Failed)
      return {};
    bool LTrue = truthy(L);
    if (Failed)
      return {};
    if (Op == BinaryOp::LogicalAnd && !LTrue)
      return makeInt(B->type(), 0);
    if (Op == BinaryOp::LogicalOr && LTrue)
      return makeInt(B->type(), 1);
    Value R = evalExpr(B->rhs());
    if (Failed)
      return {};
    return makeInt(B->type(), truthy(R) ? 1 : 0);
  }

  if (isAssignmentOp(Op)) {
    // Struct assignment copies the whole object.
    if (Op == BinaryOp::Assign && B->lhs()->type()->isStruct()) {
      LValue Dst, Src;
      if (!evalLValue(B->lhs(), Dst) || !evalLValue(B->rhs(), Src))
        return {};
      copyObject(Dst, Src, Dst.Ty->sizeInBytes());
      Value V;
      V.Ty = B->type();
      V.Uninit = true; // Struct rvalue result is never used as a scalar.
      return V;
    }
    LValue LV;
    if (!evalLValue(B->lhs(), LV))
      return {};
    Value RHS = evalExpr(B->rhs());
    if (Failed)
      return {};
    Value NewVal;
    if (Op == BinaryOp::Assign) {
      if (RHS.Uninit)
        NewVal = RHS;
      else
        NewVal = convert(RHS, LV.Ty);
    } else {
      Value Old = loadScalar(LV);
      if (Failed)
        return {};
      BinaryOp Base = compoundBaseOp(Op);
      if (Old.isPointer()) {
        if (!requireInit(RHS, "pointer arithmetic"))
          return {};
        int64_t Delta = static_cast<int64_t>(RHS.Bits);
        NewVal = pointerAdd(Old, Base == BinaryOp::Sub ? -Delta : Delta,
                            B->loc());
      } else {
        // A shift computes in the promoted left type and keeps its count
        // as written.
        bool Shift = Base == BinaryOp::Shl || Base == BinaryOp::Shr;
        const Type *Ty = Shift ? Ctx.types().promote(Old.Ty)
                               : Ctx.types().usualArithmeticConversions(
                                     Old.Ty, RHS.Ty ? RHS.Ty : Old.Ty);
        NewVal = applyArith(Base, Ty, convert(Old, Ty),
                            Shift ? RHS : convert(RHS, Ty), B->loc());
        if (!Failed)
          NewVal = convert(NewVal, LV.Ty);
      }
      if (Failed)
        return {};
    }
    storeScalar(LV, NewVal);
    if (Failed)
      return {};
    return NewVal.Uninit ? NewVal : convert(NewVal, LV.Ty);
  }

  Value L = evalExpr(B->lhs());
  if (Failed)
    return {};
  Value R = evalExpr(B->rhs());
  if (Failed)
    return {};

  // Pointer arithmetic and comparison.
  bool LPtr = L.isPointer(), RPtr = R.isPointer();
  if (Op == BinaryOp::Add && (LPtr || RPtr)) {
    if (!requireInit(L, "pointer arithmetic") ||
        !requireInit(R, "pointer arithmetic"))
      return {};
    const Value &P = LPtr ? L : R;
    const Value &N = LPtr ? R : L;
    return pointerAdd(P, static_cast<int64_t>(N.Bits), B->loc());
  }
  if (Op == BinaryOp::Sub && LPtr) {
    if (!requireInit(L, "pointer arithmetic") ||
        !requireInit(R, "pointer arithmetic"))
      return {};
    if (RPtr) {
      if (L.Block != R.Block) {
        ub("subtraction of pointers into different objects");
        return {};
      }
      uint64_t ElemSize = L.Ty->elementType()->sizeInBytes();
      int64_t Diff = (L.Offset - R.Offset) / static_cast<int64_t>(ElemSize);
      return makeInt(B->type(), static_cast<uint64_t>(Diff));
    }
    return pointerAdd(L, -static_cast<int64_t>(R.Bits), B->loc());
  }
  if (isComparisonOp(Op) && (LPtr || RPtr)) {
    if (!requireInit(L, "comparison") || !requireInit(R, "comparison"))
      return {};
    Value PL = LPtr ? L : convert(L, R.Ty);
    Value PR = RPtr ? R : convert(R, L.Ty);
    if (Op == BinaryOp::EQ || Op == BinaryOp::NE) {
      bool Eq = PL.Block == PR.Block && PL.Offset == PR.Offset;
      return makeInt(B->type(), (Op == BinaryOp::EQ) == Eq ? 1 : 0);
    }
    if (PL.Block != PR.Block) {
      ub("relational comparison of pointers into different objects");
      return {};
    }
    bool Res;
    switch (Op) {
    case BinaryOp::LT:
      Res = PL.Offset < PR.Offset;
      break;
    case BinaryOp::GT:
      Res = PL.Offset > PR.Offset;
      break;
    case BinaryOp::LE:
      Res = PL.Offset <= PR.Offset;
      break;
    default:
      Res = PL.Offset >= PR.Offset;
      break;
    }
    return makeInt(B->type(), Res ? 1 : 0);
  }

  if (isComparisonOp(Op)) {
    if (!requireInit(L, "comparison") || !requireInit(R, "comparison"))
      return {};
    const Type *Ty = Ctx.types().usualArithmeticConversions(L.Ty, R.Ty);
    uint64_t UL = normalizeIntValue(Ty, L.Bits);
    uint64_t UR = normalizeIntValue(Ty, R.Bits);
    int64_t SL = static_cast<int64_t>(UL);
    int64_t SR = static_cast<int64_t>(UR);
    bool Signed = Ty->isSigned();
    bool Res;
    switch (Op) {
    case BinaryOp::LT:
      Res = Signed ? SL < SR : UL < UR;
      break;
    case BinaryOp::GT:
      Res = Signed ? SL > SR : UL > UR;
      break;
    case BinaryOp::LE:
      Res = Signed ? SL <= SR : UL <= UR;
      break;
    case BinaryOp::GE:
      Res = Signed ? SL >= SR : UL >= UR;
      break;
    case BinaryOp::EQ:
      Res = UL == UR;
      break;
    default:
      Res = UL != UR;
      break;
    }
    if (!Watches.empty())
      for (DriftWatch *W : Watches)
        if (W->recording())
          W->guarded(B, Signed ? DriftWatch::Wide(SL) : DriftWatch::Wide(UL),
                     Signed ? DriftWatch::Wide(SR) : DriftWatch::Wide(UR),
                     Res);
    return makeInt(B->type(), Res ? 1 : 0);
  }

  // Plain integer arithmetic; a shift keeps its count as written.
  const Type *Ty = B->type();
  bool Shift = Op == BinaryOp::Shl || Op == BinaryOp::Shr;
  return applyArith(Op, Ty, convert(L, Ty), Shift ? R : convert(R, Ty),
                    B->loc());
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

void Interp::doPrintf(const CallExpr *C) {
  // An argument may call a function that prints, so each printf keeps its
  // arguments above the ones of the printf that called it.
  std::vector<uint64_t> &Stack = T->PrintfArgs;
  size_t Base = Stack.size();
  for (size_t I = 1; I < C->args().size(); ++I) {
    Value V = evalExpr(C->args()[I]);
    if (Failed || !requireInit(V, "printf argument"))
      return;
    Stack.push_back(V.Bits);
  }
  PrintfFailure F =
      formatPrintf(cast<StringLiteral>(C->args()[0])->value(),
                   Stack.data() + Base, Stack.size() - Base, Result.Output);
  Stack.resize(Base);
  // %i is reported under its synonym %d.
  if (F.What == PrintfFailure::MissingArgument)
    ub(std::string("printf: missing argument for %") +
       (F.Conv == 'i' ? 'd' : F.Conv));
  else if (F.What == PrintfFailure::UnknownConversion)
    fail(ExecStatus::Unsupported, std::string("printf conversion %") + F.Conv);
}

Value Interp::evalCall(const CallExpr *C) {
  if (C->callee()->name() == "printf") {
    doPrintf(C);
    return makeInt(Ctx.types().int32Type(), 0);
  }
  if (C->callee()->name() == "spe_input")
    return makeInt(Ctx.types().int32Type(),
                   static_cast<uint64_t>(
                       static_cast<uint32_t>(Stdin.next())));
  const FunctionDecl *F = C->callee()->functionDecl();
  if (!F || !F->isDefinition()) {
    fail(ExecStatus::Unsupported,
         "call to undefined function '" + C->callee()->name() + "'");
    return {};
  }
  size_t ArgBase = T->Args.size();
  for (const Expr *A : C->args()) {
    Value V = evalExpr(A);
    if (Failed)
      return {};
    T->Args.push_back(V);
  }
  Value Ret = callFunction(F, ArgBase);
  T->Args.resize(ArgBase);
  return Ret;
}

Value Interp::callFunction(const FunctionDecl *F, size_t ArgBase) {
  if (++CallDepth > Opts.MaxCallDepth) {
    timeout(TimeoutReason::CallDepth, "call depth exceeded");
    --CallDepth;
    return {};
  }
  std::vector<uint32_t> &Slots = T->Slots;
  size_t CallerBase = FrameBase;
  FrameBase = Slots.size();
  Slots.resize(FrameBase + FrameWidth, 0);
  for (size_t I = 0; I < F->params().size(); ++I) {
    const VarDecl *P = F->params()[I];
    uint32_t Block =
        allocate(P->name().c_str(), P->type()->sizeInBytes(), false);
    slotOf(P) = Block;
    Value V = T->Args[ArgBase + I];
    if (!V.Uninit)
      V = convert(V, P->type());
    storeScalar(LValue{Block, 0, P->type()}, V);
    if (Failed)
      break;
  }
  Signal Sig;
  if (!Failed)
    Sig = runBody(F->body());
  for (size_t I = FrameBase; I < Slots.size(); ++I)
    if (Slots[I])
      Mem.release(Slots[I]);
  Slots.resize(FrameBase);
  FrameBase = CallerBase;
  --CallDepth;
  if (Failed)
    return {};
  if (Sig.K == Signal::Return && !F->returnType()->isVoid()) {
    if (Sig.Ret.Uninit)
      return Sig.Ret;
    return convert(Sig.Ret, F->returnType());
  }
  // Fell off the end (or void return): an indeterminate value, which is UB
  // only if the caller uses it.
  Value V;
  V.Ty = F->returnType()->isVoid() ? Ctx.types().int32Type()
                                   : F->returnType();
  V.Uninit = true;
  return V;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void Interp::execVarDecl(const VarDecl *V) {
  uint64_t Size = V->type()->sizeInBytes();
  if (Size == 0) {
    fail(ExecStatus::Unsupported,
         "variable of incomplete type '" + V->name() + "'");
    return;
  }
  // Reaching a declaration again in the same activation of its block
  // reuses its object (C11 6.2.4p6): the initializer runs again, or the
  // value becomes indeterminate.
  uint32_t &Slot = slotOf(V);
  bool Fresh = Slot == 0;
  if (Fresh)
    Slot = allocate(V->name().c_str(), Size, false);
  uint32_t Block = Slot;
  if (V->init()) {
    initializeObject(LValue{Block, 0, V->type()}, V->init());
  } else if (!Fresh) {
    Mem.setInit(Block, 0, Size, false);
    Mem.touch(Block);
    if (!Watches.empty())
      noteStore(Block);
  }
}

void Interp::declareSkipped(const Stmt *S) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Decl:
    for (const VarDecl *V : cast<DeclStmt>(S)->decls()) {
      uint64_t Size = V->type()->sizeInBytes();
      if (Size && !slotOf(V))
        slotOf(V) = allocate(V->name().c_str(), Size, false);
    }
    return;
  case Stmt::Kind::If:
    declareSkipped(cast<IfStmt>(S)->thenStmt());
    declareSkipped(cast<IfStmt>(S)->elseStmt());
    return;
  case Stmt::Kind::While:
    declareSkipped(cast<WhileStmt>(S)->body());
    return;
  case Stmt::Kind::Do:
    declareSkipped(cast<DoStmt>(S)->body());
    return;
  case Stmt::Kind::Label:
    declareSkipped(cast<LabelStmt>(S)->sub());
    return;
  default:
    // A compound or a for is a block of its own, which the jump does not
    // enter.
    return;
  }
}

void Interp::leaveBlock(const Stmt *Block, const Signal &Sig) {
  const std::vector<const VarDecl *> &Owned = scopeOf(Block).Owned;
  if (Owned.empty() || (Sig.K == Signal::Goto && Sig.Target &&
                        onPath(Block, Sig.Target)))
    return;
  for (const VarDecl *V : Owned) {
    uint32_t &Slot = slotOf(V);
    if (!Slot)
      continue; // Never reached in this activation.
    Mem.release(Slot);
    Slot = 0;
  }
}

void Interp::indexScopes(const Stmt *S, const Stmt *Owner, ScopeWalk &W) {
  if (!S)
    return;
  assert(S->stmtId() >= 0 && "statement not analyzed by Sema");
  W.Path.push_back(S);
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->body())
      indexScopes(Child, S, W);
    break;
  case Stmt::Kind::Decl:
    // A function body's locals end with its frame (callFunction).
    if (Owner != W.Body)
      for (const VarDecl *V : cast<DeclStmt>(S)->decls())
        scopeOf(Owner).Owned.push_back(V);
    break;
  case Stmt::Kind::If:
    indexScopes(cast<IfStmt>(S)->thenStmt(), Owner, W);
    indexScopes(cast<IfStmt>(S)->elseStmt(), Owner, W);
    break;
  case Stmt::Kind::While:
    indexScopes(cast<WhileStmt>(S)->body(), Owner, W);
    break;
  case Stmt::Kind::Do:
    indexScopes(cast<DoStmt>(S)->body(), Owner, W);
    break;
  case Stmt::Kind::For:
    // Sema scopes the init, and a body that is no compound, to the for.
    indexScopes(cast<ForStmt>(S)->init(), S, W);
    indexScopes(cast<ForStmt>(S)->body(), S, W);
    break;
  case Stmt::Kind::Label: {
    const auto *L = cast<LabelStmt>(S);
    W.Labels.push_back(L);
    scopeOf(L).Enclosing.assign(W.Path.begin(), W.Path.end() - 1);
    indexScopes(L->sub(), Owner, W);
    break;
  }
  case Stmt::Kind::Goto:
    W.Gotos.push_back(cast<GotoStmt>(S));
    break;
  default:
    break;
  }
  W.Path.pop_back();
}

void Interp::initializeObject(const LValue &LV, const Expr *Init) {
  if (const auto *List = dyn_cast<InitListExpr>(Init)) {
    // Zero-fill first: C zero-initializes the remainder of a braced object.
    uint64_t Size = LV.Ty->sizeInBytes();
    if (!checkAccess(LV, Size, "write"))
      return;
    Mem.touch(LV.Block);
    std::memset(Mem.Blocks[LV.Block].Bytes.data() + LV.Offset, 0, Size);
    Mem.setInit(LV.Block, LV.Offset, Size, true);
    if (LV.Ty->isArray()) {
      const Type *Elem = LV.Ty->elementType();
      for (size_t I = 0; I < List->elements().size(); ++I)
        initializeObject(LValue{LV.Block,
                                LV.Offset + static_cast<int64_t>(
                                                I * Elem->sizeInBytes()),
                                Elem},
                         List->elements()[I]);
      return;
    }
    if (LV.Ty->isStruct()) {
      const auto &Fields = LV.Ty->fields();
      for (size_t I = 0; I < List->elements().size() && I < Fields.size();
           ++I)
        initializeObject(LValue{LV.Block,
                                LV.Offset +
                                    static_cast<int64_t>(Fields[I].Offset),
                                Fields[I].Ty},
                         List->elements()[I]);
      return;
    }
    // Scalar braced initializer: { expr }.
    if (!List->elements().empty())
      initializeObject(LV, List->elements()[0]);
    return;
  }
  Value V = evalExpr(Init);
  if (Failed)
    return;
  if (!LV.Ty->isScalar()) {
    fail(ExecStatus::Unsupported, "aggregate initializer expression");
    return;
  }
  if (!V.Uninit)
    V = convert(V, LV.Ty);
  storeScalar(LV, V);
}

Signal Interp::execStmt(const Stmt *S) {
  Signal None;
  if (Failed || !S || !step())
    return None;
  Result.ExecutedStmts[S->stmtId()] = true;
  switch (S->kind()) {
  case Stmt::Kind::Compound: {
    Signal Sig;
    for (const Stmt *Child : cast<CompoundStmt>(S)->body()) {
      Sig = execStmt(Child);
      if (Failed || Sig.K != Signal::None)
        break;
    }
    leaveBlock(S, Sig);
    return Sig;
  }
  case Stmt::Kind::Decl:
    for (const VarDecl *V : cast<DeclStmt>(S)->decls()) {
      execVarDecl(V);
      if (Failed)
        return None;
    }
    return None;
  case Stmt::Kind::Expr:
    if (const Expr *E = cast<ExprStmt>(S)->expr())
      evalExpr(E);
    return None;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    Value Cond = evalExpr(I->cond());
    if (Failed)
      return None;
    bool Taken = truthy(Cond);
    if (Failed)
      return None;
    if (Taken)
      return execStmt(I->thenStmt());
    if (I->elseStmt())
      return execStmt(I->elseStmt());
    return None;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    LoopDetector<SavedFrame> Detector;
    for (;;) {
      if (!step() || loopHead(Detector, S))
        return None;
      Value Cond = evalExpr(W->cond());
      if (Failed || !truthy(Cond) || Failed)
        return None;
      Signal Sig = execStmt(W->body());
      if (Failed)
        return None;
      if (Sig.K == Signal::Break)
        return None;
      if (Sig.K == Signal::Return || Sig.K == Signal::Goto)
        return Sig;
    }
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    LoopDetector<SavedFrame> Detector;
    for (;;) {
      if (!step() || loopHead(Detector, S))
        return None;
      Signal Sig = execStmt(D->body());
      if (Failed)
        return None;
      if (Sig.K == Signal::Break)
        return None;
      if (Sig.K == Signal::Return || Sig.K == Signal::Goto)
        return Sig;
      Value Cond = evalExpr(D->cond());
      if (Failed || !truthy(Cond) || Failed)
        return None;
    }
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    if (F->init())
      execStmt(F->init());
    Signal Sig = Failed ? None : iterateFor(F, false);
    leaveBlock(S, Sig);
    return Sig;
  }
  case Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    Signal Sig;
    Sig.K = Signal::Return;
    if (R->value()) {
      Sig.Ret = evalExpr(R->value());
      if (Failed)
        return None;
    } else {
      Sig.Ret.Uninit = true;
      Sig.Ret.Ty = Ctx.types().int32Type();
    }
    return Sig;
  }
  case Stmt::Kind::Break: {
    Signal Sig;
    Sig.K = Signal::Break;
    return Sig;
  }
  case Stmt::Kind::Continue: {
    Signal Sig;
    Sig.K = Signal::Continue;
    return Sig;
  }
  case Stmt::Kind::Goto: {
    Signal Sig;
    Sig.K = Signal::Goto;
    Sig.Target = scopeOf(S).Target;
    return Sig;
  }
  case Stmt::Kind::Label:
    return execStmt(cast<LabelStmt>(S)->sub());
  }
  return None;
}

Signal Interp::iterateFor(const ForStmt *F, bool FromStep) {
  Signal None;
  LoopDetector<SavedFrame> Detector;
  for (;; FromStep = true) {
    if (FromStep && F->step()) {
      evalExpr(F->step());
      if (Failed)
        return None;
    }
    if (!step() || loopHead(Detector, F))
      return None;
    if (F->cond()) {
      Value Cond = evalExpr(F->cond());
      if (Failed || !truthy(Cond) || Failed)
        return None;
    }
    Signal Sig = execStmt(F->body());
    if (Failed)
      return None;
    if (Sig.K == Signal::Break)
      return None;
    if (Sig.K == Signal::Return || Sig.K == Signal::Goto)
      return Sig;
  }
}

/// Walks the statements enclosing \p Target down to it without executing
/// anything, creating the objects the jump skips in each block it enters;
/// execution resumes normally from the label onward.
Signal Interp::execSeek(const Stmt *S, const LabelStmt *Target) {
  Signal None;
  if (Failed)
    return None;
  switch (S->kind()) {
  case Stmt::Kind::Compound: {
    const std::vector<Stmt *> &Body = cast<CompoundStmt>(S)->body();
    size_t I = 0;
    for (; !onPath(Body[I], Target); ++I) {
      assert(I + 1 < Body.size() && "the label is not in this block");
      declareSkipped(Body[I]);
    }
    Signal Sig = execSeek(Body[I], Target);
    for (++I; I < Body.size() && !Failed && Sig.K == Signal::None; ++I)
      Sig = execStmt(Body[I]);
    leaveBlock(S, Sig);
    return Sig;
  }
  case Stmt::Kind::Label: {
    const auto *L = cast<LabelStmt>(S);
    return L == Target ? execStmt(L->sub()) : execSeek(L->sub(), Target);
  }
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    return execSeek(onPath(I->thenStmt(), Target) ? I->thenStmt()
                                                  : I->elseStmt(),
                    Target);
  }
  case Stmt::Kind::While: {
    Signal Sig = execSeek(cast<WhileStmt>(S)->body(), Target);
    if (Failed || Sig.K == Signal::Break)
      return None;
    if (Sig.K == Signal::Return || Sig.K == Signal::Goto)
      return Sig;
    // Entered the loop mid-body; continue iterating normally.
    return execStmt(S);
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    Signal Sig = execSeek(D->body(), Target);
    if (Failed || Sig.K == Signal::Break)
      return None;
    if (Sig.K == Signal::Return || Sig.K == Signal::Goto)
      return Sig;
    Value Cond = evalExpr(D->cond());
    if (Failed || !truthy(Cond) || Failed)
      return None;
    return execStmt(S);
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    // The jump skips the init: its objects exist, indeterminate.
    declareSkipped(F->init());
    Signal Sig = execSeek(F->body(), Target);
    if (Sig.K == Signal::Break)
      Sig = None;
    else if (!Failed && Sig.K != Signal::Return && Sig.K != Signal::Goto)
      Sig = iterateFor(F, true); // No re-init.
    leaveBlock(S, Sig);
    return Sig;
  }
  default:
    return None;
  }
}

Signal Interp::runBody(const CompoundStmt *Body) {
  Signal Sig = execStmt(Body);
  // A taken goto is a loop head of its label (DESIGN.md Section 18.1).
  std::map<const LabelStmt *, LoopDetector<SavedFrame>> Gotos;
  while (!Failed && Sig.K == Signal::Goto) {
    if (!Sig.Target) {
      fail(ExecStatus::Unsupported, "goto to unknown label");
      break;
    }
    if (loopHead(Gotos[Sig.Target], nullptr))
      break;
    Sig = execSeek(Body, Sig.Target);
  }
  return Sig;
}

ExecResult Interp::run() {
  Result.ExecutedStmts.assign(Ctx.numStmts(), false);
  const FunctionDecl *Main = Ctx.findFunction("main");
  if (!Main || !Main->isDefinition()) {
    Result.Status = ExecStatus::Unsupported;
    Result.Message = "no main function";
    return Result;
  }
  if (!Main->params().empty()) {
    Result.Status = ExecStatus::Unsupported;
    Result.Message = "main with parameters";
    return Result;
  }
  // The globals' frame is the bottom of the slot stack, and the only frame
  // initializers see. Allocate all globals zero-initialized, then run
  // initializers in order.
  T->Slots.assign(FrameWidth, 0);
  T->Args.clear();
  T->PrintfArgs.clear();
  for (Decl *D : Ctx.TopLevel) {
    auto *G = dyn_cast<VarDecl>(D);
    if (!G)
      continue;
    uint64_t Size = G->type()->sizeInBytes();
    if (Size == 0) {
      Result.Status = ExecStatus::Unsupported;
      Result.Message = "global of incomplete type '" + G->name() + "'";
      return Result;
    }
    slotOf(G) = allocate(G->name().c_str(), Size, true);
  }
  for (Decl *D : Ctx.TopLevel) {
    auto *G = dyn_cast<VarDecl>(D);
    if (G && G->init() && !Failed)
      initializeObject(LValue{slotOf(G), 0, G->type()}, G->init());
  }
  T->Scopes.resize(Ctx.numStmts());
  for (StmtScope &Scope : T->Scopes) {
    Scope.Owned.clear();
    Scope.Target = nullptr;
    Scope.Enclosing.clear();
  }
  for (Decl *D : Ctx.TopLevel) {
    auto *F = dyn_cast<FunctionDecl>(D);
    if (!F || !F->isDefinition())
      continue;
    ScopeWalk &W = T->Walk;
    W.Body = F->body();
    W.Path.clear();
    W.Labels.clear();
    W.Gotos.clear();
    indexScopes(W.Body, W.Body, W);
    // Sema gives each label of a function its own name.
    for (const GotoStmt *G : W.Gotos)
      for (const LabelStmt *L : W.Labels)
        if (L->name() == G->label())
          scopeOf(G).Target = L;
  }
  if (!Failed) {
    Value Exit = callFunction(Main, 0);
    if (!Failed) {
      Result.Status = ExecStatus::Ok;
      // Falling off the end of main returns 0 (C99 5.1.2.2.3).
      Result.ExitCode =
          Exit.Uninit ? 0 : static_cast<int64_t>(static_cast<int32_t>(
                                convert(Exit, Ctx.types().int32Type()).Bits));
    }
  }
  return Result;
}

} // namespace

ExecResult spe::interpret(ASTContext &Ctx, InterpOptions Opts) {
  Interp I(Ctx, Opts);
  ExecResult R = I.run();
  // A Timeout carries no output, so nothing downstream (cache, store,
  // observations) depends on when non-termination was proven.
  if (R.Status == ExecStatus::Timeout)
    R.Output.clear();
  return R;
}

//===- tests/sema_test.cpp - semantic analysis unit tests ----------------===//

#include "lang/Parser.h"
#include "sema/Sema.h"
#include "testing/Corpus.h"

#include "gtest/gtest.h"

using namespace spe;

namespace {

struct Analyzed {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  std::unique_ptr<Sema> Analysis;
  bool Ok = false;
};

std::unique_ptr<Analyzed> analyze(const std::string &Source) {
  auto R = std::make_unique<Analyzed>();
  if (!Parser::parse(Source, R->Ctx, R->Diags))
    return R;
  R->Analysis = std::make_unique<Sema>(R->Ctx, R->Diags);
  R->Ok = R->Analysis->run();
  return R;
}

} // namespace

TEST(SemaTest, ResolvesUsesToDeclarations) {
  auto R = analyze("int a;\nvoid f(void) { a = a + 1; }");
  ASSERT_TRUE(R->Ok) << R->Diags.toString();
  ASSERT_EQ(R->Analysis->variableUses().size(), 2u);
  for (DeclRefExpr *Use : R->Analysis->variableUses()) {
    ASSERT_NE(Use->decl(), nullptr);
    EXPECT_EQ(Use->decl()->name(), "a");
  }
}

TEST(SemaTest, UndeclaredIdentifierIsError) {
  auto R = analyze("void f(void) { x = 1; }");
  EXPECT_FALSE(R->Ok);
}

TEST(SemaTest, ShadowingResolvesToInnermost) {
  auto R = analyze("int a;\n"
                   "void f(void) {\n"
                   "  int a;\n"
                   "  { int a; a = 1; }\n"
                   "  a = 2;\n"
                   "}");
  ASSERT_TRUE(R->Ok) << R->Diags.toString();
  const auto &Uses = R->Analysis->variableUses();
  ASSERT_EQ(Uses.size(), 2u);
  // Inner use binds to the innermost 'a'; outer use to the function's 'a'.
  EXPECT_NE(Uses[0]->decl(), Uses[1]->decl());
  EXPECT_FALSE(Uses[0]->decl()->isGlobal());
  EXPECT_FALSE(Uses[1]->decl()->isGlobal());
  EXPECT_NE(Uses[0]->decl()->scopeId(), Uses[1]->decl()->scopeId());
}

TEST(SemaTest, RedeclarationInSameScopeIsError) {
  auto R = analyze("void f(void) { int a; int a; }");
  EXPECT_FALSE(R->Ok);
}

TEST(SemaTest, ScopeTreeShape) {
  auto R = analyze("int g;\n"
                   "void f(int p) {\n"
                   "  int x;\n"
                   "  if (p) { int y; y = x; }\n"
                   "}");
  ASSERT_TRUE(R->Ok) << R->Diags.toString();
  const auto &Scopes = R->Analysis->scopes();
  // file, params, body, if-block.
  ASSERT_EQ(Scopes.size(), 4u);
  EXPECT_EQ(Scopes[0].Parent, -1);
  EXPECT_EQ(Scopes[1].Parent, 0);
  EXPECT_EQ(Scopes[2].Parent, 1);
  EXPECT_EQ(Scopes[3].Parent, 2);
  EXPECT_EQ(Scopes[0].Vars.size(), 1u);
  EXPECT_EQ(Scopes[1].Vars.size(), 1u);
  EXPECT_EQ(Scopes[2].Vars.size(), 1u);
  EXPECT_EQ(Scopes[3].Vars.size(), 1u);
}

TEST(SemaTest, UsualArithmeticConversions) {
  auto R = analyze("char c; short s; int i; unsigned u; long l;\n"
                   "void f(void) { c + s; i + u; i + l; u + l; c << 1; }");
  ASSERT_TRUE(R->Ok) << R->Diags.toString();
  auto &Body = R->Ctx.findFunction("f")->body()->body();
  auto TypeOf = [&](int I) {
    return cast<ExprStmt>(Body[I])->expr()->type()->toString();
  };
  EXPECT_EQ(TypeOf(0), "int");           // char + short -> int
  EXPECT_EQ(TypeOf(1), "unsigned int");  // int + unsigned -> unsigned
  EXPECT_EQ(TypeOf(2), "long");          // int + long -> long
  EXPECT_EQ(TypeOf(3), "long");          // unsigned int + long -> long
  EXPECT_EQ(TypeOf(4), "int");           // char << 1 -> int
}

TEST(SemaTest, PointerTypeRules) {
  auto R = analyze("int a; int *p; int arr[4]; long d;\n"
                   "void f(void) {\n"
                   "  p = &a;\n"
                   "  a = *p;\n"
                   "  p = arr;\n"
                   "  a = arr[2];\n"
                   "  d = p - p;\n"
                   "  p = p + 1;\n"
                   "}");
  ASSERT_TRUE(R->Ok) << R->Diags.toString();
}

TEST(SemaTest, DerefNonPointerIsError) {
  auto R = analyze("int a; void f(void) { *a = 1; }");
  EXPECT_FALSE(R->Ok);
}

TEST(SemaTest, AssignToRValueIsError) {
  auto R = analyze("int a; void f(void) { (a + 1) = 2; }");
  EXPECT_FALSE(R->Ok);
}

TEST(SemaTest, AddressOfRValueIsError) {
  auto R = analyze("int a; int *p; void f(void) { p = &(a + 1); }");
  EXPECT_FALSE(R->Ok);
}

TEST(SemaTest, StructMemberResolution) {
  auto R = analyze("struct s { int x; int y; };\n"
                   "struct s v; struct s *p;\n"
                   "void f(void) { v.y = 1; p->x = v.y; }");
  ASSERT_TRUE(R->Ok) << R->Diags.toString();
  auto &Body = R->Ctx.findFunction("f")->body()->body();
  auto *First = cast<BinaryExpr>(cast<ExprStmt>(Body[0])->expr());
  EXPECT_EQ(cast<MemberExpr>(First->lhs())->fieldIndex(), 1);
}

TEST(SemaTest, UnknownFieldIsError) {
  auto R = analyze("struct s { int x; };\nstruct s v;\n"
                   "void f(void) { v.zz = 1; }");
  EXPECT_FALSE(R->Ok);
}

TEST(SemaTest, CallResolutionAndArity) {
  auto R = analyze("int g(int a) { return a; }\n"
                   "void f(void) { g(1); }");
  ASSERT_TRUE(R->Ok) << R->Diags.toString();
  auto BadArity = analyze("int g(int a) { return a; }\n"
                          "void f(void) { g(1, 2); }");
  EXPECT_FALSE(BadArity->Ok);
  auto Unknown = analyze("void f(void) { h(); }");
  EXPECT_FALSE(Unknown->Ok);
}

TEST(SemaTest, PrintfIsBuiltin) {
  auto R = analyze("int a;\nvoid f(void) { printf(\"%d\\n\", a); }");
  ASSERT_TRUE(R->Ok) << R->Diags.toString();
  auto Bad = analyze("int a;\nvoid f(void) { printf(a); }");
  EXPECT_FALSE(Bad->Ok);
}

TEST(SemaTest, GotoToUndefinedLabelIsError) {
  auto R = analyze("void f(void) { goto nowhere; }");
  EXPECT_FALSE(R->Ok);
  auto Dup = analyze("void f(void) { l: ; l: ; goto l; }");
  EXPECT_FALSE(Dup->Ok);
  auto Good = analyze("void f(void) { l: goto l; }");
  EXPECT_TRUE(Good->Ok) << Good->Diags.toString();
}

TEST(SemaTest, SequenceNumbersOrderDeclsAndUses) {
  auto R = analyze("void f(void) { int a = 1; int b = a; b = b + a; }");
  ASSERT_TRUE(R->Ok) << R->Diags.toString();
  // Uses in order: a (b's initializer), b (lhs), b (rhs), a (rhs).
  const auto &Uses = R->Analysis->variableUses();
  ASSERT_EQ(Uses.size(), 4u);
  const VarDecl *A = Uses[0]->decl();
  const VarDecl *B = Uses[1]->decl();
  EXPECT_EQ(A->name(), "a");
  EXPECT_EQ(B->name(), "b");
  // a declared before b, b before the use of a in its initializer.
  EXPECT_LT(R->Analysis->declSeqOf(A), R->Analysis->declSeqOf(B));
  EXPECT_LT(R->Analysis->declSeqOf(B), R->Analysis->useSeqOf(Uses[0]));
  EXPECT_LT(R->Analysis->useSeqOf(Uses[0]), R->Analysis->useSeqOf(Uses[1]));
}

TEST(SemaTest, ForInitDeclScopedToLoop) {
  auto R = analyze("void f(void) { for (int i = 0; i < 3; ++i) ; i = 1; }");
  // 'i' must not leak out of the for statement.
  EXPECT_FALSE(R->Ok);
}

TEST(SemaTest, StmtIdsAreDenseAndUnique) {
  auto R = analyze("int a;\n"
                   "void f(void) { a = 1; if (a) a = 2; while (a) a = 3; }");
  ASSERT_TRUE(R->Ok) << R->Diags.toString();
  EXPECT_GT(R->Analysis->numStmts(), 5);
}

TEST(SemaTest, ResolveAtAppliesAnalysisRuleAtARecordedSite) {
  auto R = analyze("int g = 1;\n"
                   "int f(void) {\n"
                   "  int a = g;\n"
                   "  int g = 2;\n"
                   "  { int b = a; a = b; }\n"
                   "  return a + g;\n"
                   "}");
  ASSERT_TRUE(R->Ok) << R->Diags.toString();
  // Uses in order: g (a's initializer), a (b's initializer), a and b (the
  // inner assignment), a and g (the return).
  const auto &Uses = R->Analysis->variableUses();
  ASSERT_EQ(Uses.size(), 6u);
  const VarDecl *GlobalG = Uses[0]->decl();
  const VarDecl *LocalG = Uses[5]->decl();
  const VarDecl *A = Uses[1]->decl();
  const VarDecl *B = Uses[3]->decl();
  ASSERT_TRUE(GlobalG->isGlobal());
  ASSERT_FALSE(LocalG->isGlobal());
  // Before the local g is declared, g names the global; after, the local.
  EXPECT_EQ(R->Analysis->resolveAt(Uses[0], "g"), GlobalG);
  EXPECT_EQ(R->Analysis->resolveAt(Uses[1], "g"), LocalG);
  EXPECT_EQ(R->Analysis->resolveAt(Uses[5], "g"), LocalG);
  // A variable is visible in its own initializer, as analysis has it.
  EXPECT_EQ(R->Analysis->resolveAt(Uses[0], "a"), A);
  // b lives in the inner block, from its own initializer on: visible at
  // the block's uses, not outside it.
  EXPECT_EQ(R->Analysis->resolveAt(Uses[1], "b"), B);
  EXPECT_EQ(R->Analysis->resolveAt(Uses[2], "b"), B);
  EXPECT_EQ(R->Analysis->resolveAt(Uses[4], "b"), nullptr);
  EXPECT_EQ(R->Analysis->resolveAt(Uses[0], "nope"), nullptr);
}

TEST(SemaTest, ResolveAtReproducesEveryUseOfBothCorpora) {
  // resolveAt(site, site's own name) is the site's resolution, for every
  // use of the default and the loop corpus at both their bases.
  CorpusOptions Default;
  Default.UninitLocalProb = 0.6;
  CorpusOptions Loops = Default;
  Loops.BoundedLoopProb = 0.6;
  Loops.RichHelperProb = 0.6;
  std::vector<std::string> Seeds = embeddedSeeds();
  for (uint64_t Base : {2000u, 3000u}) {
    std::vector<std::string> Gen = generateCorpus(Base, 40, Default);
    Seeds.insert(Seeds.end(), Gen.begin(), Gen.end());
  }
  for (uint64_t Base : {8000u, 8500u}) {
    std::vector<std::string> Gen = generateCorpus(Base, 12, Loops);
    Seeds.insert(Seeds.end(), Gen.begin(), Gen.end());
  }
  size_t Checked = 0, Wrong = 0;
  for (const std::string &Seed : Seeds) {
    auto R = analyze(Seed);
    if (!R->Ok)
      continue;
    for (const DeclRefExpr *Use : R->Analysis->variableUses()) {
      ++Checked;
      if (R->Analysis->resolveAt(Use, Use->name()) != Use->decl() &&
          Wrong++ < 5)
        ADD_FAILURE() << "use of '" << Use->name() << "' resolves elsewhere";
    }
  }
  EXPECT_EQ(Wrong, 0u);
  EXPECT_GT(Checked, 1000u);
}

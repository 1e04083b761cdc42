//===- tests/skeleton_renderer_test.cpp - variant rendering tests --------===//

#include "lang/Parser.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/VariantRenderer.h"

#include "gtest/gtest.h"

#include <set>

using namespace spe;

namespace {

struct Pipeline {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  std::unique_ptr<Sema> Analysis;
  std::vector<SkeletonUnit> Units;
};

std::unique_ptr<Pipeline> extract(const std::string &Source,
                                  ExtractorOptions Opts = {}) {
  auto P = std::make_unique<Pipeline>();
  EXPECT_TRUE(Parser::parse(Source, P->Ctx, P->Diags)) << P->Diags.toString();
  P->Analysis = std::make_unique<Sema>(P->Ctx, P->Diags);
  EXPECT_TRUE(P->Analysis->run()) << P->Diags.toString();
  SkeletonExtractor Ex(P->Ctx, *P->Analysis, Opts);
  P->Units = Ex.extract();
  return P;
}

/// Every rendered variant must itself parse and pass sema.
bool isValidProgram(const std::string &Source) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  if (!Parser::parse(Source, Ctx, Diags))
    return false;
  Sema Analysis(Ctx, Diags);
  return Analysis.run();
}

} // namespace

TEST(VariantRendererTest, IdentityAssignmentReproducesOriginal) {
  auto P = extract("int a, b;\nvoid f(void) { a = a - b; if (b) b = 1; }\n");
  VariantRenderer Renderer(P->Ctx, P->Units);
  std::string Original = Renderer.renderOriginal();
  std::string Identity = Renderer.render(Renderer.identityAssignment());
  EXPECT_EQ(Original, Identity);
}

TEST(VariantRendererTest, SubstitutionChangesOnlyUseSites) {
  auto P = extract("int a, b;\nvoid f(void) { b = b - a; }\n");
  const SkeletonUnit &U = P->Units[0];
  ASSERT_EQ(U.Skeleton.numHoles(), 3u);
  // Fill all three holes with 'a'.
  VarId A = 0;
  EXPECT_EQ(U.Skeleton.var(A).Name, "a");
  VariantRenderer Renderer(P->Ctx, P->Units);
  std::string Variant = Renderer.render({Assignment{A, A, A}});
  EXPECT_NE(Variant.find("a = a - a;"), std::string::npos) << Variant;
  // The declaration is untouched.
  EXPECT_NE(Variant.find("int a"), std::string::npos);
  EXPECT_NE(Variant.find("int b"), std::string::npos);
}

TEST(VariantRendererTest, AllEnumeratedVariantsAreValidPrograms) {
  auto P = extract("int main(void) {\n"
                   "  int a = 1, b = 0;\n"
                   "  if (a) {\n"
                   "    int c = 3, d = 5;\n"
                   "    b = c + d;\n"
                   "  }\n"
                   "  return b - a;\n"
                   "}\n");
  VariantRenderer Renderer(P->Ctx, P->Units);
  ProgramEnumerator Enum(P->Units, SpeMode::Exact);
  std::set<std::string> Sources;
  uint64_t Produced = Enum.enumerate([&](const ProgramAssignment &PA) {
    std::string Source = Renderer.render(PA);
    EXPECT_TRUE(isValidProgram(Source)) << Source;
    EXPECT_TRUE(Sources.insert(Source).second) << "duplicate variant";
    return true;
  });
  EXPECT_EQ(Produced, Sources.size());
  EXPECT_GT(Produced, 10u);
  // The identity variant is among them (enumeration is exhaustive and the
  // original realizes its own skeleton).
  EXPECT_TRUE(Sources.count(Renderer.renderOriginal()));
}

TEST(VariantRendererTest, PaperExampleFigure1Variants) {
  // Figure 1 of the paper: P2 replaces b-a with b-b, P3 additionally flips
  // the if and body holes. Both must be among the enumerated variants.
  auto P = extract("int a, b;\n"
                   "void f(void) {\n"
                   "  b = b - a;\n"
                   "  if (a)\n"
                   "    a = a - b;\n"
                   "}\n");
  VariantRenderer Renderer(P->Ctx, P->Units);
  ProgramEnumerator Enum(P->Units, SpeMode::Exact);
  std::set<std::string> Sources;
  Enum.enumerate([&](const ProgramAssignment &PA) {
    Sources.insert(Renderer.render(PA));
    return true;
  });
  bool FoundP2Shape = false, FoundP3Shape = false;
  for (const std::string &S : Sources) {
    if (S.find("a = b - b;") != std::string::npos &&
        S.find("if (a)") != std::string::npos)
      FoundP2Shape = true;
    if (S.find("a = b - b;") != std::string::npos &&
        S.find("if (b)") != std::string::npos &&
        S.find("a = b - b;") == S.rfind("a = b - b;"))
      FoundP3Shape = FoundP3Shape || S.find("if (b)") != std::string::npos;
  }
  EXPECT_TRUE(FoundP2Shape);
  EXPECT_TRUE(FoundP3Shape);
}

TEST(VariantRendererTest, MultiUnitProgramsRenderConsistently) {
  auto P = extract("int g;\n"
                   "void f(void) { g = 1; }\n"
                   "int main(void) { int x; x = g; return x; }\n");
  VariantRenderer Renderer(P->Ctx, P->Units);
  ProgramEnumerator Enum(P->Units, SpeMode::Exact);
  uint64_t Produced = Enum.enumerate([&](const ProgramAssignment &PA) {
    EXPECT_TRUE(isValidProgram(Renderer.render(PA)));
    return true;
  });
  BigInt Expected = Enum.countSpe();
  EXPECT_EQ(BigInt(Produced).toString(), Expected.toString());
}

TEST(VariantRendererTest, RoundTripPrintParsePrintIsStable) {
  const char *Source = "struct s { int x; };\n"
                       "struct s v;\n"
                       "int arr[3] = {1, 2, 3};\n"
                       "int f(int n) {\n"
                       "  int acc = 0;\n"
                       "  for (int i = 0; i < n; ++i)\n"
                       "    acc += arr[i] * (n - 1) / 2 % 7;\n"
                       "  while (acc > 100 && n)\n"
                       "    acc = acc - (v.x ? 1 : 2);\n"
                       "  return -acc;\n"
                       "}\n";
  auto P1 = extract(Source);
  std::string Printed1 = VariantRenderer(P1->Ctx, P1->Units).renderOriginal();
  auto P2 = extract(Printed1);
  std::string Printed2 = VariantRenderer(P2->Ctx, P2->Units).renderOriginal();
  EXPECT_EQ(Printed1, Printed2);
}

TEST(VariantRendererTest, RenderIntoReusesBuffersAcrossVariants) {
  // The batch path must agree with the one-shot path for every variant, and
  // repeated renders into the same buffer must not leak previous content.
  auto P = extract("int a, b;\nvoid f(void) { a = a - b; b = a + b; }\n");
  VariantRenderer Batch(P->Ctx, P->Units);
  VariantRenderer Fresh(P->Ctx, P->Units);
  ProgramEnumerator Enum(P->Units, SpeMode::Exact);
  std::string Buffer;
  Enum.enumerate([&](const ProgramAssignment &PA) {
    Batch.renderInto(PA, Buffer);
    EXPECT_EQ(Buffer, Fresh.render(PA));
    return true;
  });
  // After a long variant, a short one must not retain stale bytes.
  ProgramAssignment Identity = Batch.identityAssignment();
  std::string Once = Batch.render(Identity);
  Batch.renderInto(Identity, Buffer);
  EXPECT_EQ(Buffer, Once);
}

TEST(VariantRendererTest, SplicesNamesInsideSeparatedSigns) {
  // The printer separates `- -x` by inserting a space after the operand is
  // printed; the splice offsets of names inside the operand must move with
  // it. Names of different lengths catch an offset or a length that is off.
  auto P = extract("int x, yy;\nint f(void) { return - -x + - -yy; }\n");
  const SkeletonUnit &U = P->Units[0];
  ASSERT_EQ(U.Skeleton.numHoles(), 2u);
  VarId X = 0, YY = 1;
  ASSERT_EQ(U.Skeleton.var(X).Name, "x");
  ASSERT_EQ(U.Skeleton.var(YY).Name, "yy");
  VariantRenderer Renderer(P->Ctx, P->Units);
  std::string Original = Renderer.renderOriginal();
  ASSERT_NE(Original.find("return - -x + - -yy;"), std::string::npos)
      << Original;
  std::string Swapped = Renderer.render({Assignment{YY, X}});
  EXPECT_NE(Swapped.find("return - -yy + - -x;"), std::string::npos)
      << Swapped;
  EXPECT_EQ(Swapped.size(), Original.size());
  EXPECT_EQ(Renderer.render(Renderer.identityAssignment()), Original);
}

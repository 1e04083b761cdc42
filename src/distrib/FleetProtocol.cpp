//===- distrib/FleetProtocol.cpp - coordinator/worker wire format --------===//

#include "distrib/FleetProtocol.h"

#include "persist/LineText.h"

#include <sstream>

using namespace spe;
using namespace spe::linetext;

namespace {

const char SpecMagic[] = "SPE-FLEET-SPEC v1";
const char FragmentMagic[] = "SPE-FLEET-FRAGMENT v1";

} // namespace

std::string FleetSpec::serialize() const {
  std::ostringstream Out;
  Out << SpecMagic << '\n';
  Out << "opts " << static_cast<int>(Mode) << ' '
      << static_cast<int>(Extract.Gran) << ' '
      << static_cast<int>(Extract.Model) << ' ' << VariantThreshold << ' '
      << VariantBudget << ' ' << Threads << ' ' << BatchSize << ' '
      << (InjectBugs ? 1 : 0) << ' ' << (PruneInvalid ? 1 : 0) << ' '
      << (Triage ? 1 : 0) << ' ' << OracleMaxSteps << '\n';
  Out << "configs " << Configs.size() << '\n';
  for (const CompilerConfig &C : Configs) {
    Out << "config " << static_cast<int>(C.P) << ' ' << C.Version << ' '
        << C.OptLevel << ' ' << (C.Mode64 ? 1 : 0) << ' '
        << C.ExecSweep.size() << '\n';
    for (const std::string &In : C.ExecSweep)
      Out << "sweep " << escapeToken(In) << '\n';
  }
  return Out.str();
}

bool FleetSpec::parse(const std::string &Text, FleetSpec &Out,
                      std::string &Err) {
  Out = FleetSpec();
  Reader R(Text);
  if (R.Lines.empty() || R.Lines[0].size() != 2 ||
      R.Lines[0][0] + " " + R.Lines[0][1] != SpecMagic) {
    Err = "bad fleet spec magic";
    return false;
  }
  R.At = 1;

  const std::vector<std::string> *L = R.line("opts", 12);
  uint64_t Mode = 0, Gran = 0, Model = 0, Threads = 0;
  bool Ok = L && R.u64((*L)[1], Mode) && R.u64((*L)[2], Gran) &&
            R.u64((*L)[3], Model) && R.u64((*L)[4], Out.VariantThreshold) &&
            R.u64((*L)[5], Out.VariantBudget) && R.u64((*L)[6], Threads) &&
            R.u64((*L)[7], Out.BatchSize) &&
            R.boolTok((*L)[8], Out.InjectBugs) &&
            R.boolTok((*L)[9], Out.PruneInvalid) &&
            R.boolTok((*L)[10], Out.Triage) &&
            R.u64((*L)[11], Out.OracleMaxSteps);
  if (Ok && (Mode > 1 || Gran > 1 || Model > 2))
    Ok = R.fail("enum value out of range");
  if (Ok) {
    Out.Mode = static_cast<SpeMode>(Mode);
    Out.Extract.Gran = static_cast<Granularity>(Gran);
    Out.Extract.Model = static_cast<ScopeModel>(Model);
    Out.Threads = static_cast<unsigned>(Threads);
  }

  uint64_t NConfigs = 0;
  Ok = Ok && (L = R.line("configs", 2)) && R.u64((*L)[1], NConfigs);
  for (uint64_t I = 0; Ok && I < NConfigs; ++I) {
    const auto *CL = R.line("config", 6);
    uint64_t P = 0, Ver = 0, Opt = 0, NSweep = 0;
    CompilerConfig C;
    Ok = CL && R.u64((*CL)[1], P) && R.u64((*CL)[2], Ver) &&
         R.u64((*CL)[3], Opt) && R.boolTok((*CL)[4], C.Mode64) &&
         R.u64((*CL)[5], NSweep);
    if (Ok && P > 1)
      Ok = R.fail("persona out of range");
    for (uint64_t S = 0; Ok && S < NSweep; ++S) {
      const auto *SL = R.line("sweep", 2);
      std::string In;
      Ok = SL && R.strTok((*SL)[1], In);
      if (Ok)
        C.ExecSweep.push_back(std::move(In));
    }
    if (Ok) {
      C.P = static_cast<Persona>(P);
      C.Version = static_cast<unsigned>(Ver);
      C.OptLevel = static_cast<unsigned>(Opt);
      Out.Configs.push_back(std::move(C));
    }
  }
  if (Ok && R.At != R.Lines.size())
    Ok = R.fail("trailing data after fleet spec");
  if (!Ok) {
    Err = R.Err.empty() ? "malformed fleet spec" : R.Err;
    return false;
  }
  return true;
}

uint64_t FleetSpec::fingerprint() const {
  std::string Doc = serialize();
  Fnv Sum;
  Sum.bytes(Doc.data(), Doc.size());
  return Sum.H;
}

HarnessOptions FleetSpec::toHarnessOptions() const {
  HarnessOptions O;
  O.Mode = Mode;
  O.Extract = Extract;
  O.VariantThreshold = VariantThreshold;
  O.VariantBudget = VariantBudget;
  O.Threads = Threads;
  O.BatchSize = BatchSize;
  O.Configs = Configs;
  O.InjectBugs = InjectBugs;
  O.PruneInvalid = PruneInvalid;
  O.Triage = Triage;
  O.OracleMaxSteps = OracleMaxSteps;
  return O;
}

std::string spe::serializeFragment(const CampaignResult &R) {
  std::ostringstream Out;
  Out << FragmentMagic << '\n';
  linetext::writeResult(Out, R);
  return withChecksumTrailer(Out.str());
}

bool spe::parseFragment(const std::string &Text, CampaignResult &Out,
                        std::string &Err) {
  Out = CampaignResult();
  std::string Body;
  if (!stripChecksumTrailer(Text, Body, Err))
    return false;
  Reader R(Body);
  if (R.Lines.empty() || R.Lines[0].size() != 2 ||
      R.Lines[0][0] + " " + R.Lines[0][1] != FragmentMagic) {
    Err = "bad fragment magic";
    return false;
  }
  R.At = 1;
  if (!linetext::readResult(R, Out) || R.At != R.Lines.size()) {
    Err = R.Err.empty() ? "malformed fragment" : R.Err;
    return false;
  }
  return true;
}

//===- distrib/FleetProtocol.h - coordinator/worker wire format ----------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The line-framed protocol between a CampaignCoordinator and its worker
/// processes (DESIGN.md Section 16). Every payload -- the campaign spec, a
/// seed's source, a per-lease CampaignResult fragment -- is serialized with
/// the checkpoint line-text helpers (persist/LineText.h) and escaped into a
/// single whitespace-free token, so one protocol message is always exactly
/// one line and splits on spaces:
///
///   coordinator -> worker        worker -> coordinator
///   ------------------------     -------------------------------
///   spec <escaped-spec-doc>      ready <spec-fingerprint>
///   seed <idx> <escaped-src>
///   lease <id> <seed> <b> <e>    done <id> <escaped-fragment>
///   exit                         error <escaped-message>   (fatal)
///
/// The spec a fleet shares is a CampaignSpec (testing/Harness.h): the
/// plain-value subset of HarnessOptions, enforced by its type. Pointer
/// options (Backend, Cache, Cov, Telemetry) cannot reach the wire -- fleet
/// campaigns run the in-process backend with no shared cache, which is what
/// keeps per-lease oracle counters independent of how leases land on
/// workers. The spec fingerprint (FNV-1a over the serialized form) is
/// echoed by the worker's `ready` and embedded in the lease journal, so a
/// mismatched worker binary or a journal from a different campaign is
/// rejected instead of silently skewing results.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_DISTRIB_FLEETPROTOCOL_H
#define SPE_DISTRIB_FLEETPROTOCOL_H

#include "testing/Harness.h"

#include <string>

namespace spe {

/// Line-text document of \p Spec (magic, options line, config/sweep lines),
/// written field by field in walkCampaignSpec order.
std::string serializeSpec(const CampaignSpec &Spec);

/// Inverse of serializeSpec; rejects a damaged document, including any
/// enum or flag token out of its type's range.
bool parseSpec(const std::string &Text, CampaignSpec &Out, std::string &Err);

/// FNV-1a over serializeSpec(): one number both sides agree on.
uint64_t fingerprintSpec(const CampaignSpec &Spec);

/// Serializes the checkpointed portion of \p R (counters + finding maps,
/// persist/LineText layout) with a checksum trailer.
std::string serializeFragment(const CampaignResult &R);

/// Inverse of serializeFragment; checksum-verified before parsing.
bool parseFragment(const std::string &Text, CampaignResult &Out,
                   std::string &Err);

} // namespace spe

#endif // SPE_DISTRIB_FLEETPROTOCOL_H

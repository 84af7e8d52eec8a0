// The "fuzz-v1" fleet body (ISSUE 9): distributed fuzz campaigns.
//
// Workers run the expensive half of a fuzz run — generate the system,
// execute every oracle family — and ship the raw outcome back as the
// RESULT payload. The coordinator keeps all campaign state: journaling,
// shrinking, signature dedupe, and repro writing happen in one place,
// exactly as in the serial path, so a resumed fleet campaign and a
// serial campaign count findings the same way. Results fold through a
// reorder buffer in run-index order, so the FINDING lines, the dups and
// the repro files match a serial campaign at any worker count.
//
// Registration is explicit from main() (see exec/fabric/work.h for the
// registry rationale); this header lives in src/fuzz/ so the dependency
// arrow stays fuzz -> fabric.
#pragma once

#include <string>
#include <vector>

#include "fuzz/fuzzer.h"
#include "fuzz/oracles.h"

namespace mpcp::fuzz {

/// Wire form of one fleet fuzz run (decoded from a RESULT payload).
struct FuzzRunOutcome {
  std::vector<OracleFailure> failures;
  std::string system_text;      ///< serialized system when failures exist
  std::string fault_plan_text;  ///< formatPlan() in fault mode
};

/// Spec shipped in WELCOME: everything the worker needs to reproduce a
/// run index bit-exactly (seed, protocols, oracle knobs, fault knobs).
[[nodiscard]] std::string makeFuzzBodySpec(const FuzzOptions& options);

[[nodiscard]] std::string encodeFuzzRunOutcome(const FuzzRunOutcome& outcome);
/// False on a malformed payload (never throws).
[[nodiscard]] bool decodeFuzzRunOutcome(const std::string& payload,
                                        FuzzRunOutcome& out);

void registerFuzzFleetBody();

}  // namespace mpcp::fuzz

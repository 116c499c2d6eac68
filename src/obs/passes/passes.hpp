// Factory functions for the built-in diagnosis pass catalog. Each pass is
// self-contained in its .cpp; the Diagnoser constructor instantiates them in
// this order (order does not affect the ranking, which is severity-based).
#pragma once

#include <memory>

#include "obs/diagnose.hpp"

namespace vodsm::obs::passes {

// Detectors for injected/physical faults (root causes).
std::unique_ptr<Pass> makePartitionPass();      // anomalies.cpp
std::unique_ptr<Pass> makeStragglerPass();      // skew.cpp
std::unique_ptr<Pass> makeDegradedLinkPass();   // skew.cpp
std::unique_ptr<Pass> makeRetransmitStormPass();  // anomalies.cpp

// Communication-pattern detectors.
std::unique_ptr<Pass> makeGrantStormPass();    // comm_patterns.cpp
std::unique_ptr<Pass> makeAllToAllDiffPass();  // comm_patterns.cpp

// Load / memory structure.
std::unique_ptr<Pass> makeImbalancePass();        // imbalance.cpp
std::unique_ptr<Pass> makePageImbalancePass();    // page_imbalance.cpp
std::unique_ptr<Pass> makeDiffStoreGrowthPass();  // memory.cpp

// Catch-all critical-path summarizer (always emits when a path exists).
std::unique_ptr<Pass> makeHotspotPass();  // hotspot.cpp

}  // namespace vodsm::obs::passes

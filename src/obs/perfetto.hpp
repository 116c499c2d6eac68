// Chrome trace-event JSON exporter for recorded traces.
//
// The output loads in Perfetto (ui.perfetto.dev) and chrome://tracing: one
// trace process per simulated node (plus one for the engine), with "app",
// "proto" and "net" threads per node. Span events become B/E pairs, instant
// events become thread-scoped instants; the two argument words of each event
// are emitted under the names from obs::kCatInfo (page/view/lock ids,
// payload sizes). Timestamps are simulated microseconds.
#pragma once

#include <ostream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vodsm::obs {

// Writes the whole trace as {"traceEvents": [...]}; `trace` must be built
// with TraceMode::kExport (checked). Events are emitted in
// (timestamp, recording order) so viewers need no resorting; the output is
// a pure function of the event list, hence deterministic across runs.
// When a sampled metrics registry is supplied, its time series is appended
// as "C" (counter) events — one counter track per metric per node, rendered
// alongside that node's span tracks.
void writeChromeTrace(std::ostream& os, const TraceRecorder& trace,
                      const MetricsRegistry* metrics);
inline void writeChromeTrace(std::ostream& os, const TraceRecorder& trace) {
  writeChromeTrace(os, trace, nullptr);
}

}  // namespace vodsm::obs

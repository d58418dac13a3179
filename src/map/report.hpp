#pragma once
// Unified machine-readable run report (DESIGN.md §13.3): one schema-versioned
// JSON document per synthesis run merging everything the session knows —
// config echo, result summary, degradation record, phase rollup, counters,
// gauges, histogram summaries, BDD kernel health and the flight-recorder
// tail. Written by SynthesisSession when SynthesisConfig::report_path is set
// (the CLI's --report), by the bench harnesses under --report-dir, and
// validated by tools/check_report_json.py.
//
// Schema stability: `schema_version` bumps on any incompatible change
// (removed/renamed key, changed type); adding keys is compatible and does
// not bump it. Consumers should key on {"report": "imodec_run"} plus the
// version.

#include <string>

#include "map/config.hpp"
#include "map/driver.hpp"
#include "obs/json.hpp"

namespace imodec {

/// Current value of the report's "schema_version" field.
inline constexpr int kRunReportSchemaVersion = 2;

/// Build the report document for one finished run from `rep` alone: its
/// spans, its own registry (counters, gauges, histograms, kernel health)
/// and its flight events. Sections the run did not record are empty.
obs::Json build_run_report(const std::string& circuit,
                           const SynthesisConfig& cfg,
                           const DriverReport& rep);

/// build_run_report + pretty-printed write to `path`. Returns false on I/O
/// failure (callers surface the path in their own diagnostics).
bool write_run_report(const std::string& path, const std::string& circuit,
                      const SynthesisConfig& cfg, const DriverReport& rep);

}  // namespace imodec

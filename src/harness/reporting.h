// Report rendering for the bench binaries: paper-style table helpers and a
// small ASCII chart for the time-series figures (Figs. 4, 6, 8).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/accounting.h"
#include "proxy/poll_log.h"
#include "util/table.h"
#include "util/time.h"

namespace broadway {

/// Print a figure/table banner:
///   == Figure 3(a): Number of polls, CNN/FN trace ==
void print_banner(std::ostream& out, const std::string& title);

/// Append a run's poll accounting to a two-column summary table: total
/// refreshes plus the per-cause breakdown (scheduled / triggered / retry)
/// and failures, read from the log's counters.  Rows with a zero count
/// for a cause the run cannot produce (no coordinator, no loss) are
/// omitted.
void add_poll_breakdown_rows(TextTable& table, const PollLog& log);

/// Outage/degradation accounting for one fault-injected fleet run
/// (fleet/faults.h), in reporting-friendly form.  Callers fill it from a
/// FleetRunResult's relay ledger and the merged ClientMetrics.
struct FaultSummary {
  Duration dark_time = 0.0;           ///< scheduled outage seconds, fleet-wide
  std::uint64_t dark_reads = 0;       ///< client reads served while dark
  std::uint64_t dark_stale = 0;       ///< of which stale cache hits
  std::uint64_t dark_misses = 0;      ///< of which unfillable misses
  RelayLedger relays;                 ///< lost, retried, dropped dark
};

/// Append outage/degradation rows to a summary table, following the
/// add_poll_breakdown_rows convention: rows a fault-free run cannot
/// produce are suppressed when zero, and an all-zero summary adds
/// nothing at all.
void add_fault_rows(TextTable& table, const FaultSummary& summary);

/// Render an (x, y) series as a crude ASCII line chart.  Intended as a
/// quick visual check of the shape a figure reproduces; the exact numbers
/// accompany it in a table.
struct AsciiChartOptions {
  int width = 72;
  int height = 16;
  std::string x_label;
  std::string y_label;
};

std::string render_ascii_chart(
    const std::vector<std::pair<double, double>>& series,
    const AsciiChartOptions& options);

/// Overlay two series in one chart ('*' = first, 'o' = second, '#' where
/// they coincide).
std::string render_ascii_chart2(
    const std::vector<std::pair<double, double>>& series_a,
    const std::vector<std::pair<double, double>>& series_b,
    const AsciiChartOptions& options);

}  // namespace broadway

#include "harness/reporting.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "metrics/accounting.h"

namespace broadway {

void print_banner(std::ostream& out, const std::string& title) {
  out << "\n== " << title << " ==\n";
}

void add_poll_breakdown_rows(TextTable& table, const PollLog& log) {
  const PollCauseCounts counts = count_by_cause(log);
  table.add_row({"polls (refreshes)",
                 std::to_string(counts.total_refreshes())});
  table.add_row({"  scheduled", std::to_string(counts.scheduled)});
  if (counts.triggered > 0) {
    table.add_row({"  triggered", std::to_string(counts.triggered)});
  }
  if (counts.retry > 0 || counts.failed > 0) {
    table.add_row({"  retries", std::to_string(counts.retry)});
    table.add_row({"lost polls", std::to_string(counts.failed)});
  }
}

void add_fault_rows(TextTable& table, const FaultSummary& summary) {
  if (summary.dark_time > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f s", summary.dark_time);
    table.add_row({"dark time", buf});
    table.add_row({"dark reads", std::to_string(summary.dark_reads)});
    table.add_row({"  stale hits", std::to_string(summary.dark_stale)});
    table.add_row({"  misses", std::to_string(summary.dark_misses)});
  }
  if (summary.relays.lost > 0 || summary.relays.retried > 0) {
    table.add_row({"relays lost", std::to_string(summary.relays.lost)});
    table.add_row({"relays retried",
                   std::to_string(summary.relays.retried)});
  }
  if (summary.relays.dropped_dark > 0) {
    table.add_row({"relays dropped dark",
                   std::to_string(summary.relays.dropped_dark)});
  }
}

namespace {

struct ChartFrame {
  double x_min, x_max, y_min, y_max;
  std::vector<std::string> rows;  // height rows of width chars

  ChartFrame(int width, int height) : rows(height, std::string(width, ' ')) {
    x_min = y_min = 0.0;
    x_max = y_max = 1.0;
  }

  void fit(const std::vector<std::pair<double, double>>& series, bool first) {
    for (const auto& [x, y] : series) {
      if (first) {
        x_min = x_max = x;
        y_min = y_max = y;
        first = false;
      } else {
        x_min = std::min(x_min, x);
        x_max = std::max(x_max, x);
        y_min = std::min(y_min, y);
        y_max = std::max(y_max, y);
      }
    }
    if (x_max == x_min) x_max = x_min + 1.0;
    if (y_max == y_min) y_max = y_min + 1.0;
  }

  void plot(const std::vector<std::pair<double, double>>& series,
            char glyph) {
    const int width = static_cast<int>(rows.front().size());
    const int height = static_cast<int>(rows.size());
    for (const auto& [x, y] : series) {
      int cx = static_cast<int>(std::lround((x - x_min) / (x_max - x_min) *
                                            (width - 1)));
      int cy = static_cast<int>(std::lround((y - y_min) / (y_max - y_min) *
                                            (height - 1)));
      cx = std::clamp(cx, 0, width - 1);
      cy = std::clamp(cy, 0, height - 1);
      char& cell = rows[static_cast<std::size_t>(height - 1 - cy)]
                       [static_cast<std::size_t>(cx)];
      cell = (cell == ' ' || cell == glyph) ? glyph : '#';
    }
  }

  std::string render(const AsciiChartOptions& options) const {
    std::ostringstream os;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%12.4g +", y_max);
    os << buf << rows.front() << "\n";
    for (std::size_t i = 1; i + 1 < rows.size(); ++i) {
      os << std::string(13, ' ') << '|' << rows[i] << "\n";
    }
    std::snprintf(buf, sizeof(buf), "%12.4g +", y_min);
    os << buf << rows.back() << "\n";
    std::snprintf(buf, sizeof(buf), "%-14s%-10.4g", "", x_min);
    os << buf;
    std::snprintf(buf, sizeof(buf), "%*.4g", options.width - 10, x_max);
    os << buf << "\n";
    if (!options.x_label.empty() || !options.y_label.empty()) {
      os << std::string(14, ' ') << options.x_label;
      if (!options.y_label.empty()) os << "   [y: " << options.y_label << "]";
      os << "\n";
    }
    return os.str();
  }
};

}  // namespace

std::string render_ascii_chart(
    const std::vector<std::pair<double, double>>& series,
    const AsciiChartOptions& options) {
  if (series.empty()) return "(empty series)\n";
  ChartFrame frame(options.width, options.height);
  frame.fit(series, true);
  frame.plot(series, '*');
  return frame.render(options);
}

std::string render_ascii_chart2(
    const std::vector<std::pair<double, double>>& series_a,
    const std::vector<std::pair<double, double>>& series_b,
    const AsciiChartOptions& options) {
  if (series_a.empty() && series_b.empty()) return "(empty series)\n";
  ChartFrame frame(options.width, options.height);
  frame.fit(series_a, true);
  frame.fit(series_b, false);
  frame.plot(series_a, '*');
  frame.plot(series_b, 'o');
  return frame.render(options);
}

}  // namespace broadway

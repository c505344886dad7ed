// Trace collection — the paper's own workload methodology, reproduced.
//
// §6.1.2: "we collected several traces from newspaper web sites using a
// program that fetched these pages from the server once every minute and
// determined if the object was updated since the previous poll (by
// parsing the time-stamp embedded in the html page)".
//
// TraceCollector is that program, run against our origin model: it polls
// an object at a fixed period and reconstructs the update trace from the
// Last-Modified values it observes.  The reconstruction is inherently
// quantised — updates closer together than the sampling period collapse,
// exactly as in the paper's real traces — which the tests quantify.
#pragma once

#include <string>
#include <vector>

#include "origin/origin_server.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "util/time.h"

namespace broadway {

/// Polls one object periodically and records observed modification
/// instants.  Start it, run the simulator, then take the trace.
class TraceCollector : private TimerOwner {
 public:
  /// Poll `uri` at `origin` every `period` (the paper used one minute).
  TraceCollector(Simulator& sim, OriginServer& origin, std::string uri,
                 Duration period = 60.0);

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Begin polling at the current simulation time.
  void start();

  /// Stop polling.
  void stop();

  /// Number of polls performed so far.
  std::size_t polls() const { return polls_; }

  /// Build the reconstructed trace over [0, horizon).  Each entry is the
  /// Last-Modified of a version first seen by some poll — i.e. the newest
  /// update per sampling interval; intermediate updates are invisible,
  /// as with the paper's collection program.
  UpdateTrace reconstructed_trace(Duration horizon,
                                  double start_hour = 0.0) const;

  /// Raw observed modification instants (ascending, deduplicated).
  const std::vector<TimePoint>& observations() const {
    return observations_;
  }

 private:
  Simulator& sim_;
  OriginServer& origin_;
  std::string uri_;
  Duration period_;
  Timer timer_;
  std::vector<TimePoint> observations_;
  TimePoint last_poll_ = 0.0;
  std::size_t polls_ = 0;

  void poll();
  /// The sampling timer fired: poll, then re-arm one period later.
  void on_timer(Timer& timer) override;
};

/// How faithfully a reconstruction captured the truth: the fraction of
/// true updates visible in the reconstruction (updates within `period` of
/// a later one collapse) and the count difference.
struct ReconstructionQuality {
  std::size_t true_updates = 0;
  std::size_t observed_updates = 0;
  /// Fraction of true update instants that appear in the reconstruction.
  double recall = 1.0;
};

ReconstructionQuality compare_reconstruction(const UpdateTrace& truth,
                                             const UpdateTrace& observed);

}  // namespace broadway

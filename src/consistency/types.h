// Shared vocabulary of the consistency policies (paper §2–§4).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/small_vector.h"
#include "util/time.h"

namespace broadway {

/// Lower/upper bounds on the time-to-refresh.  The paper constrains every
/// computed TTR to [TTR_min, TTR_max]; TTR_min defaults to Δ, "the minimum
/// interval between polls necessary to maintain consistency guarantees"
/// (§3.1).
struct TtrBounds {
  Duration min = 60.0;
  Duration max = 3600.0;

  /// max(TTR_min, min(TTR_max, ttr)).
  Duration clamp(Duration ttr) const;

  /// Bounds with TTR_min = delta (the paper's default configuration).
  static TtrBounds from_delta(Duration delta, Duration ttr_max);
};

/// What the proxy learns from one temporal-domain poll.  Built by the
/// polling engine from the HTTP response; consumed by refresh policies,
/// violation detectors and mutual-consistency coordinators.
struct TemporalPollObservation {
  /// Instant this poll's response was processed.
  TimePoint poll_time = 0.0;
  /// Instant of the previous poll (or the initial fetch).
  TimePoint previous_poll_time = 0.0;
  /// True when the server answered 200 (object changed since last poll).
  bool modified = false;
  /// Last-Modified of the current server version (present when modified;
  /// may also be present on 304 responses that echo it).
  std::optional<TimePoint> last_modified;
  /// X-Modification-History payload: update instants since the previous
  /// poll, ascending.  Empty when the extension is disabled — policies
  /// must not assume it is populated.  Built once per poll on the hot
  /// path: the inline capacity covers the common few-updates-per-poll
  /// case without touching the heap; longer histories spill.
  using History = SmallVector<TimePoint, 8>;
  History history;
  /// Client reads served for this object since the previous poll (both
  /// hits and misses).  0 when no client traffic is attached.  Policies
  /// may use it to poll what clients actually read (closed-loop
  /// feedback); the default policies ignore it unless explicitly
  /// configured (LimdPolicy::Config::read_boost).
  std::size_t client_reads = 0;
};

/// What the proxy learns from one value-domain poll.
struct ValuePollObservation {
  TimePoint poll_time = 0.0;
  TimePoint previous_poll_time = 0.0;
  double value = 0.0;
  double previous_value = 0.0;
};

/// The four LIMD adjustment cases of paper §3.1.
enum class LimdCase {
  kNoChange = 1,        ///< Case 1: linear TTR increase
  kViolation = 2,       ///< Case 2: multiplicative decrease
  kChangeNoViolation = 3,  ///< Case 3: fine-tune by (1 + eps)
  kIdleReset = 4,       ///< Case 4: update after long idle -> TTR_min
};

std::string to_string(LimdCase c);

/// How the proxy infers Fig. 1(b) violations (first update since the last
/// poll) from a response — paper §3.1 "detection of violations in the
/// second category" and §5.1.
enum class ViolationDetection {
  /// Use the X-Modification-History extension when present (exact); fall
  /// back to Last-Modified when absent.
  kExactHistory,
  /// Standard HTTP only: treat Last-Modified as the first update since the
  /// last poll.  Under-detects multi-update intervals (Fig. 1(b)).
  kLastModifiedOnly,
  /// Standard HTTP plus rate statistics: when the interval probably held
  /// multiple updates, place the first update at its expected instant.
  kProbabilistic,
};

std::string to_string(ViolationDetection mode);

/// Why a poll happened — poll accounting for the mutual-consistency
/// experiments (Figs. 5–6 separate base polls from triggered extras).
/// One byte, so it packs into the 32-byte PollRecord.
enum class PollCause : std::uint8_t {
  kInitial,    ///< the initial object fetch at registration
  kScheduled,  ///< TTR expiry
  kTriggered,  ///< forced by a mutual-consistency coordinator
  kRetry,      ///< re-poll after an injected network failure
  kRelay,      ///< refresh relayed by a sibling proxy (no origin message)
  kClientMiss, ///< demand fill: a client read missed the cache
};

std::string to_string(PollCause c);

/// Abstract temporal-domain refresh policy: decides how long to wait until
/// the next poll.  Implementations: LimdPolicy (adaptive, paper §3.1) and
/// FixedPollPolicy (the paper's baseline: poll every Δ).
class RefreshPolicy {
 public:
  virtual ~RefreshPolicy() = default;

  /// TTR to use before anything has been observed.
  virtual Duration initial_ttr() const = 0;

  /// Consume one poll observation and return the next TTR.
  virtual Duration next_ttr(const TemporalPollObservation& obs) = 0;

  /// Forget all learned state (proxy crash recovery: "recovering from a
  /// proxy failure simply involves resetting the TTRs of all objects to
  /// TTR_min", §3.1).
  virtual void reset() = 0;

  /// Current TTR (the value most recently returned, or initial_ttr()).
  virtual Duration current_ttr() const = 0;
};

}  // namespace broadway

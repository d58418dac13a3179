#pragma once
// Flight recorder: a fixed-capacity lock-free ring of timestamped structured
// events, kept so that when a governed run unwinds with Timeout /
// ResourceExhausted (or a fault-injection trip) the last ~1024 things the
// pipeline did can be dumped as JSON for a post-mortem (DESIGN.md §13.2).
//
// Each run owns its ring: run_synthesis creates one for governed,
// progress-reporting or observed runs and installs it in the thread's
// TraceContext; flight() records there or, with none installed, nowhere.
// Every live ring is listed in a fixed table for flight_dump_fd.
//
// Ring protocol (per-slot seqlock): a writer claims a ticket with a relaxed
// fetch_add on the head counter, stores seq=0 to invalidate the slot, writes
// the payload as relaxed atomic words, then publishes seq=ticket+1; release
// fences order the three steps. A reader wanting ticket t double-reads seq
// around the payload copy (acquire fences in between) and keeps the event
// only if both reads equal t+1 — a concurrent overwrite by a writer 1024
// tickets ahead is detected and the event dropped rather than returned torn.
// Because seq values are unique per generation and the payload words are
// atomics, a lost event is the worst possible outcome; there is no UB and
// no torn data.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace imodec::obs {

enum class FlightKind : std::uint8_t {
  phase,  ///< pipeline phase transition (a = phase ordinal)
  rung,   ///< degradation-ladder rung taken
  gc,     ///< BDD GC cycle (a = nodes before, b = after, c = pause us)
  guard,  ///< guard checkpoint margin (a = live nodes, b = budget, c = ms left)
  cache,  ///< unique-table / computed-cache resize (a = old, b = new)
  trip,   ///< Timeout / ResourceExhausted unwind (what = exhaustion kind)
};

const char* to_string(FlightKind k);

struct FlightEvent {
  double t_ms = 0;      ///< milliseconds since the ring was created
  FlightKind kind = FlightKind::phase;
  char what[23] = {};   ///< short label, truncated, always NUL-terminated
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kCapacity = 1024;  // power of two

  /// Starts the clock and lists the ring for flight_dump_fd while it lives.
  FlightRecorder();
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The calling thread's ring (TraceContext::flight), or nullptr.
  static FlightRecorder* current();

  void record(FlightKind kind, std::string_view what, std::uint64_t a,
              std::uint64_t b, std::uint64_t c);

  /// The (up to kCapacity) most recent events, oldest first. Events caught
  /// mid-overwrite are dropped, never returned torn.
  std::vector<FlightEvent> snapshot() const;

  /// Allocation-free snapshot for the fatal-signal path: fills `out` (sized
  /// for at least min(max, kCapacity) entries), returns the count. Same
  /// torn-slot discipline as snapshot().
  std::size_t snapshot_into(FlightEvent* out, std::size_t max) const;

  /// Total events ever recorded (monotone; exceeds kCapacity on wraparound).
  std::uint64_t total_recorded() const {
    return head_.load(std::memory_order_acquire);
  }

 private:
  // A FlightEvent packed into atomic words so concurrent overwrite is a
  // detected lost event, never a data race.
  static constexpr std::size_t kWords = 7;
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> w[kWords];
  };
  std::atomic<std::uint64_t> head_{0};
  const std::chrono::steady_clock::time_point epoch_;
  Slot slots_[kCapacity];
};

inline FlightRecorder* FlightRecorder::current() {
  return detail::t_context.flight;
}

/// Record into the calling thread's ring, if any; the one call sites use.
inline void flight(FlightKind kind, std::string_view what, std::uint64_t a = 0,
                   std::uint64_t b = 0, std::uint64_t c = 0) {
  if (FlightRecorder* ring = FlightRecorder::current())
    ring->record(kind, what, a, b, c);
}

/// {"recorded": N, "capacity": 1024, "events": [{t_ms,kind,what,a,b,c}...]}
/// for `events` (oldest first) out of `recorded` ever recorded.
Json flight_json(const std::vector<FlightEvent>& events,
                 std::uint64_t recorded);

/// Last-gasp dump: write every live ring to `fd`, one JSON line each
/// ({"imodec_flight":{...}}\n), using only async-signal-safe operations —
/// no allocation, no locks, no stdio buffering. Safe to call from a fatal
/// signal handler (util::install_fatal_handler). Best effort: a run that
/// ends during the dump frees a ring the dump may still be reading. POSIX
/// only (no-op elsewhere).
void flight_dump_fd(int fd);

}  // namespace imodec::obs

#include "obs/flight.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace imodec::obs {

namespace {

static_assert(sizeof(FlightEvent) == 56, "packing assumes 7 words");
static_assert(std::is_trivially_copyable_v<FlightEvent>);

/// Every live ring, for flight_dump_fd: lock-free pointers, so a signal
/// handler reads them safely. Rings past the table still record, undumped.
constexpr std::size_t kMaxLiveRings = 64;
std::atomic<const FlightRecorder*> g_live_rings[kMaxLiveRings];
static_assert(std::atomic<const FlightRecorder*>::is_always_lock_free);

}  // namespace

const char* to_string(FlightKind k) {
  switch (k) {
    case FlightKind::phase: return "phase";
    case FlightKind::rung: return "rung";
    case FlightKind::gc: return "gc";
    case FlightKind::guard: return "guard";
    case FlightKind::cache: return "cache";
    case FlightKind::trip: return "trip";
  }
  return "?";
}

FlightRecorder::FlightRecorder() : epoch_(std::chrono::steady_clock::now()) {
  for (Slot& s : slots_)
    for (auto& w : s.w) w.store(0, std::memory_order_relaxed);
  for (auto& entry : g_live_rings) {
    const FlightRecorder* empty = nullptr;
    if (entry.compare_exchange_strong(empty, this)) break;
  }
}

FlightRecorder::~FlightRecorder() {
  for (auto& entry : g_live_rings) {
    const FlightRecorder* self = this;
    if (entry.compare_exchange_strong(self, nullptr)) break;
  }
}

void FlightRecorder::record(FlightKind kind, std::string_view what,
                            std::uint64_t a, std::uint64_t b,
                            std::uint64_t c) {
  FlightEvent ev;
  ev.t_ms = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - epoch_)
                .count();
  ev.kind = kind;
  const std::size_t n = std::min(what.size(), sizeof(ev.what) - 1);
  std::memcpy(ev.what, what.data(), n);
  ev.a = a;
  ev.b = b;
  ev.c = c;

  std::uint64_t words[kWords];
  std::memcpy(words, &ev, sizeof(ev));

  const std::uint64_t ticket =
      head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & (kCapacity - 1)];
  slot.seq.store(0, std::memory_order_relaxed);  // invalidate
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t i = 0; i < kWords; ++i)
    slot.w[i].store(words[i], std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.seq.store(ticket + 1, std::memory_order_relaxed);  // publish
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out(kCapacity);
  out.resize(snapshot_into(out.data(), out.size()));
  return out;
}

std::size_t FlightRecorder::snapshot_into(FlightEvent* out,
                                          std::size_t max) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t window = head > kCapacity ? kCapacity : head;
  std::uint64_t first = head - window;
  if (window > max) first = head - max;
  std::size_t n = 0;
  for (std::uint64_t t = first; t < head; ++t) {
    const Slot& slot = slots_[t & (kCapacity - 1)];
    const std::uint64_t s1 = slot.seq.load(std::memory_order_relaxed);
    if (s1 != t + 1) continue;  // overwritten or in-flight
    std::atomic_thread_fence(std::memory_order_acquire);
    std::uint64_t words[kWords];
    for (std::size_t i = 0; i < kWords; ++i)
      words[i] = slot.w[i].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
    if (s2 != t + 1) continue;  // overwritten mid-copy
    FlightEvent ev;
    std::memcpy(&ev, words, sizeof(ev));
    ev.what[sizeof(ev.what) - 1] = '\0';  // belt and braces for dump paths
    out[n++] = ev;
  }
  return n;
}

void flight_dump_fd(int fd) {
#ifndef _WIN32
  // Static storage: a fatal handler may run on a tight signal stack, and
  // install_fatal_handler guarantees single entry, so no reentrancy hazard
  // worth trading async-signal safety for.
  static FlightEvent events[FlightRecorder::kCapacity];
  char buf[256];
  const auto emit = [fd](const char* s, std::size_t len) {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t w = ::write(fd, s + off, len - off);
      if (w <= 0) return;  // best effort; nowhere to report
      off += static_cast<std::size_t>(w);
    }
  };
  for (const auto& entry : g_live_rings) {  // one line per live ring
    const FlightRecorder* rec = entry.load(std::memory_order_acquire);
    if (!rec) continue;
    const std::size_t n =
        rec->snapshot_into(events, FlightRecorder::kCapacity);
    int len = std::snprintf(
        buf, sizeof(buf),
        "{\"imodec_flight\":{\"recorded\":%llu,\"capacity\":%llu,"
        "\"events\":[",
        static_cast<unsigned long long>(rec->total_recorded()),
        static_cast<unsigned long long>(FlightRecorder::kCapacity));
    emit(buf, static_cast<std::size_t>(len));
    for (std::size_t i = 0; i < n; ++i) {
      const FlightEvent& ev = events[i];
      // `what` is one of our own short labels; scrub anything that could
      // break the JSON string rather than escape it.
      char what[sizeof(ev.what)];
      std::size_t wl = 0;
      for (; wl < sizeof(what) - 1 && ev.what[wl]; ++wl) {
        const char c = ev.what[wl];
        what[wl] = (c < 0x20 || c == '"' || c == '\\') ? '_' : c;
      }
      what[wl] = '\0';
      len = std::snprintf(buf, sizeof(buf),
                          "%s{\"t_ms\":%.3f,\"kind\":\"%s\",\"what\":\"%s\","
                          "\"a\":%llu,\"b\":%llu,\"c\":%llu}",
                          i ? "," : "", ev.t_ms, to_string(ev.kind), what,
                          static_cast<unsigned long long>(ev.a),
                          static_cast<unsigned long long>(ev.b),
                          static_cast<unsigned long long>(ev.c));
      if (len > 0) emit(buf, static_cast<std::size_t>(len));
    }
    emit("]}}\n", 4);
  }
#else
  (void)fd;
#endif
}

Json flight_json(const std::vector<FlightEvent>& events,
                 std::uint64_t recorded) {
  Json doc = Json::object();
  doc["recorded"] = recorded;
  doc["capacity"] = static_cast<std::uint64_t>(FlightRecorder::kCapacity);
  Json& out = doc["events"];
  out = Json::array();
  for (const FlightEvent& ev : events) {
    Json e = Json::object();
    e["t_ms"] = ev.t_ms;
    e["kind"] = to_string(ev.kind);
    e["what"] = std::string(ev.what);
    e["a"] = ev.a;
    e["b"] = ev.b;
    e["c"] = ev.c;
    out.push_back(std::move(e));
  }
  return doc;
}

}  // namespace imodec::obs

#include "obs/trace.hpp"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

#include "util/strings.hpp"

namespace imodec::obs {

namespace {

using detail::t_context;

std::uint64_t this_thread_id() {
  static thread_local const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return tid;
}

}  // namespace

Trace::Trace() : epoch_(std::chrono::steady_clock::now()) {}

int Trace::begin(const char* name, int parent,
                 std::chrono::steady_clock::time_point now) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start = std::chrono::duration<double>(now - epoch_).count();
  span.tid = this_thread_id();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::end(int id) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<std::size_t>(id) >= spans_.size()) return;  // taken since
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.dur = std::chrono::duration<double>(now - epoch_).count() - span.start;
}

std::vector<Span> Trace::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

TraceScope::TraceScope(TraceContext ctx) : prev_(t_context) {
  t_context = ctx;
}

TraceScope::~TraceScope() { t_context = prev_; }

ScopedSpan::ScopedSpan(const char* name)
    : start_(std::chrono::steady_clock::now()), trace_(t_context.trace) {
  if (!trace_) return;
  parent_ = t_context.parent;
  id_ = trace_->begin(name, parent_, start_);
  t_context.parent = id_;
}

ScopedSpan::~ScopedSpan() {
  if (!trace_) return;
  trace_->end(id_);
  t_context.parent = parent_;
}

namespace {

/// Children of each span in recorded (chronological) order; the roots are
/// the last entry, at index spans.size().
std::vector<std::vector<int>> children_index(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size() + 1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    children[p < 0 ? spans.size() : static_cast<std::size_t>(p)].push_back(
        static_cast<int>(i));
  }
  return children;
}

/// One node of the rollup: same-named siblings merged.
struct AggNode {
  double total = 0.0;
  std::size_t count = 0;
  std::vector<std::pair<std::string, AggNode>> children;  // insertion order
  AggNode& child(const std::string& name) {
    for (auto& [n, c] : children)
      if (n == name) return c;
    children.emplace_back(name, AggNode{});
    return children.back().second;
  }
};

/// The rollup tree both trace_rollup_json and trace_summary render; the
/// returned node is a nameless top whose children are the merged roots.
AggNode rollup(const std::vector<Span>& spans) {
  const std::vector<std::vector<int>> children = children_index(spans);
  AggNode top;
  const std::function<void(int, AggNode&)> fold = [&](int idx, AggNode& into) {
    const Span& s = spans[static_cast<std::size_t>(idx)];
    AggNode& n = into.child(s.name);
    n.total += s.dur < 0 ? 0.0 : s.dur;
    ++n.count;
    for (int c : children[static_cast<std::size_t>(idx)]) fold(c, n);
  };
  for (int r : children.back()) fold(r, top);
  return top;
}

}  // namespace

std::string trace_summary(const std::vector<Span>& spans) {
  std::string out;
  const std::function<void(const AggNode&, int)> emit = [&](const AggNode& n,
                                                           int depth) {
    for (const auto& [name, c] : n.children) {
      double self = c.total;
      for (const auto& kid : c.children) self -= kid.second.total;
      // Children run on pool workers can sum past their parent's wall time.
      self = std::max(self, 0.0);
      out += strprintf("  %*s%-*s %9.3f ms  self %9.3f ms", depth * 2, "",
                       36 - depth * 2, name.c_str(), c.total * 1e3,
                       self * 1e3);
      if (c.count > 1) out += strprintf("  x%zu", c.count);
      out.push_back('\n');
      emit(c, depth + 1);
    }
  };
  emit(rollup(spans), 0);
  return out;
}

Json trace_json(const std::vector<Span>& spans) {
  const std::vector<std::vector<int>> children = children_index(spans);
  const std::function<Json(int)> emit = [&](int idx) {
    const Span& s = spans[static_cast<std::size_t>(idx)];
    Json node = Json::object();
    node["name"] = s.name;
    node["start_s"] = s.start;
    node["dur_s"] = s.dur;
    Json kids = Json::array();
    for (int c : children[static_cast<std::size_t>(idx)])
      kids.push_back(emit(c));
    node["children"] = std::move(kids);
    return node;
  };
  Json out = Json::array();
  for (int r : children.back()) out.push_back(emit(r));
  return out;
}

Json trace_rollup_json(const std::vector<Span>& spans) {
  const std::function<Json(const AggNode&)> emit = [&](const AggNode& n) {
    Json kids = Json::array();
    for (const auto& [name, c] : n.children) {
      Json node = Json::object();
      node["name"] = name;
      node["total_ms"] = c.total * 1e3;
      node["calls"] = c.count;
      node["children"] = emit(c);
      kids.push_back(std::move(node));
    }
    return kids;
  };
  return emit(rollup(spans));
}

Json trace_chrome_json(const std::vector<Span>& spans) {
  Json events = Json::array();
  for (const Span& s : spans) {
    if (s.dur < 0) continue;
    Json ev = Json::object();
    ev["name"] = s.name;
    ev["ph"] = "X";
    ev["ts"] = s.start * 1e6;
    ev["dur"] = s.dur * 1e6;
    ev["pid"] = 1;
    ev["tid"] = s.tid % 1000000;  // keep readable in the viewer
    events.push_back(std::move(ev));
  }
  Json out = Json::object();
  out["traceEvents"] = std::move(events);
  out["displayTimeUnit"] = "ms";
  return out;
}

}  // namespace imodec::obs

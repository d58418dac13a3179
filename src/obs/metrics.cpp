#include "obs/metrics.hpp"

namespace imodec::obs {

namespace {
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_serial{1};
}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Registry::Registry()
    : serial_(g_next_serial.fetch_add(1, std::memory_order_relaxed)) {}

Registry& Registry::instance() {
  static Registry* reg = new Registry();  // leaked: outlives all users
  return *reg;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  return *it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, Registry::GaugeValue>> Registry::gauges()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, GaugeValue>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    out.emplace_back(name, GaugeValue{g->value(), g->max()});
  return out;
}

std::vector<std::pair<std::string, Histogram::Summary>> Registry::histograms()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Histogram::Summary>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_)
    out.emplace_back(name, h->summary());
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, value] : other.counters()) counter(name).add(value);
  for (const auto& [name, gv] : other.gauges()) {
    Gauge& g = gauge(name);
    g.set(gv.max);  // raises the watermark; the next set restores the value
    g.set(gv.value);
  }
  std::lock_guard<std::mutex> lock(other.mu_);
  for (const auto& [name, h] : other.histograms_) histogram(name).merge(*h);
}

Json Registry::to_json() const {
  Json out = Json::object();
  Json& counters = out["counters"];
  counters = Json::object();
  for (const auto& [name, value] : this->counters()) counters[name] = value;
  Json& gauges = out["gauges"];
  gauges = Json::object();
  for (const auto& [name, gv] : this->gauges()) {
    Json g = Json::object();
    g["value"] = gv.value;
    g["max"] = gv.max;
    gauges[name] = std::move(g);
  }
  Json& hists = out["histograms"];
  hists = Json::object();
  for (const auto& [name, s] : this->histograms()) {
    Json h = Json::object();
    h["count"] = s.count;
    h["sum"] = s.sum;
    h["max"] = s.max;
    h["p50"] = s.p50;
    h["p90"] = s.p90;
    h["p99"] = s.p99;
    hists[name] = std::move(h);
  }
  return out;
}

}  // namespace imodec::obs

#include "telemetry/metrics.hpp"

#include <algorithm>

namespace hw::telemetry {

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

Instrument::Instrument(std::string name, MetricKind kind,
                       Determinism determinism)
    : Instrument(MetricRegistry::current(), std::move(name), kind,
                 determinism) {}

Instrument::Instrument(MetricRegistry& registry, std::string name,
                       MetricKind kind, Determinism determinism)
    : registry_(&registry),
      name_(std::move(name)),
      kind_(kind),
      determinism_(determinism) {
  registry_->attach(this);
}

Instrument::~Instrument() { registry_->detach(this); }

namespace {

/// Bucket b of a Histogram holds values whose bit width is b: [2^(b-1), 2^b).
constexpr std::uint64_t bucket_lo(std::size_t b) {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}
constexpr std::uint64_t bucket_hi(std::size_t b) {
  return b == 0 ? 0
         : b >= 64 ? ~std::uint64_t{0}
                   : (std::uint64_t{1} << b) - 1;
}

}  // namespace

double Histogram::percentile_of(const Buckets& buckets, std::uint64_t count,
                                double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // 1-based rank of the requested order statistic.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (cumulative + buckets[b] >= rank) {
      const double lo = static_cast<double>(bucket_lo(b));
      const double hi = static_cast<double>(bucket_hi(b));
      const double within =
          static_cast<double>(rank - cumulative) / static_cast<double>(buckets[b]);
      return lo + (hi - lo) * within;
    }
    cumulative += buckets[b];
  }
  return static_cast<double>(bucket_hi(kBuckets - 1));
}

double Histogram::percentile(double q) const {
  return percentile_of(buckets_, count_, q);
}

MetricRegistry& MetricRegistry::instance() {
  static MetricRegistry registry;
  return registry;
}

MetricRegistry*& MetricRegistry::current_slot() {
  thread_local MetricRegistry* current = nullptr;
  return current;
}

MetricRegistry& MetricRegistry::current() {
  MetricRegistry* reg = current_slot();
  return reg != nullptr ? *reg : instance();
}

void MetricRegistry::attach(Instrument* i) {
  std::lock_guard<std::mutex> lock(mutex_);
  instruments_.push_back(i);
}

void MetricRegistry::detach(Instrument* i) {
  std::lock_guard<std::mutex> lock(mutex_);
  instruments_.erase(std::remove(instruments_.begin(), instruments_.end(), i),
                     instruments_.end());
}

std::optional<double> MetricRegistry::total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::optional<double> out;
  for (const Instrument* i : instruments_) {
    if (i->name() != name) continue;
    double v = 0;
    switch (i->kind()) {
      case MetricKind::Counter:
        v = static_cast<double>(static_cast<const Counter*>(i)->value());
        break;
      case MetricKind::Gauge:
        v = static_cast<double>(static_cast<const Gauge*>(i)->value());
        break;
      case MetricKind::Histogram:
        v = static_cast<double>(static_cast<const Histogram*>(i)->count());
        break;
    }
    out = out.value_or(0.0) + v;
  }
  return out;
}

bool MetricRegistry::restore_scalar(const std::string& name, double target) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Several instances of a module can carry the same series (one per host,
  // per link, ...). Leave all but the first alone and set the first so the
  // *sum* lands on the captured value — the only view scalars() exposes.
  Instrument* first = nullptr;
  double rest = 0.0;
  for (Instrument* i : instruments_) {
    if (i->name() != name || i->kind() == MetricKind::Histogram) continue;
    if (first == nullptr) {
      first = i;
      continue;
    }
    rest += i->kind() == MetricKind::Counter
                ? static_cast<double>(static_cast<const Counter*>(i)->value())
                : static_cast<double>(static_cast<const Gauge*>(i)->value());
  }
  if (first == nullptr) return false;
  const double want = target - rest;
  if (first->kind() == MetricKind::Counter) {
    static_cast<Counter*>(first)->restore(
        want <= 0.0 ? 0 : static_cast<std::uint64_t>(want + 0.5));
  } else {
    static_cast<Gauge*>(first)->set(static_cast<std::int64_t>(
        want < 0.0 ? want - 0.5 : want + 0.5));
  }
  return true;
}

std::map<std::string, double> MetricRegistry::scalars() const {
  std::map<std::string, double> out;
  add_scalars(out);
  return out;
}

void MetricRegistry::add_scalars(std::map<std::string, double>& out,
                                 bool exact_only) const {
  visit([&](const Instrument& i) {
    if (exact_only && i.determinism() != Determinism::Exact) return;
    switch (i.kind()) {
      case MetricKind::Counter:
        out[i.name()] +=
            static_cast<double>(static_cast<const Counter&>(i).value());
        break;
      case MetricKind::Gauge:
        out[i.name()] +=
            static_cast<double>(static_cast<const Gauge&>(i).value());
        break;
      case MetricKind::Histogram:
        break;
    }
  });
}

std::map<std::string, HistogramState>
MetricRegistry::histogram_states_locked() const {
  std::map<std::string, HistogramState> out;
  for (const Instrument* i : instruments_) {
    if (i->kind() != MetricKind::Histogram) continue;
    out[i->name()].add(*static_cast<const Histogram*>(i));
  }
  return out;
}

std::map<std::string, HistogramState> MetricRegistry::histogram_states() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histogram_states_locked();
}

std::vector<MetricSample> MetricRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Aggregate same-named instruments: instances of a module each carry their
  // own cells, the series is their merge.
  std::map<std::string, double> scalars;  // counters + gauges
  std::map<std::string, MetricKind> scalar_kinds;
  for (const Instrument* i : instruments_) {
    switch (i->kind()) {
      case MetricKind::Counter:
        scalars[i->name()] +=
            static_cast<double>(static_cast<const Counter*>(i)->value());
        scalar_kinds.emplace(i->name(), MetricKind::Counter);
        break;
      case MetricKind::Gauge:
        scalars[i->name()] +=
            static_cast<double>(static_cast<const Gauge*>(i)->value());
        scalar_kinds.emplace(i->name(), MetricKind::Gauge);
        break;
      case MetricKind::Histogram:
        break;
    }
  }
  const auto histograms = histogram_states_locked();

  std::vector<MetricSample> out;
  out.reserve(scalars.size() + histograms.size() * 7);
  for (const auto& [name, value] : scalars) {
    out.push_back({name, scalar_kinds.at(name), value});
  }
  for (const auto& [name, m] : histograms) {
    const auto emit = [&](const char* suffix, double v) {
      out.push_back({name + "." + suffix, MetricKind::Histogram, v});
    };
    emit("count", static_cast<double>(m.count));
    emit("sum", static_cast<double>(m.sum));
    emit("mean", m.mean());
    emit("p50", m.percentile(0.50));
    emit("p90", m.percentile(0.90));
    emit("p99", m.percentile(0.99));
    emit("max", static_cast<double>(m.max));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace hw::telemetry

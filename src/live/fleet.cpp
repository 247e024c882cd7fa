#include "live/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "homework/router.hpp"
#include "scenario/scenario.hpp"
#include "sim/fault_injector.hpp"
#include "snapshot/codec.hpp"
#include "util/logging.hpp"
#include "workload/scenario.hpp"

namespace hw::live {
namespace {

constexpr std::string_view kLog = "live";
constexpr std::uint32_t kRngTag = snapshot::tag("RNGS");
constexpr std::uint32_t kDriverTag = snapshot::tag("LDRV");
constexpr Duration kBootSettle = homework::HomeworkRouter::kBootSettle;

/// Smallest phase + k * period strictly after `now` — re-arms a restored
/// home's periodic drivers on the same absolute grid the first life used.
Timestamp next_phase_tick(Timestamp now, Duration period, Duration phase) {
  if (now < phase) return phase;
  return phase + ((now - phase) / period + 1) * period;
}

std::optional<sim::FaultKind> parse_fault_kind(const std::string& name) {
  for (const sim::FaultKind kind :
       {sim::FaultKind::LinkLoss, sim::FaultKind::LinkPartition,
        sim::FaultKind::ControllerOutage, sim::FaultKind::HwdbFault,
        sim::FaultKind::DatapathRestart, sim::FaultKind::CrashRestartRestore}) {
    if (name == sim::to_string(kind)) return kind;
  }
  return std::nullopt;
}

/// Reads the CaptureTag out of an encoded image without restoring anything.
Result<snapshot::CaptureTag> read_capture_tag(const Bytes& image) {
  auto reader = snapshot::Reader::parse(image);
  if (!reader) return reader.error();
  snapshot::CaptureTagLayer probe;
  if (auto s = probe.restore(reader.value()); !s.ok()) return s.error();
  return probe.value();
}

/// Mutation kinds that act on one home's live stack — the kinds that page a
/// hibernated target back in before applying (wake-before-apply: a stored
/// image always reflects every mutation ever applied to its home).
bool targets_home(MutateKind kind) {
  switch (kind) {
    case MutateKind::Admit:
    case MutateKind::Expel:
    case MutateKind::ApplyPolicy:
    case MutateKind::RevokePolicy:
    case MutateKind::InjectFault:
    case MutateKind::Wake:
      return true;
    default:
      return false;
  }
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

struct LiveFleet::Home {
  std::size_t id = 0;
  std::uint64_t seed = 0;
  std::size_t device_count = 0;
  std::string error;

  // registry first: it must outlive every instrument the home constructs.
  telemetry::MetricRegistry registry;
  std::unique_ptr<workload::HomeScenario> scenario;
  std::unique_ptr<sim::FaultInjector> faults;
  std::unique_ptr<snapshot::LambdaLayer> rng_layer;
  std::unique_ptr<snapshot::LambdaLayer> driver_layer;
  snapshot::CaptureTagLayer ftag;
  std::unique_ptr<snapshot::TelemetryLayer> tele_layer;
  std::unique_ptr<sim::PeriodicTimer> attack_timer;
  std::unique_ptr<sim::PeriodicTimer> rekick;
  /// Publishes the live.home.* gauges on the home's own loop (barrier grid),
  /// so they follow virtual time alike in a live run, a replay and a wake
  /// catch-up that crosses many barriers in one run_until.
  std::unique_ptr<sim::PeriodicTimer> gauge_timer;

  /// Hostile events emitted so far — also the attack's MAC/xid sequence
  /// counter, so it snapshots (LDRV) and a resumed attack continues the
  /// exact stream.
  std::uint64_t attack_sent = 0;
  std::size_t guest_index = static_cast<std::size_t>(-1);

  struct Gauges {
    explicit Gauges(telemetry::MetricRegistry& reg)
        : devices_bound{reg, "live.home.devices_bound"},
          flow_entries{reg, "live.home.flow_entries"},
          block_flows{reg, "live.home.block_flows"},
          block_drops{reg, "live.home.block_drops"},
          attack_sent{reg, "live.home.attack_sent"} {}
    telemetry::Gauge devices_bound;
    telemetry::Gauge flow_entries;
    telemetry::Gauge block_flows;
    telemetry::Gauge block_drops;
    telemetry::Gauge attack_sent;
  };
  std::optional<Gauges> gauges;

  std::optional<snapshot::SnapshotImage> capture_out;
};

LiveFleet::LiveFleet(LiveConfig config, telemetry::MetricRegistry& metrics)
    : config_(std::move(config)),
      store_(metrics),
      residency_(config_.residency, metrics),
      metrics_(metrics) {
  if (config_.homes == 0) config_.homes = 1;
  nthreads_ = std::max<std::size_t>(1, std::min(config_.threads, config_.homes));
  profile_ = residency::FleetProfile::build(config_.seed, config_.homes,
                                            config_.devices_per_home);
}

LiveFleet::~LiveFleet() {
  if (started_) {
    // Homes were constructed on their owner workers; PeriodicTimer/app
    // destructors cancel loop events, so destruction must happen there too.
    run_on_workers([this](std::size_t w) {
      for (std::size_t i = w; i < homes_.size(); i += nthreads_) {
        homes_[i].reset();
      }
    });
  }
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      shutdown_ = true;
    }
    pool_cv_.notify_all();
    for (auto& t : workers_) t.join();
  }
}

void LiveFleet::start_workers() {
  if (nthreads_ <= 1) return;  // inline mode: jobs run on the driving thread
  workers_.reserve(nthreads_);
  for (std::size_t i = 0; i < nthreads_; ++i) {
    workers_.emplace_back([this, i] {
      std::uint64_t seen = 0;
      while (true) {
        std::function<void(std::size_t)> job;
        {
          std::unique_lock<std::mutex> lock(pool_mu_);
          pool_cv_.wait(lock,
                        [&] { return shutdown_ || generation_ != seen; });
          if (generation_ == seen) return;  // shutdown, no new job
          seen = generation_;
          job = job_;
        }
        job(i);
        {
          std::lock_guard<std::mutex> lock(pool_mu_);
          ++done_;
        }
        pool_cv_.notify_all();
      }
    });
  }
}

void LiveFleet::run_on_workers(const std::function<void(std::size_t)>& job) {
  if (workers_.empty()) {
    for (std::size_t i = 0; i < nthreads_; ++i) job(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    job_ = job;
    done_ = 0;
    ++generation_;
  }
  pool_cv_.notify_all();
  std::unique_lock<std::mutex> lock(pool_mu_);
  pool_cv_.wait(lock, [&] { return done_ == workers_.size(); });
}

void LiveFleet::build_home(std::size_t id,
                           const snapshot::SnapshotImage* resume) {
  auto h = std::make_unique<Home>();
  h->id = id;
  h->seed = profile_->home_seeds[id];
  telemetry::ScopedMetricRegistry scope(h->registry);

  workload::HomeScenario::Config sc;
  sc.seed = h->seed;
  sc.router.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  sc.router.liveness.probe_interval = kSecond;
  sc.router.liveness.max_misses = 2;
  sc.router.datapath.controller_dead_interval = 2 * kSecond;
  // Spoofed-DISCOVER floods leave unclaimed offers pending across
  // checkpoints; the reclaim sweep runs on a boot-relative grid, so the
  // default holds offers past the run, keeping live tail and replay tail
  // byte-identical (residency tests shrink the hold to watch expiry fire).
  sc.router.dhcp_offer_hold = config_.dhcp_offer_hold;
  if (resume != nullptr) {
    sc.clock_origin = resume->captured_at > kBootSettle
                          ? resume->captured_at - kBootSettle
                          : 0;
  }
  h->scenario = std::make_unique<workload::HomeScenario>(sc, h->registry);
  h->scenario->start();

  // Seed-derived population, read from the shared immutable profile so
  // hibernate/wake cycles never re-derive it.
  for (const workload::DeviceSpec& spec : profile_->device_specs[id]) {
    h->scenario->add_device(spec);
  }
  const bool attack_home = config_.attack.kind != LiveAttack::Kind::None &&
                           config_.attack.home == id;
  if (attack_home) {
    h->guest_index = h->scenario->add_device(
        {"guest", workload::DeviceKind::Phone, std::nullopt});
  }
  h->device_count = h->scenario->devices().size();

  // Fault surfaces: armed with an empty plan so the injector RNG is seeded
  // deterministically before any mid-run InjectFault mutation draws from it.
  h->faults = std::make_unique<sim::FaultInjector>(h->scenario->loop());
  h->scenario->router().attach_faults(*h->faults);
  h->faults->set_hwdb_fault({});
  for (auto& d : h->scenario->devices()) {
    h->faults->add_link(d.name, *d.attachment.link);
  }
  sim::FaultPlan empty_plan;
  empty_plan.seed = h->seed ^ 0xa0761d6478bd642fULL;
  h->faults->arm(empty_plan);

  // Snapshot layers on top of the router's state layers: scenario RNG,
  // the live driver counters, the fleet capture tag, telemetry last.
  auto& snaps = h->scenario->router().snapshots();
  workload::HomeScenario* scenario = h->scenario.get();
  h->rng_layer = std::make_unique<snapshot::LambdaLayer>(
      [scenario](snapshot::Writer& w) {
        ByteWriter& c = w.begin_chunk(kRngTag);
        for (const std::uint64_t word : scenario->rng().state()) c.u64(word);
        w.end_chunk();
      },
      [scenario](const snapshot::Reader& r) -> Status {
        const Bytes* chunk = r.find(kRngTag);
        if (chunk == nullptr) return Status::success();
        ByteReader br(*chunk);
        std::array<std::uint64_t, 4> state{};
        for (auto& word : state) {
          auto v = br.u64();
          if (!v) return v.error();
          word = v.value();
        }
        scenario->rng().set_state(state);
        return Status::success();
      });
  Home* hp = h.get();
  h->driver_layer = std::make_unique<snapshot::LambdaLayer>(
      [hp](snapshot::Writer& w) {
        ByteWriter& c = w.begin_chunk(kDriverTag);
        c.u64(hp->attack_sent);
        // Host-side ARP caches: resolved next-hops are host state the router
        // layers cannot see, but a replayed tail must not re-ARP what the
        // first life resolved before the capture.
        auto& devices = hp->scenario->devices();
        c.u32(static_cast<std::uint32_t>(devices.size()));
        for (auto& d : devices) {
          std::vector<std::pair<Ipv4Address, MacAddress>> entries(
              d.host->arp_cache().begin(), d.host->arp_cache().end());
          std::sort(entries.begin(), entries.end());
          c.u32(static_cast<std::uint32_t>(entries.size()));
          for (const auto& [ip, mac] : entries) {
            c.u32(ip.value());
            for (const std::uint8_t octet : mac.octets()) c.u8(octet);
          }
        }
        w.end_chunk();
      },
      [hp](const snapshot::Reader& r) -> Status {
        const Bytes* chunk = r.find(kDriverTag);
        if (chunk == nullptr) return Status::success();
        ByteReader br(*chunk);
        auto v = br.u64();
        if (!v) return v.error();
        hp->attack_sent = v.value();
        auto ndevices = br.u32();
        if (!ndevices) return ndevices.error();
        auto& devices = hp->scenario->devices();
        for (std::uint32_t i = 0; i < ndevices.value(); ++i) {
          auto nentries = br.u32();
          if (!nentries) return nentries.error();
          for (std::uint32_t e = 0; e < nentries.value(); ++e) {
            auto ip = br.u32();
            if (!ip) return ip.error();
            std::array<std::uint8_t, 6> octets{};
            for (auto& octet : octets) {
              auto b = br.u8();
              if (!b) return b.error();
              octet = b.value();
            }
            if (i < devices.size()) {
              devices[i].host->seed_arp(Ipv4Address{ip.value()},
                                        MacAddress{octets});
            }
          }
        }
        return Status::success();
      });
  snaps.add_layer("rng", h->rng_layer.get());
  snaps.add_layer("live-driver", h->driver_layer.get());
  snaps.add_layer("capture-tag", &h->ftag);
  h->tele_layer = std::make_unique<snapshot::TelemetryLayer>(h->registry);
  h->gauges.emplace(h->registry);

  const LiveAttack attack = config_.attack;
  h->attack_timer = std::make_unique<sim::PeriodicTimer>(
      h->scenario->loop(), attack.period, [hp, attack] {
        auto& devices = hp->scenario->devices();
        if (hp->guest_index >= devices.size()) return;
        auto& guest = devices[hp->guest_index];
        if (guest.attachment.link == nullptr) return;
        for (std::size_t j = 0; j < attack.per_tick; ++j) {
          const auto n = static_cast<std::uint32_t>(hp->attack_sent);
          const Bytes frame = scenario::spoofed_discover(
              MacAddress::from_index(0x800000 + n), 0x51000000u + n,
              "flood-" + std::to_string(n));
          (void)guest.attachment.link->a_to_b().send(frame);
          ++hp->attack_sent;
        }
        hp->gauges->attack_sent.set(static_cast<std::int64_t>(hp->attack_sent));
        // The attacker's own traffic — what a quarantine mutation blocks.
        if (guest.host->ip()) {
          (void)guest.host->send_udp(Ipv4Address{198, 51, 100, 7}, 33000, 443,
                                     64);
        }
      });
  h->rekick = std::make_unique<sim::PeriodicTimer>(
      h->scenario->loop(), 5 * kSecond, [hp] {
        for (auto& d : hp->scenario->devices()) {
          if (!d.host->ip()) d.host->start_dhcp();
        }
      });
  h->gauge_timer = std::make_unique<sim::PeriodicTimer>(
      h->scenario->loop(), kBarrierInterval,
      [hp] { update_gauges(*hp); });

  if (resume == nullptr) {
    snaps.add_layer("telemetry", h->tele_layer.get());
    h->scenario->start_dhcp_all();
    h->rekick->start_at(5 * kSecond + 500 * kMillisecond);
    h->gauge_timer->start_at(kBootSettle);
    if (attack_home) h->attack_timer->start_at(attack.start);
    if (config_.run_apps) {
      (void)h->scenario->wait_all_bound(10 * kSecond);
      h->scenario->start_apps_all();
    }
  } else {
    // The resume recipe: state layers, lease adoption, a 1 ms drain for
    // boot-era in-flight frames, then the telemetry layer so restored
    // counters erase the boot's side effects.
    const Status restored = snaps.restore(*resume);
    if (!restored.ok()) {
      h->error = restored.error().message;
      homes_[id] = std::move(h);
      return;
    }
    h->scenario->adopt_restored_leases();
    if (config_.run_apps) h->scenario->start_apps_all();
    h->scenario->loop().run_for(kMillisecond);
    snaps.add_layer("telemetry", h->tele_layer.get());
    if (auto s = snaps.restore_layers(resume->bytes, {"telemetry"});
        !s.ok()) {
      h->error = s.error().message;
    }
    const Timestamp now = h->scenario->loop().now();
    h->rekick->start_at(
        next_phase_tick(now, 5 * kSecond, 5 * kSecond + 500 * kMillisecond));
    h->gauge_timer->start_at(
        next_phase_tick(now, kBarrierInterval, kBootSettle));
    if (attack_home) {
      h->attack_timer->start_at(
          next_phase_tick(now, attack.period, attack.start));
    }
  }
  homes_[id] = std::move(h);
}

void LiveFleet::start() {
  if (started_) return;
  homes_.resize(config_.homes);
  frozen_.resize(config_.homes);
  hstage_.resize(config_.homes);
  wake_images_.resize(config_.homes);
  wake_ns_.assign(config_.homes, 0);
  start_workers();
  if (config_.residency.hibernate_on_start) {
    // Staged boot: each worker builds one owned home at a time, runs it to
    // the first capture-aligned barrier and hibernates it before building
    // the next — peak residency during start is the worker count, not the
    // fleet size.
    const Timestamp first = kBootSettle + kCheckpointAlign;
    residency_.reset(config_.homes, first);
    run_on_workers([this, first](std::size_t w) {
      for (std::size_t i = w; i < homes_.size(); i += nthreads_) {
        build_home(i, nullptr);
        {
          Home& h = *homes_[i];
          telemetry::ScopedMetricRegistry scope(h.registry);
          h.scenario->loop().run_until(first);
        }
        hibernate_on_worker(i, /*capture_id=*/first);
      }
    });
    for (std::size_t i = 0; i < homes_.size(); ++i) {
      (void)finish_hibernate(i, first);
    }
    now_ = first;
    resident_peak_ = std::min(nthreads_, homes_.size());
  } else {
    residency_.reset(config_.homes, kBootSettle);
    run_on_workers([this](std::size_t w) {
      for (std::size_t i = w; i < homes_.size(); i += nthreads_) {
        build_home(i, nullptr);
      }
    });
    now_ = kBootSettle;
    resident_peak_ = homes_.size();
  }
  started_ = true;
}

Status LiveFleet::resume(const FleetCheckpoint& cp,
                         std::vector<Mutation> tail) {
  if (started_) return make_error("live: fleet already started");
  if (cp.images.size() != config_.homes) {
    return make_error("live: checkpoint has " +
                      std::to_string(cp.images.size()) + " images for " +
                      std::to_string(config_.homes) + " homes");
  }
  // Reject stitched image sets before touching any home: every member must
  // carry the same capture id, its own position and the right fleet size.
  for (std::size_t i = 0; i < cp.images.size(); ++i) {
    auto tag = read_capture_tag(cp.images[i].bytes);
    if (!tag) return tag.error();
    if (tag.value().capture_id != cp.capture_id ||
        tag.value().member != i ||
        tag.value().members != cp.images.size()) {
      return make_error("live: capture tag mismatch on member " +
                        std::to_string(i) + " (capture " +
                        std::to_string(tag.value().capture_id) + ", member " +
                        std::to_string(tag.value().member) + ")");
    }
  }

  homes_.resize(config_.homes);
  frozen_.resize(config_.homes);
  hstage_.resize(config_.homes);
  wake_images_.resize(config_.homes);
  wake_ns_.assign(config_.homes, 0);
  residency_.reset(config_.homes, cp.captured_at);
  resident_peak_ = config_.homes;
  start_workers();
  // Every member boots resident. A mixed checkpoint (some members reused
  // from hibernation images) restores those homes at their older capture
  // times; the first step()'s run_until catches them up to the fleet
  // barrier, replaying their virtual timeline exactly.
  run_on_workers([this, &cp](std::size_t w) {
    for (std::size_t i = w; i < homes_.size(); i += nthreads_) {
      build_home(i, &cp.images[i]);
    }
  });
  for (const auto& h : homes_) {
    if (!h->error.empty()) {
      return make_error("live: home " + std::to_string(h->id) +
                        " failed to resume: " + h->error);
    }
  }

  now_ = cp.captured_at;
  next_mutation_id_ = cp.mutation_id + 1;
  next_capture_id_ = cp.capture_id + 1;
  for (Mutation& m : tail) {
    next_mutation_id_ = std::max(next_mutation_id_, m.id + 1);
    log_.push_back(m);
    if (m.kind == MutateKind::Checkpoint) {
      pending_checkpoints_.push_back(m);
    } else {
      pending_.push_back(m);
    }
  }
  metrics_.resumes.inc();
  started_ = true;
  return Status::success();
}

Timestamp LiveFleet::next_barrier() const {
  if (now_ < kBootSettle) return kBootSettle + kBarrierInterval;
  return kBootSettle +
         ((now_ - kBootSettle) / kBarrierInterval + 1) * kBarrierInterval;
}

Timestamp LiveFleet::next_checkpoint_barrier() const {
  const Duration align = kCheckpointAlign;
  if (now_ < kBootSettle) return kBootSettle + align;
  return kBootSettle + ((now_ - kBootSettle) / align + 1) * align;
}

Mutation LiveFleet::submit(Mutation m) {
  m.id = 0;
  // Checkpoints and hibernations both land on the capture-aligned grid —
  // hibernation is a capture, and the alignment is the timer re-arm
  // precondition the eventual wake depends on.
  m.applied_at = m.kind == MutateKind::Checkpoint ||
                         m.kind == MutateKind::Hibernate
                     ? next_checkpoint_barrier()
                     : next_barrier();
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.push_back(m);
  }
  metrics_.mutations.inc();
  return m;
}

bool LiveFleet::checkpoint_pending_at(Timestamp barrier) const {
  for (const Mutation& m : pending_checkpoints_) {
    if (m.applied_at == barrier) return true;
  }
  return false;
}

Timestamp LiveFleet::step() {
  const Timestamp barrier = next_barrier();

  // Ingest the inbox. Checkpoints are ordered first and land on the aligned
  // capture grid; a mutation must never share a barrier with a capture —
  // the image has to show the pre-mutation state so the replayed tail
  // (ids > the checkpoint's) re-applies it exactly once.
  std::vector<Mutation> batch;
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    batch.swap(inbox_);
  }
  std::stable_partition(batch.begin(), batch.end(), [](const Mutation& m) {
    return m.kind == MutateKind::Checkpoint;
  });
  for (Mutation& m : batch) {
    m.id = next_mutation_id_++;
    if (m.kind == MutateKind::Checkpoint) {
      m.applied_at = next_checkpoint_barrier();
      pending_checkpoints_.push_back(m);
    } else if (m.kind == MutateKind::Hibernate) {
      // Lands on the aligned grid (the wake's timer re-arm precondition) and
      // may share a barrier with a capture: the capture runs first and shows
      // the pre-hibernation state either way.
      m.applied_at = next_checkpoint_barrier();
      pending_.push_back(m);
    } else {
      m.applied_at = barrier;
      while (checkpoint_pending_at(m.applied_at)) {
        m.applied_at += kBarrierInterval;
      }
      pending_.push_back(m);
    }
    HW_LOG_INFO(kLog, "mutation #%llu %s home=%u lands at t=%llu",
                static_cast<unsigned long long>(m.id), to_string(m.kind),
                m.home, static_cast<unsigned long long>(m.applied_at));
    log_.push_back(m);
  }

  // Page-in decision: which hibernated homes must be resident at this
  // barrier. External touches and due per-home mutations refresh recency and
  // force a wake (wake-before-apply); due scheduled events wake under
  // wake_on_due. Everything else stays paged out — the closed virtual world
  // guarantees a later catch-up replays the skipped interval bit-exactly.
  std::vector<std::uint8_t> wake(homes_.size(), 0);
  {
    std::vector<std::uint32_t> touched;
    {
      std::lock_guard<std::mutex> lock(touch_mu_);
      touched.swap(touched_);
    }
    for (const std::uint32_t id : touched) {
      if (id >= homes_.size()) continue;
      residency_.touch(id, barrier);
      if (residency_.hibernated(id)) wake[id] = 1;
    }
  }
  for (const Mutation& m : pending_) {
    if (m.applied_at > barrier || !targets_home(m.kind)) continue;
    if (m.home == kAllHomes) {
      for (std::size_t i = 0; i < homes_.size(); ++i) {
        if (residency_.hibernated(i)) wake[i] = 1;
      }
    } else if (m.home < homes_.size()) {
      residency_.touch(m.home, barrier);
      if (residency_.hibernated(m.home)) wake[m.home] = 1;
    }
  }
  for (const std::size_t id : residency_.due_wakeups(barrier)) wake[id] = 1;
  bool any_wake = false;
  for (std::size_t i = 0; i < homes_.size(); ++i) {
    if (!wake[i]) continue;
    auto img = store_.get(i);
    if (!img) {
      HW_LOG_ERROR(kLog, "wake of home %zu failed: %s", i,
                   img.error().message.c_str());
      wake[i] = 0;
      continue;
    }
    wake_images_[i] = std::move(img.value());
    any_wake = true;
  }

  // Quiesce every resident home at the barrier; woken homes rebuild from
  // their stored image and catch up on their owner worker.
  run_on_workers([this, barrier, &wake](std::size_t w) {
    for (std::size_t i = w; i < homes_.size(); i += nthreads_) {
      if (homes_[i] == nullptr) {
        if (!wake[i]) continue;
        const auto t0 = std::chrono::steady_clock::now();
        build_home(i, &*wake_images_[i]);
        Home& h = *homes_[i];
        telemetry::ScopedMetricRegistry scope(h.registry);
        h.scenario->loop().run_until(barrier);
        wake_ns_[i] = elapsed_ns(t0);
        continue;
      }
      Home& h = *homes_[i];
      telemetry::ScopedMetricRegistry scope(h.registry);
      h.scenario->loop().run_until(barrier);
    }
  });
  if (any_wake) {
    for (std::size_t i = 0; i < homes_.size(); ++i) {
      if (wake[i]) finish_wake(i, barrier);
    }
    resident_peak_ = std::max(resident_peak_, residency_.resident_count());
  }

  // Fleet-wide consistent capture, before any mutation due at this barrier.
  std::optional<std::uint64_t> capture_mutation;
  for (auto it = pending_checkpoints_.begin();
       it != pending_checkpoints_.end();) {
    if (it->applied_at == barrier) {
      if (!capture_mutation) capture_mutation = it->id;
      it = pending_checkpoints_.erase(it);
    } else {
      ++it;
    }
  }
  if (capture_mutation) {
    FleetCheckpoint cp;
    cp.capture_id = next_capture_id_++;
    cp.captured_at = barrier;
    cp.mutation_id = *capture_mutation;
    cp.images.resize(homes_.size());
    const std::uint64_t capture_id = cp.capture_id;
    run_on_workers([this, capture_id](std::size_t w) {
      for (std::size_t i = w; i < homes_.size(); i += nthreads_) {
        if (homes_[i] == nullptr) continue;
        Home& h = *homes_[i];
        telemetry::ScopedMetricRegistry scope(h.registry);
        h.ftag.value() = snapshot::CaptureTag{
            capture_id, static_cast<std::uint32_t>(h.id),
            static_cast<std::uint32_t>(homes_.size())};
        h.capture_out = h.scenario->router().snapshots().capture();
      }
    });
    for (std::size_t i = 0; i < homes_.size(); ++i) {
      if (homes_[i] != nullptr) {
        cp.images[i] = std::move(*homes_[i]->capture_out);
        homes_[i]->capture_out.reset();
        continue;
      }
      // Hibernated member: reuse its stored image, restamped with this
      // capture's tag. Wake-before-apply means the image already reflects
      // every mutation applied to the home; its older captured_at makes the
      // checkpoint "mixed" — resume catches the member up on the first step.
      const auto stored = store_.get(i);
      if (!stored) {
        HW_LOG_ERROR(kLog, "checkpoint %llu: no image for hibernated home %zu",
                     static_cast<unsigned long long>(capture_id), i);
        continue;
      }
      auto restamped = snapshot::with_capture_tag(
          stored.value().bytes,
          snapshot::CaptureTag{capture_id, static_cast<std::uint32_t>(i),
                               static_cast<std::uint32_t>(homes_.size())});
      if (!restamped) {
        HW_LOG_ERROR(kLog, "checkpoint %llu: restamp failed for home %zu: %s",
                     static_cast<unsigned long long>(capture_id), i,
                     restamped.error().message.c_str());
        continue;
      }
      cp.images[i].bytes = std::move(restamped.value());
      cp.images[i].captured_at = stored.value().captured_at;
    }
    checkpoints_.push_back(std::move(cp));
    metrics_.captures.inc();
  }

  // Apply due mutations in id order.
  std::vector<Mutation> due;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->applied_at <= barrier) {
      due.push_back(*it);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(due.begin(), due.end(),
            [](const Mutation& a, const Mutation& b) { return a.id < b.id; });
  run_on_workers([this, barrier, &due](std::size_t w) {
    for (std::size_t i = w; i < homes_.size(); i += nthreads_) {
      if (homes_[i] == nullptr) continue;  // hibernated: no mutation targets it
      Home& h = *homes_[i];
      telemetry::ScopedMetricRegistry scope(h.registry);
      for (const Mutation& m : due) {
        if (m.home == kAllHomes || m.home == h.id) apply_mutation(h, m);
      }
      h.scenario->loop().run_until(barrier);
    }
  });

  // Hibernation pass, only on the capture-aligned grid: due Hibernate verbs
  // plus the policy's deterministic eviction selection.
  if (aligned_barrier(barrier)) {
    std::vector<std::uint8_t> evict(homes_.size(), 0);
    for (const Mutation& m : due) {
      if (m.kind != MutateKind::Hibernate) continue;
      if (m.home == kAllHomes) {
        for (std::size_t i = 0; i < homes_.size(); ++i) evict[i] = 1;
      } else if (m.home < homes_.size()) {
        evict[m.home] = 1;
      }
    }
    for (const std::size_t id : residency_.select_evictions(barrier)) {
      evict[id] = 1;
    }
    bool any_evict = false;
    for (std::size_t i = 0; i < homes_.size(); ++i) {
      if (evict[i] && homes_[i] == nullptr) evict[i] = 0;  // already out
      any_evict |= evict[i] != 0;
    }
    if (any_evict) {
      // The hibernation image's FTAG id is the barrier itself: unique per
      // pass without consuming checkpoint capture ids (a checkpoint restamps
      // the tag anyway when it reuses the image).
      run_on_workers([this, barrier, &evict](std::size_t w) {
        for (std::size_t i = w; i < homes_.size(); i += nthreads_) {
          if (evict[i]) hibernate_on_worker(i, /*capture_id=*/barrier);
        }
      });
      for (std::size_t i = 0; i < homes_.size(); ++i) {
        if (evict[i]) (void)finish_hibernate(i, barrier);
      }
    }
  }

  now_ = barrier;
  metrics_.steps.inc();
  return now_;
}

void LiveFleet::advance_to(Timestamp t) {
  while (now_ < t) step();
}

bool LiveFleet::aligned_barrier(Timestamp barrier) const {
  return barrier > kBootSettle &&
         (barrier - kBootSettle) % kCheckpointAlign == 0;
}

void LiveFleet::touch(std::uint32_t home) {
  if (home >= config_.homes) return;
  std::lock_guard<std::mutex> lock(touch_mu_);
  touched_.push_back(home);
}

void LiveFleet::hibernate_on_worker(std::size_t id, std::uint64_t capture_id) {
  {
    Home& h = *homes_[id];
    telemetry::ScopedMetricRegistry scope(h.registry);
    HibernateOut out;
    h.ftag.value() = snapshot::CaptureTag{
        capture_id, static_cast<std::uint32_t>(id),
        static_cast<std::uint32_t>(homes_.size())};
    out.image = h.scenario->router().snapshots().capture();
    out.frozen.scalars = h.registry.scalars();
    h.registry.add_scalars(out.frozen.exact, /*exact_only=*/true);
    for (const auto& d : h.scenario->devices()) {
      out.frozen.device_macs[d.name] = d.host->mac().to_string();
    }
    out.frozen.device_count = h.device_count;
    out.next_wakeup = h.scenario->loop().next_event_at();
    hstage_[id] = std::move(out);
  }
  // Teardown on the owner worker: timers and apps cancel their loop events
  // from the thread that owns the loop.
  homes_[id].reset();
}

bool LiveFleet::finish_hibernate(std::size_t id, Timestamp barrier) {
  if (!hstage_[id]) return false;
  HibernateOut out = std::move(*hstage_[id]);
  hstage_[id].reset();
  if (auto s = store_.put(id, out.image); !s.ok()) {
    HW_LOG_ERROR(kLog, "hibernate of home %zu failed to store image: %s", id,
                 s.error().message.c_str());
  }
  residency_.on_hibernated(id, barrier, out.next_wakeup);
  frozen_[id] = std::move(out.frozen);
  return true;
}

void LiveFleet::finish_wake(std::size_t id, Timestamp barrier) {
  wake_images_[id].reset();
  if (homes_[id] == nullptr) return;
  if (!homes_[id]->error.empty()) {
    HW_LOG_ERROR(kLog, "home %zu woke with restore error: %s", id,
                 homes_[id]->error.c_str());
  }
  residency_.on_resumed(id, barrier, wake_ns_[id]);
  frozen_[id].reset();
  store_.erase(id);
}

void LiveFleet::refresh_telemetry() {
  if (!started_) return;
  const Timestamp at = now_;
  std::vector<std::uint8_t> wake(homes_.size(), 0);
  bool any = false;
  for (std::size_t i = 0; i < homes_.size(); ++i) {
    if (homes_[i] != nullptr) continue;
    auto img = store_.get(i);
    if (!img) continue;
    // A home hibernated at this very barrier is already current: its frozen
    // scalars were harvested after the quiesce. Waking it would capture off
    // the aligned grid (the post-restore drain advances the loop 1 ms).
    if (img.value().captured_at >= at) continue;
    wake_images_[i] = std::move(img.value());
    wake[i] = 1;
    any = true;
  }
  if (!any) return;
  // On the aligned grid each woken home re-hibernates right after the
  // harvest (the worker pages homes through one at a time, so peak residency
  // stays near resident + workers); off-grid it must stay resident — a
  // mid-grid capture would break the wake's timer re-arm precondition.
  const bool realign = aligned_barrier(at);
  const std::size_t base = residency_.resident_count();
  run_on_workers([this, at, realign, &wake](std::size_t w) {
    for (std::size_t i = w; i < homes_.size(); i += nthreads_) {
      if (!wake[i]) continue;
      const auto t0 = std::chrono::steady_clock::now();
      build_home(i, &*wake_images_[i]);
      {
        Home& h = *homes_[i];
        telemetry::ScopedMetricRegistry scope(h.registry);
        h.scenario->loop().run_until(at);
      }
      wake_ns_[i] = elapsed_ns(t0);
      if (realign) hibernate_on_worker(i, /*capture_id=*/at);
    }
  });
  for (std::size_t i = 0; i < homes_.size(); ++i) {
    if (!wake[i]) continue;
    wake_images_[i].reset();
    residency_.on_resumed(i, at, wake_ns_[i]);
    if (realign && hstage_[i]) {
      (void)finish_hibernate(i, at);  // replaces the stored image + frozen
    } else {
      frozen_[i].reset();
      store_.erase(i);
    }
  }
  resident_peak_ = std::max(
      resident_peak_,
      realign ? std::min(homes_.size(), base + nthreads_)
              : residency_.resident_count());
}

void LiveFleet::apply_mutation(Home& h, const Mutation& m) {
  auto& api = h.scenario->router().control_api();
  switch (m.kind) {
    case MutateKind::Admit: {
      auto* dev = h.scenario->device(m.text);
      if (dev == nullptr) return;
      h.scenario->permit(m.text);
      dev->host->start_dhcp();
      return;
    }
    case MutateKind::Expel: {
      auto* dev = h.scenario->device(m.text);
      if (dev == nullptr) return;
      homework::HttpRequest req;
      req.method = "POST";
      req.path = "/api/devices/" + dev->host->mac().to_string() + "/deny";
      (void)api.handle(req);
      return;
    }
    case MutateKind::ApplyPolicy: {
      homework::HttpRequest req;
      req.method = "POST";
      req.path = "/api/policies";
      req.body = m.aux;
      (void)api.handle(req);
      return;
    }
    case MutateKind::RevokePolicy: {
      homework::HttpRequest req;
      req.method = "DELETE";
      req.path = "/api/policies/" + m.text;
      (void)api.handle(req);
      return;
    }
    case MutateKind::InjectFault: {
      const auto kind = parse_fault_kind(m.text);
      if (!kind) return;
      sim::FaultWindow w;
      w.kind = *kind;
      w.start = m.applied_at + static_cast<Duration>(m.arg0);
      w.duration = static_cast<Duration>(m.arg1);
      w.loss = m.aux.empty() ? 0.5 : std::strtod(m.aux.c_str(), nullptr);
      h.faults->inject(w);
      return;
    }
    case MutateKind::Checkpoint:
    case MutateKind::Pause:
    case MutateKind::Resume:
    case MutateKind::Step:
    case MutateKind::Replay:
    case MutateKind::Hibernate:
    case MutateKind::Wake:
      return;  // fleet/server-level verbs; nothing to do per home
  }
}

void LiveFleet::update_gauges(Home& h) {
  std::size_t bound = 0;
  for (auto& d : h.scenario->devices()) {
    if (d.host->ip()) ++bound;
  }
  std::size_t block_flows = 0;
  std::uint64_t block_drops = 0;
  auto& table = h.scenario->router().datapath().table();
  table.for_each([&](const ofp::FlowEntry& e) {
    if (e.priority != 0x9100) return;  // reconciler's kPolicyBlockPriority
    ++block_flows;
    block_drops += e.packet_count;
  });
  h.gauges->devices_bound.set(static_cast<std::int64_t>(bound));
  h.gauges->flow_entries.set(static_cast<std::int64_t>(table.size()));
  h.gauges->block_flows.set(static_cast<std::int64_t>(block_flows));
  h.gauges->block_drops.set(static_cast<std::int64_t>(block_drops));
}

std::map<std::string, double> LiveFleet::merged(bool exact_only) const {
  // Merge in home-id order: fixed accumulation order keeps the totals
  // bit-identical at any thread count.
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < homes_.size(); ++i) {
    if (homes_[i] != nullptr) {
      homes_[i]->registry.add_scalars(out, exact_only);
    } else if (frozen_[i]) {
      // Hibernated: the telemetry frozen at hibernation time stands in
      // until the home pages back (refresh_telemetry() brings it current).
      for (const auto& [name, value] :
           exact_only ? frozen_[i]->exact : frozen_[i]->scalars) {
        out[name] += value;
      }
    }
  }
  return out;
}

std::map<std::string, double> LiveFleet::scalars(std::uint32_t home) const {
  if (home == kAllHomes) return merged(/*exact_only=*/false);
  if (home >= homes_.size()) return {};
  if (homes_[home] != nullptr) return homes_[home]->registry.scalars();
  return frozen_[home] ? frozen_[home]->scalars
                       : std::map<std::string, double>{};
}

std::map<std::string, double> LiveFleet::fingerprint() const {
  return merged(/*exact_only=*/true);
}

LiveHomeStatus LiveFleet::status(std::uint32_t home) const {
  LiveHomeStatus s;
  if (home >= homes_.size()) return s;
  if (homes_[home] == nullptr) {
    s.hibernated = true;
    if (!frozen_[home]) return s;
    const Frozen& f = *frozen_[home];
    s.devices = f.device_count;
    const auto gauge = [&f](const char* name) -> std::uint64_t {
      const auto it = f.scalars.find(name);
      return it != f.scalars.end() && it->second > 0
                 ? static_cast<std::uint64_t>(it->second)
                 : 0;
    };
    s.devices_bound = gauge("live.home.devices_bound");
    s.flow_entries = gauge("live.home.flow_entries");
    s.block_flows = gauge("live.home.block_flows");
    s.block_drops = gauge("live.home.block_drops");
    s.attack_sent = gauge("live.home.attack_sent");
    return s;
  }
  const Home& h = *homes_[home];
  s.devices = h.device_count;
  const auto gauge = [&h](const char* name) -> std::uint64_t {
    const auto v = h.registry.total(name);
    return v && *v > 0 ? static_cast<std::uint64_t>(*v) : 0;
  };
  s.devices_bound = gauge("live.home.devices_bound");
  s.flow_entries = gauge("live.home.flow_entries");
  s.block_flows = gauge("live.home.block_flows");
  s.block_drops = gauge("live.home.block_drops");
  s.attack_sent = gauge("live.home.attack_sent");
  return s;
}

std::string LiveFleet::device_mac(std::uint32_t home,
                                  const std::string& name) const {
  if (home >= homes_.size()) return {};
  if (homes_[home] == nullptr) {
    if (!frozen_[home]) return {};
    const auto it = frozen_[home]->device_macs.find(name);
    return it != frozen_[home]->device_macs.end() ? it->second
                                                  : std::string{};
  }
  for (auto& d : homes_[home]->scenario->devices()) {
    if (d.name == name) return d.host->mac().to_string();
  }
  return {};
}

Result<std::map<std::string, double>> LiveFleet::replay_fingerprint(
    LiveConfig config, const FleetCheckpoint& cp,
    const std::vector<Mutation>& full_log, Timestamp until,
    std::size_t threads) {
  config.threads = threads;
  LiveFleet replica(config);
  std::vector<Mutation> tail;
  for (const Mutation& m : full_log) {
    if (m.id > cp.mutation_id) tail.push_back(m);
  }
  if (auto s = replica.resume(cp, std::move(tail)); !s.ok()) {
    return s.error();
  }
  replica.advance_to(until);
  // Bring any home the replica's residency policy still has paged out
  // current before fingerprinting.
  replica.refresh_telemetry();
  return replica.fingerprint();
}

}  // namespace hw::live

#include "core/multi_session_host.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/spsc_ring.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"

namespace airfinger::core {

namespace {
/// A queue record is `kRecordHeader + channels` 64-bit words: the lane
/// index, the feed()-time ingest stamp, then the frame's samples, bit-cast
/// from double so they round-trip exactly.
constexpr std::size_t kRecordHeader = 2;

/// Wall clock for the shard telemetry and the ingest stamps. Deliberately
/// NOT the session's injectable clock: queue wait and busy fractions
/// describe real scheduling on this machine, are exposed only behind
/// include_load_series, and must never add reads to the per-session
/// clock sequence (which the determinism goldens pin).
std::uint64_t host_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A lane's faulted flag is written by its consumer and polled by its
/// feeder (see FeedSlot).
bool load_flag(bool& flag) {
  return std::atomic_ref<bool>(flag).load(std::memory_order_relaxed);
}
void raise_flag(bool& flag) {
  std::atomic_ref<bool>(flag).store(true, std::memory_order_relaxed);
}

// ------------------------------------------------------- shard telemetry

/// Per-shard utilization registry (DESIGN.md §18). Written by exactly one
/// thread — the shard's worker, or the caller thread for the inline
/// pseudo-shard — and read only at quiescence, so it follows the same
/// single-writer discipline as the per-session registries. Series are
/// shard-index-named (there are no labels) and merged into
/// aggregate_metrics() only under include_load_series, keeping the default
/// exposition shard-count-invariant.
struct ShardStats {
  obs::Registry registry;
  obs::Registry::Handle parks, unparks, frames_drained, drain_batches,
      idle_passes, busy_ns, parked_ns;
  obs::Registry::Handle batch_hist, wait_hist;

  explicit ShardStats(std::size_t shard_index) {
    const std::string p = "af_shard" + std::to_string(shard_index) + "_";
    parks = registry.counter(p + "parks_total",
                             "Times this shard's worker parked idle.");
    unparks = registry.counter(p + "unparks_total",
                               "Times this shard's worker was woken.");
    frames_drained =
        registry.counter(p + "frames_drained_total",
                         "Frames this shard popped off its ingest queue.");
    drain_batches = registry.counter(
        p + "drain_batches_total",
        "Batches popped: the records found queued at one look.");
    idle_passes = registry.counter(
        p + "idle_passes_total",
        "Looks at the shard's queue that found nothing queued.");
    busy_ns = registry.counter(
        p + "busy_ns_total",
        "Wall nanoseconds spent inside draining batches.");
    parked_ns = registry.counter(
        p + "parked_ns_total",
        "Wall nanoseconds spent parked waiting for frames.");
    batch_hist = registry.histogram(
        p + "drain_batch_frames",
        "Frames consumed per non-empty batch.",
        obs::HistogramSpec{1.0, 1024.0, 20});
    wait_hist = registry.histogram(
        p + "queue_wait_ns",
        "Queue residency of the oldest frame in each batch, from its "
        "feed()-time ingest stamp.",
        obs::HistogramSpec{});
  }
};
}  // namespace

// --------------------------------------------------------------- shard

/// One shard: its ingest queue, the producer's and the consumer's scratch,
/// and the park/unpark synchronization between its worker thread, the
/// shard's feeder, and the host's quiesce(). Inline mode keeps shard 0
/// with no worker: the caller is its consumer.
///
/// The parking protocol is a Dekker handshake over the `parked` flag: the
/// worker sets `parked`, issues a seq_cst fence, and re-checks the queue —
/// while the feeder pushes a record, issues a seq_cst fence, and checks
/// `parked`. The paired fences guarantee at least one side sees the other,
/// so a record can never land unseen in a parked shard's queue (no lost
/// wakeup) and the worker never parks while work is visible. The mutex is
/// only taken when a park or unpark actually happens — the steady-state
/// feed/drain path is lock-free.
struct MultiSessionHost::Shard {
  Shard(std::size_t index, std::size_t frames, std::size_t channels)
      : queue(frames * (kRecordHeader + channels)),
        push_record(kRecordHeader + channels),
        pop_record(kRecordHeader + channels),
        frame(channels),
        stats(index) {}

  /// Records of pop_record.size() words; capacity is ring_frames records
  /// per lane hashed to the shard.
  common::SpscRing<std::uint64_t> queue;

  // ---- producer side: the shard's one feeder.
  alignas(64) std::vector<std::uint64_t> push_record;  ///< Assembly scratch.

  // ---- consumer side: the worker (inline mode: the caller).
  alignas(64) std::vector<std::uint64_t> pop_record;
  std::vector<double> frame;   ///< Decoded samples of pop_record.
  std::size_t high_water = 0;  ///< Largest batch, in frames.
  ShardStats stats;            ///< Consumer-written telemetry.

  std::mutex m;
  std::condition_variable cv;       ///< Wakes the parked worker.
  std::condition_variable idle_cv;  ///< Wakes quiesce().
  bool stop = false;                ///< Guarded by m.

  // Blocked feeders spin-poll `parked`; its own line keeps that polling
  // off the consumer's fields and off the next shard in the array.
  alignas(64) std::atomic<bool> parked{false};
};

// ---------------------------------------------------------------- lane

MultiSessionHost::Lane::Lane(std::size_t idx,
                             std::shared_ptr<const ModelBundle> bundle,
                             FaultPolicy policy)
    : index(idx), session(std::in_place, std::move(bundle), policy) {
  events.reserve(16);
  sink = [this](const GestureEvent& e) {
    events.push_back(SessionEvent{index, e});
  };
  // Stamp exported traces with the lane index, so a merged Perfetto view
  // groups spans per stream. Pure metadata: no clock reads, no series.
  session->observability().set_stream_id(idx);
}

// --------------------------------------------------------- construction

MultiSessionHost::MultiSessionHost(std::shared_ptr<const ModelBundle> bundle,
                                   std::size_t sessions)
    : MultiSessionHost(bundle, sessions,
                       bundle ? bundle->config().fault_policy
                              : FaultPolicy{},
                       HostConfig{}) {}

MultiSessionHost::MultiSessionHost(std::shared_ptr<const ModelBundle> bundle,
                                   std::size_t sessions, FaultPolicy policy)
    : MultiSessionHost(std::move(bundle), sessions, policy, HostConfig{}) {}

MultiSessionHost::MultiSessionHost(std::shared_ptr<const ModelBundle> bundle,
                                   std::size_t sessions, FaultPolicy policy,
                                   HostConfig config)
    : bundle_(std::move(bundle)), config_(config), policy_(policy) {
  AF_EXPECT(bundle_ != nullptr, "MultiSessionHost requires a model bundle");
  AF_EXPECT(sessions >= 1, "MultiSessionHost requires at least one session");
  AF_EXPECT(config_.ring_frames >= 1,
            "MultiSessionHost ring capacity must be >= 1 frame");
  channels_ = bundle_->config().channels;

  shard_count_ = config_.shards != 0 ? config_.shards
                                     : common::current_thread_count();
  shard_count_ = std::clamp<std::size_t>(shard_count_, 1, sessions);

  lanes_.reserve(sessions);
  feed_slots_.resize(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    lanes_.push_back(std::make_unique<Lane>(i, bundle_, policy_));
    feed_slots_[i].shard = static_cast<std::uint32_t>(i % shard_count_);
  }

  shards_.reserve(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const std::size_t lanes = (sessions - s + shard_count_ - 1) / shard_count_;
    shards_.push_back(
        std::make_unique<Shard>(s, config_.ring_frames * lanes, channels_));
  }

  if (shard_count_ < 2) return;  // inline mode: no worker threads at all
  workers_.reserve(shard_count_);
  for (std::size_t s = 0; s < shard_count_; ++s)
    workers_.emplace_back([this, s] { worker_loop(*shards_[s]); });
}

MultiSessionHost::~MultiSessionHost() {
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.m);
    shard.stop = true;
    shard.parked.store(false, std::memory_order_relaxed);
    shard.cv.notify_one();
  }
  for (auto& worker : workers_) worker.join();
}

// ------------------------------------------------------- worker / drain

std::size_t MultiSessionHost::drain_queue(Shard& shard) const {
  const std::size_t batch = shard.queue.size() / shard.pop_record.size();
  if (batch == 0) return 0;
  shard.high_water = std::max(shard.high_water, batch);
  ShardStats& stats = shard.stats;
  const std::uint64_t t0 = host_now_ns();
  for (std::size_t k = 0; k < batch; ++k) {
    shard.queue.try_pop(shard.pop_record);  // cannot fail: `batch` queued
    const std::uint64_t* record = shard.pop_record.data();
    // One queue-wait sample per batch: its first (oldest) record, which
    // bounds the residency of everything behind it.
    if (k == 0)
      stats.registry.observe(
          stats.wait_hist,
          t0 > record[1] ? static_cast<double>(t0 - record[1]) : 0.0);
    const auto index = static_cast<std::size_t>(record[0]);
    Lane& lane = *lanes_[index];
    FeedSlot& slot = feed_slots_[index];
    if (slot.retired || load_flag(slot.faulted)) {
      // Quarantined or retired: count what the lane can no longer process
      // so dropped totals stay exact.
      ++lane.dropped;
      continue;
    }
    for (std::size_t c = 0; c < shard.frame.size(); ++c)
      shard.frame[c] = std::bit_cast<double>(record[kRecordHeader + c]);
    // Quarantine this lane only; shard siblings never observe the fault.
    // Latch the session's flight recorder first: the last-N events and
    // traces around the throwing frame are the post-mortem artifact.
    const auto quarantine = [&](std::string fault) {
      lane.session->observability().capture_postmortem(
          obs::FlightReason::kLaneFault, lane.processed);
      lane.fault = std::move(fault);
      raise_flag(slot.faulted);
      ++lane.dropped;  // the frame that threw
    };
    try {
      lane.session->push_frame(shard.frame, lane.sink);
      ++lane.processed;
    } catch (const std::exception& e) {
      quarantine(e.what());
    } catch (...) {
      quarantine("unknown stream fault");
    }
  }
  stats.registry.inc(stats.frames_drained, batch);
  stats.registry.inc(stats.drain_batches);
  stats.registry.observe(stats.batch_hist, static_cast<double>(batch));
  stats.registry.inc(stats.busy_ns, host_now_ns() - t0);
  return batch;
}

void MultiSessionHost::worker_loop(Shard& shard) {
  ShardStats& stats = shard.stats;
  for (;;) {
    if (drain_queue(shard) != 0) continue;
    stats.registry.inc(stats.idle_passes);

    std::unique_lock<std::mutex> lock(shard.m);
    if (shard.stop) return;
    shard.parked.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!shard.queue.empty()) {
      // A record raced in between the drain and the park: un-park and go
      // get it (the fence pairing with feed() makes this check reliable).
      shard.parked.store(false, std::memory_order_relaxed);
      continue;
    }
    stats.registry.inc(stats.parks);
    const std::uint64_t park_t0 = host_now_ns();
    shard.idle_cv.notify_all();
    shard.cv.wait(lock, [&] {
      return shard.stop || !shard.parked.load(std::memory_order_relaxed);
    });
    stats.registry.inc(stats.parked_ns, host_now_ns() - park_t0);
    stats.registry.inc(stats.unparks);
    if (shard.stop) return;
  }
}

void MultiSessionHost::quiesce() const {
  if (workers_.empty()) {
    // Inline mode: the caller is the consumer, so the barrier IS the
    // drain (through the shard's own indirection; see the header note).
    drain_queue(*shards_.front());
    return;
  }
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::unique_lock<std::mutex> lock(shard.m);
    shard.idle_cv.wait(lock, [&] {
      return shard.parked.load(std::memory_order_relaxed) &&
             shard.queue.empty();
    });
  }
}

// ------------------------------------------------------------ streaming

bool MultiSessionHost::feed(std::size_t session,
                            std::span<const double> frame) {
  AF_EXPECT(session < feed_slots_.size(), "session index out of range");
  AF_EXPECT(frame.size() == channels_,
            "frame carries " + std::to_string(frame.size()) +
                " samples but the host expects " +
                std::to_string(channels_) + " channels");
  FeedSlot& slot = feed_slots_[session];
  if (slot.retired) {
    ++slot.rejected;
    return false;
  }
  if (load_flag(slot.faulted)) {
    // Isolation: the producer keeps streaming; the lane just counts what
    // it can no longer process.
    ++slot.dropped;
    return false;
  }

  Shard& shard = *shards_[slot.shard];
  std::uint64_t* record = shard.push_record.data();
  record[0] = session;
  // Ingest stamp: lets the consumer turn this record's queue residency
  // into the measured queue_wait stage.
  record[1] = host_now_ns();
  for (std::size_t c = 0; c < channels_; ++c)
    record[kRecordHeader + c] = std::bit_cast<std::uint64_t>(frame[c]);

  if (workers_.empty()) {
    // Inline mode: the caller is the consumer. A full queue under kBlock
    // is drained in place (deterministic: every lane's frames in feed
    // order).
    if (!shard.queue.try_push(shard.push_record)) {
      if (config_.admission == Admission::kReject) {
        ++slot.rejected;
        return false;
      }
      ++slot.blocked;
      drain_queue(shard);
      if (load_flag(slot.faulted)) {
        ++slot.dropped;
        return false;
      }
      // The queue was just emptied; cannot fail.
      shard.queue.try_push(shard.push_record);
    }
    return true;
  }

  if (!shard.queue.try_push(shard.push_record)) {
    if (config_.admission == Admission::kReject) {
      ++slot.rejected;
      return false;
    }
    // Lossless backpressure: wait for the shard worker to make room. The
    // worker cannot be parked while this queue is full (it only parks on
    // an empty queue, and the fence pairing below closes the race), so
    // spin and yield rather than sleep — but re-wake it defensively anyway
    // in case it parked between our failed push and now.
    ++slot.blocked;
    std::size_t spins = 0;
    for (;;) {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (shard.parked.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(shard.m);
        shard.parked.store(false, std::memory_order_relaxed);
        shard.cv.notify_one();
      }
      if (load_flag(slot.faulted)) {
        // The lane died while we waited; its queued records are being
        // discarded.
        ++slot.dropped;
        return false;
      }
      if (shard.queue.try_push(shard.push_record)) break;
      if (++spins >= 64) std::this_thread::yield();
    }
  }

  // Dekker publish: make the push visible to a parking worker, or see its
  // parked flag — one of the two is guaranteed (see Shard).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (shard.parked.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(shard.m);
    shard.parked.store(false, std::memory_order_relaxed);
    shard.cv.notify_one();
  }
  return true;
}

void MultiSessionHost::pump() { quiesce(); }

void MultiSessionHost::finish() {
  quiesce();
  // All workers are parked with empty queues (streaming) or the queue was
  // drained (inline), so the caller owns every lane's consumer side until
  // the next feed().
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = *lanes_[i];
    FeedSlot& slot = feed_slots_[i];
    if (slot.retired || load_flag(slot.faulted)) continue;
    try {
      lane.session->finish(lane.sink);
    } catch (const std::exception& e) {
      lane.fault = e.what();
      raise_flag(slot.faulted);
    } catch (...) {
      lane.fault = "unknown stream fault";
      raise_flag(slot.faulted);
    }
  }
}

std::vector<SessionEvent> MultiSessionHost::drain() {
  quiesce();
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->events.size();
  std::vector<SessionEvent> out;
  out.reserve(total);
  for (auto& lane : lanes_) {
    out.insert(out.end(), std::make_move_iterator(lane->events.begin()),
               std::make_move_iterator(lane->events.end()));
    lane->events.clear();
  }
  return out;
}

std::uint64_t MultiSessionHost::frames_processed() const {
  quiesce();
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->processed;
  return total;
}

// --------------------------------------------------- session lifecycle

std::size_t MultiSessionHost::add_session() {
  quiesce();
  const std::size_t index = lanes_.size();
  lanes_.push_back(std::make_unique<Lane>(index, bundle_, policy_));
  feed_slots_.emplace_back().shard =
      static_cast<std::uint32_t>(index % shard_count_);
  // The shard is quiescent — its queue empty, its worker (if any) parked —
  // so the owner may re-size the queue. The worker's next un-park takes
  // the shard mutex, which orders it after the resize.
  Shard& shard = *shards_[feed_slots_.back().shard];
  std::lock_guard<std::mutex> lock(shard.m);
  shard.queue.resize(shard.queue.capacity() +
                     config_.ring_frames * shard.pop_record.size());
  return index;
}

void MultiSessionHost::remove_session(std::size_t i) {
  AF_EXPECT(i < lanes_.size(), "session index out of range");
  quiesce();
  FeedSlot& slot = feed_slots_[i];
  if (slot.retired) return;
  Lane& lane = *lanes_[i];
  if (lane.session.has_value()) {
    lane.final_health = lane.session->health();
    lane.final_metrics =
        lane.session->observability().registry().snapshot();
  }
  slot.retired = true;
  lane.session.reset();  // frees the per-stream buffers
}

bool MultiSessionHost::session_retired(std::size_t i) const {
  AF_EXPECT(i < lanes_.size(), "session index out of range");
  return feed_slots_[i].retired;
}

// ------------------------------------------------------- health / views

const MultiSessionHost::Lane& MultiSessionHost::lane_at(
    std::size_t i) const {
  AF_EXPECT(i < lanes_.size(), "session index out of range");
  return *lanes_[i];
}

const Session& MultiSessionHost::session(std::size_t i) const {
  const Lane& lane = lane_at(i);
  quiesce();
  AF_EXPECT(lane.session.has_value(),
            "session " + std::to_string(i) + " is retired");
  return *lane.session;
}

Session& MultiSessionHost::mutable_session(std::size_t i) {
  AF_EXPECT(i < lanes_.size(), "session index out of range");
  quiesce();
  Lane& lane = *lanes_[i];
  AF_EXPECT(lane.session.has_value(),
            "session " + std::to_string(i) + " is retired");
  return *lane.session;
}

bool MultiSessionHost::session_faulted(std::size_t i) const {
  AF_EXPECT(i < lanes_.size(), "session index out of range");
  quiesce();
  return load_flag(feed_slots_[i].faulted);
}

const std::string& MultiSessionHost::session_fault(std::size_t i) const {
  const Lane& lane = lane_at(i);
  quiesce();
  return lane.fault;
}

std::uint64_t MultiSessionHost::dropped_frames(std::size_t i) const {
  const Lane& lane = lane_at(i);
  quiesce();
  return feed_slots_[i].dropped + lane.dropped;
}

std::uint64_t MultiSessionHost::rejected_frames(std::size_t i) const {
  AF_EXPECT(i < lanes_.size(), "session index out of range");
  return feed_slots_[i].rejected;
}

std::uint64_t MultiSessionHost::blocked_feeds(std::size_t i) const {
  AF_EXPECT(i < lanes_.size(), "session index out of range");
  return feed_slots_[i].blocked;
}

std::size_t MultiSessionHost::faulted_count() const {
  quiesce();
  std::size_t n = 0;
  for (FeedSlot& slot : feed_slots_)
    if (load_flag(slot.faulted)) ++n;
  return n;
}

HealthStats MultiSessionHost::aggregate_health() const {
  quiesce();
  HealthStats total;
  for (const auto& lane : lanes_)
    total += lane->session.has_value() ? lane->session->health()
                                       : lane->final_health;
  return total;
}

ShardTelemetry MultiSessionHost::shard_telemetry(std::size_t shard) const {
  AF_EXPECT(shard < shard_count_, "shard index out of range");
  quiesce();
  const Shard& sh = *shards_[shard];
  ShardTelemetry t;
  t.shard = shard;
  for (std::size_t i = shard; i < feed_slots_.size(); i += shard_count_)
    if (!feed_slots_[i].retired) ++t.lanes;
  t.occupancy_high_water = sh.high_water;
  const ShardStats& stats = sh.stats;
  const obs::Registry& r = stats.registry;
  t.parks = r.counter_value(stats.parks);
  t.unparks = r.counter_value(stats.unparks);
  t.frames_drained = r.counter_value(stats.frames_drained);
  t.drain_batches = r.counter_value(stats.drain_batches);
  t.idle_passes = r.counter_value(stats.idle_passes);
  t.busy_ns = r.counter_value(stats.busy_ns);
  t.parked_ns = r.counter_value(stats.parked_ns);
  // Quantiles come off a snapshot: histogram_quantile() works on entries,
  // and a telemetry read is far off the hot path.
  const obs::MetricsSnapshot snap = r.snapshot();
  for (const obs::MetricEntry& e : snap.entries) {
    if (e.type != obs::MetricEntry::Type::kHistogram) continue;
    if (e.name.ends_with("_drain_batch_frames"))
      t.drain_batch_p50 = obs::histogram_quantile(e, 0.5);
    else if (e.name.ends_with("_queue_wait_ns")) {
      t.queue_wait_p50_ns = obs::histogram_quantile(e, 0.5);
      t.queue_wait_p99_ns = obs::histogram_quantile(e, 0.99);
    }
  }
  return t;
}

obs::MetricsSnapshot MultiSessionHost::aggregate_metrics(
    bool include_load_series) const {
  quiesce();
  const auto lane_snapshot = [](const Lane& lane) {
    return lane.session.has_value()
               ? lane.session->observability().registry().snapshot()
               : lane.final_metrics;
  };
  obs::MetricsSnapshot total = lane_snapshot(*lanes_.front());
  for (std::size_t i = 1; i < lanes_.size(); ++i)
    total.add_from(lane_snapshot(*lanes_[i]));

  std::uint64_t processed = 0, dropped = 0, rejected = 0, blocked = 0;
  std::size_t retired = 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const FeedSlot& slot = feed_slots_[i];
    processed += lanes_[i]->processed;
    dropped += slot.dropped + lanes_[i]->dropped;
    rejected += slot.rejected;
    blocked += slot.blocked;
    if (slot.retired) ++retired;
  }

  const auto gauge = [&total](std::string name, std::string help, double v) {
    obs::MetricEntry e;
    e.type = obs::MetricEntry::Type::kGauge;
    e.name = std::move(name);
    e.help = std::move(help);
    e.value = v;
    total.entries.push_back(std::move(e));
  };
  const auto counter = [&total](std::string name, std::string help,
                                std::uint64_t v) {
    obs::MetricEntry e;
    e.type = obs::MetricEntry::Type::kCounter;
    e.name = std::move(name);
    e.help = std::move(help);
    e.count = v;
    total.entries.push_back(std::move(e));
  };
  gauge("af_host_sessions", "Lanes configured on this host.",
        static_cast<double>(lanes_.size()));
  gauge("af_host_faulted_sessions",
        "Lanes currently quarantined by the host.",
        static_cast<double>(faulted_count()));
  gauge("af_host_retired_sessions",
        "Lanes retired by remove_session().",
        static_cast<double>(retired));
  counter("af_host_frames_processed_total",
          "Frames processed across all lanes.", processed);
  counter("af_host_dropped_frames_total",
          "Frames discarded because their lane was faulted or retired.",
          dropped);
  counter("af_host_rejected_frames_total",
          "Frames refused by admission control (full queue under kReject) "
          "or fed to a retired lane.",
          rejected);
  if (include_load_series) {
    // Scheduling-dependent series: real occupancy and contention, which
    // legitimately vary with shard count and machine load. Opt-in so the
    // default exposition keeps the thread-count-invariance contract
    // (DESIGN.md §13) that af_stats and the determinism suite rely on.
    std::size_t high_water = 0;
    for (const auto& shard : shards_)
      high_water = std::max(high_water, shard->high_water);
    gauge("af_host_shards", "Worker shards driving the lanes.",
          static_cast<double>(shard_count_));
    gauge("af_host_ring_capacity_frames",
          "Ingest queue capacity per lane, in frames.",
          static_cast<double>(config_.ring_frames));
    gauge("af_host_ring_high_water_frames",
          "Highest per-shard ingest queue occupancy observed, in frames.",
          static_cast<double>(high_water));
    counter("af_host_blocked_feeds_total",
            "feed() calls that waited for queue space under kBlock.",
            blocked);
    // Per-shard utilization (DESIGN.md §18): each shard's telemetry
    // registry appended whole, in shard order, plus its occupancy gauge.
    // Series are shard-index-named, so the merged snapshot stays uniquely
    // keyed.
    for (std::size_t s = 0; s < shard_count_; ++s) {
      obs::MetricsSnapshot shard_snap = shards_[s]->stats.registry.snapshot();
      for (auto& entry : shard_snap.entries)
        total.entries.push_back(std::move(entry));
      gauge("af_shard" + std::to_string(s) + "_occupancy_high_water_frames",
            "Highest occupancy of this shard's ingest queue, in frames.",
            static_cast<double>(shards_[s]->high_water));
    }
  }
  gauge("af_bundle_load_seconds",
        "Wall-clock time load() spent verifying and parsing the bundle.",
        static_cast<double>(bundle_->load_ns()) * 1e-9);
  return total;
}

std::vector<SessionEvent> MultiSessionHost::run_round_robin(
    const std::vector<sensor::MultiChannelTrace>& traces,
    std::size_t frames_per_turn) {
  AF_EXPECT(traces.size() == lanes_.size(),
            "round-robin needs exactly one trace per session");
  AF_EXPECT(frames_per_turn >= 1, "frames_per_turn must be >= 1");
  const std::size_t channels = channels_;
  for (const auto& trace : traces)
    AF_EXPECT(trace.channel_count() == channels,
              "trace carries " + std::to_string(trace.channel_count()) +
                  " channels but the host expects " +
                  std::to_string(channels));

  std::vector<std::size_t> cursor(traces.size(), 0);
  std::vector<double> frame(channels);
  bool pending_input = true;
  while (pending_input) {
    pending_input = false;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const std::size_t total = traces[i].sample_count();
      const std::size_t take =
          std::min(frames_per_turn, total - cursor[i]);
      for (std::size_t f = 0; f < take; ++f) {
        for (std::size_t c = 0; c < channels; ++c)
          frame[c] = traces[i].channel(c)[cursor[i] + f];
        feed(i, frame);
      }
      cursor[i] += take;
      if (cursor[i] < total) pending_input = true;
    }
    // No per-turn barrier: shard workers classify concurrently while the
    // next turn is fed; queue backpressure throttles the fan-out. (Inline
    // mode drains under feed pressure and in the final finish().)
  }
  finish();
  return drain();
}

}  // namespace airfinger::core

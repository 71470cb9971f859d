// Sharded multi-stream serving host: N Sessions over one shared
// ModelBundle, hashed across S worker shards.
//
// The host models the production shape the ROADMAP aims at — one resident
// copy of the trained forests serving thousands of concurrent wearable
// streams. Each session (lane) is hashed to a shard (`index % shards`);
// each shard owns one bounded FIFO ingest queue (common/spsc_ring.hpp)
// whose records carry (lane index, ingest stamp, samples), and one
// long-lived worker thread that pops those records in order and pushes
// each into its lane's Session. The producer's `feed()` appends to the
// lane's shard queue and so overlaps with parallel classification instead
// of alternating with it behind a fork/join barrier. `pump()` is an epoch
// barrier: it returns once every frame fed so far has been processed and
// all workers are parked, which is when the aggregate views
// (drain/metrics/health) are coherent.
//
// Determinism (DESIGN.md §9/§14): sessions are fully independent and each
// lane's frames are processed in feed order by exactly one thread (its
// shard's consumer), so a lane's emission stream is a pure function of its
// input — independent of shard count, thread count, queue capacity, and
// scheduling. drain() defines the total order as (session index, emission
// order), which no scheduling can perturb. The host is bit-identical
// across shard counts, including the shardless inline mode (shards == 1:
// no threads at all, the caller pops the queue).
//
// Backpressure & admission (DESIGN.md §14): queues are bounded, and
// admission applies per shard. When a shard's queue is full,
// Admission::kBlock (default, lossless) makes feed() wait for the shard
// worker to make room (in inline mode the caller drains the whole queue in
// place), while Admission::kReject makes feed() refuse the frame and count
// it against its lane. Per-lane rejected/blocked counters and per-shard
// occupancy surface through aggregate_metrics() and shard_telemetry().
//
// Fault isolation (DESIGN.md §12): a lane whose session throws — a corrupt
// stream in strict mode, say — is marked faulted and quarantined by the
// host instead of poisoning its shard. Its records still in the queue are
// discarded (and counted) when they reach the head, later feeds are
// dropped, and sibling lanes are untouched: their emissions stay
// bit-identical to a run without the faulting neighbour, at any shard
// count.
//
// Threading contract: pump(), finish(), drain(), the lifecycle calls, and
// every read accessor belong to ONE owner thread (the producer). Reads and
// lifecycle mutations quiesce the shards internally, so they are always
// coherent. feed() is normally called from that same owner thread; in
// *threaded* mode (shard_count() >= 2) it may additionally be called from
// several producer threads concurrently, provided each shard has at most
// one feeder at a time — a shard's queue is single-producer, and feed()
// otherwise touches only the lane's feed slot plus its shard's park
// flag. (Inline mode drains on the feeding thread: single feeder only.)
// The owner-thread calls may resume only after the extra feeders are
// joined (an external happens-before edge).
// HostSharding.ParallelFeedersAreBitIdenticalToInlineHost
// (tests/host_shard_test.cpp) drives this pattern under TSan.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"

namespace airfinger::core {

/// One engine event attributed to the stream that produced it.
struct SessionEvent {
  std::size_t session = 0;  ///< Index of the emitting session.
  GestureEvent event;
};

/// Point-in-time utilization view of one worker shard (DESIGN.md §18).
/// All fields are scheduling-dependent — they describe how the load was
/// actually served, so they legitimately vary across machines, runs, and
/// shard counts (unlike the emission stream, which never does). Counters
/// are cumulative since construction; in inline mode (one shard, no
/// workers) the caller thread plays the worker: its drains count as busy
/// time, and parks / parked time stay 0. A batch is the run of records the
/// consumer found queued when it last looked at the shard's queue; it pops
/// exactly those before looking again.
struct ShardTelemetry {
  std::size_t shard = 0;             ///< Shard index.
  std::size_t lanes = 0;             ///< Live lanes hashed to it.
  std::uint64_t parks = 0;           ///< Worker park events.
  std::uint64_t unparks = 0;         ///< Worker wake events.
  std::uint64_t frames_drained = 0;  ///< Frames this shard popped.
  std::uint64_t drain_batches = 0;   ///< Non-empty batches.
  std::uint64_t idle_passes = 0;     ///< Looks that found nothing queued.
  std::uint64_t busy_ns = 0;         ///< Wall time inside batches.
  std::uint64_t parked_ns = 0;       ///< Wall time parked on the cv.
  double drain_batch_p50 = 0.0;      ///< Median frames per batch.
  double queue_wait_p50_ns = 0.0;    ///< Median queue residency (ns).
  double queue_wait_p99_ns = 0.0;    ///< Tail queue residency (ns).
  /// Largest batch: the most frames the consumer ever found queued on the
  /// shard. Exact in inline mode, where the caller drains only at pump()
  /// or on a full queue; a lower bound on the true peak while a worker
  /// drains concurrently.
  std::size_t occupancy_high_water = 0;

  /// Fraction of accounted wall time spent draining (busy vs parked).
  /// 0 when nothing was accounted yet.
  double busy_fraction() const {
    const double accounted =
        static_cast<double>(busy_ns) + static_cast<double>(parked_ns);
    return accounted > 0.0 ? static_cast<double>(busy_ns) / accounted : 0.0;
  }
};

/// What feed() does when a shard's ingest queue is full.
enum class Admission : std::uint8_t {
  kBlock = 0,  ///< Lossless: wait for the consumer to make room.
  kReject,     ///< Bounded-latency: refuse the frame and count it.
};

/// Host shape: shard/ring/admission configuration, fixed at construction.
struct HostConfig {
  /// Worker shards. 0 resolves to common::current_thread_count() (so
  /// AF_THREADS / ScopedThreads govern the host like every other parallel
  /// component); the resolved count is capped at the session count.
  /// 1 selects inline mode: no worker threads, frames are drained on the
  /// caller thread — the bit-identical single-thread reference.
  std::size_t shards = 0;
  /// Ingest queue capacity per lane, in frames (>= 1): a shard's queue
  /// holds ring_frames × (lanes hashed to the shard) frames, and grows
  /// with add_session(). The default, 16, is 160 ms of 100 Hz input per
  /// lane.
  std::size_t ring_frames = 16;
  Admission admission = Admission::kBlock;
};

/// Drives many Sessions over one immutable bundle.
class MultiSessionHost {
 public:
  /// Creates `sessions` independent streams sharing `bundle` (no forest
  /// copies; per-stream state only). Each session uses the bundle's
  /// configured fault policy.
  MultiSessionHost(std::shared_ptr<const ModelBundle> bundle,
                   std::size_t sessions);

  /// Same, with an explicit fault policy applied to every session.
  MultiSessionHost(std::shared_ptr<const ModelBundle> bundle,
                   std::size_t sessions, FaultPolicy policy);

  /// Full control over policy and host shape.
  MultiSessionHost(std::shared_ptr<const ModelBundle> bundle,
                   std::size_t sessions, FaultPolicy policy,
                   HostConfig config);

  /// Joins the shard workers; any still-queued frames are discarded.
  ~MultiSessionHost();

  MultiSessionHost(const MultiSessionHost&) = delete;
  MultiSessionHost& operator=(const MultiSessionHost&) = delete;

  std::size_t session_count() const { return lanes_.size(); }
  /// Worker shards actually running (1 in inline mode).
  std::size_t shard_count() const { return shard_count_; }
  const HostConfig& host_config() const { return config_; }
  const std::shared_ptr<const ModelBundle>& bundle() const {
    return bundle_;
  }

  /// Quiesces the shards, then returns the lane's session. The lane must
  /// not be retired.
  const Session& session(std::size_t i) const;

  /// Mutable lane access for observability configuration (clock injection,
  /// span toggling) before driving the host. Quiesces first. Must not be
  /// used to push frames directly — feed()/pump() own the streaming
  /// contract.
  Session& mutable_session(std::size_t i);

  /// Enqueues one frame (one sample per channel) for stream `session` on
  /// its shard's ingest queue; the shard worker classifies it
  /// concurrently (inline mode: on the next pump(), or when the queue
  /// fills under kBlock). Returns true when the frame was accepted. False
  /// means the frame was refused and counted: the lane is faulted
  /// (dropped_frames), retired, or its shard's queue was full under
  /// Admission::kReject (rejected_frames). Under kBlock a full queue
  /// blocks until the worker makes room instead.
  bool feed(std::size_t session, std::span<const double> frame);

  /// Epoch barrier: returns once every frame fed so far has been fully
  /// processed and all shard workers are parked. After pump() the host is
  /// quiescent: drain(), metrics, and health views are coherent and
  /// complete.
  void pump();

  /// Quiesces, then flushes any open segment on every healthy session.
  void finish();

  /// Quiesces, then moves out all queued events in the deterministic
  /// (session index, emission order) total order and clears the queues.
  std::vector<SessionEvent> drain();

  /// Frames fully processed so far, across all sessions (quiesces).
  std::uint64_t frames_processed() const;

  // --------------------------------------------------- session lifecycle

  /// Adds one lane (quiesces first), hashed to shard `index % shards`,
  /// and grows that shard's queue by ring_frames. Returns the new session
  /// index. O(1) against the shared bundle.
  std::size_t add_session();

  /// Retires a lane between epochs (quiesces first, so nothing of it is
  /// still queued): captures the session's final health/metrics for the
  /// aggregate views and frees its per-stream state. The index stays
  /// valid (indices are stable); feeding a retired lane counts into
  /// rejected_frames(). Idempotent.
  void remove_session(std::size_t i);

  /// True when the lane was retired by remove_session().
  bool session_retired(std::size_t i) const;

  // ------------------------------------------------------- stream health

  /// True when the lane's session threw during processing and was
  /// quarantined by the host.
  bool session_faulted(std::size_t i) const;

  /// what() of the exception that quarantined the lane ("" while healthy).
  const std::string& session_fault(std::size_t i) const;

  /// Frames discarded because the lane could no longer process them:
  /// queued input that reached the head of the queue after the fault plus
  /// everything fed afterwards.
  std::uint64_t dropped_frames(std::size_t i) const;

  /// Frames refused by admission control (shard queue full under
  /// Admission::kReject) or fed to a retired lane.
  std::uint64_t rejected_frames(std::size_t i) const;

  /// feed() calls that had to wait for queue space under Admission::kBlock.
  std::uint64_t blocked_feeds(std::size_t i) const;

  /// Number of currently faulted lanes.
  std::size_t faulted_count() const;

  /// Sum of every session's HealthStats (faulted lanes contribute their
  /// counters up to the fault, retired lanes their final counters).
  HealthStats aggregate_health() const;

  /// Host-wide metrics view (DESIGN.md §13/§14): every session's registry
  /// summed in place in deterministic lane order (index-wise saturating adds
  /// over the shared schema; retired lanes contribute the registry kept at
  /// retirement) and snapshotted once, followed by host-level series — lane /
  /// fault / retire counts, frames processed, dropped, and rejected. Those are
  /// all deterministic, so the default exposition keeps the repo-wide
  /// invariance contract: byte-identical at any thread or shard count.
  /// `include_load_series` appends the scheduling-dependent load series too —
  /// shard count, per-lane queue share, the highest per-shard occupancy,
  /// blocked feeds, and the per-shard utilization series (af_shard<i>_*: parks,
  /// busy/parked time, batch sizes, queue wait, occupancy) — which legitimately
  /// vary across machines and runs. Quiesces the shards first, so the view is
  /// coherent.
  obs::MetricsSnapshot aggregate_metrics(
      bool include_load_series = false) const;

  /// Per-shard utilization counters (quiesces first): park/unpark counts,
  /// busy vs parked wall time, drained frame/batch totals with a batch
  /// size median, queue-wait quantiles from the records' ingest stamps,
  /// and the shard queue's occupancy high-water. Inline mode exposes
  /// shard 0 (the caller-thread pseudo-shard). DESIGN.md §18.
  ShardTelemetry shard_telemetry(std::size_t shard) const;

  /// Convenience driver: one trace per session, fanned out round-robin —
  /// each turn feeds up to `frames_per_turn` frames to every stream that
  /// still has input, emulating interleaved arrival from N concurrent
  /// wearables; shard workers classify concurrently under queue
  /// backpressure. Finishes all streams and returns the drained events.
  std::vector<SessionEvent> run_round_robin(
      const std::vector<sensor::MultiChannelTrace>& traces,
      std::size_t frames_per_turn = 64);

 private:
  /// Per-lane state that feed() reads or writes, kept apart from the
  /// Session-holding Lane in one dense per-host array so a feed touches
  /// only its shard's queue tail and one small slot. `faulted` is set by
  /// the lane's consumer and polled by its feeder, so both go through
  /// std::atomic_ref; everything else belongs to the lane's feeder
  /// (`retired` flips only at quiescence). A plain struct, so the array
  /// can grow in add_session().
  struct FeedSlot {
    bool faulted = false;
    bool retired = false;
    std::uint32_t shard = 0;     ///< index % shard count, kept for feed().
    std::uint64_t rejected = 0;  ///< Admission rejects + retired feeds.
    std::uint64_t blocked = 0;   ///< feed() waits under kBlock.
    std::uint64_t dropped = 0;   ///< Feeds refused after the fault.
  };

  /// Consumer-side lane state: owned by the lane's shard worker (or the
  /// caller thread in inline mode / at quiescence). Line-aligned, with what
  /// every frame touches first: `processed`, the sink push_frame() checks
  /// and the session, whose hot block opens the object, so the drain loop
  /// prefetches one contiguous range per lane (prefetch_hot()).
  struct alignas(64) Lane {
    Lane(std::size_t index, std::shared_ptr<const ModelBundle> bundle,
         FaultPolicy policy);

    /// Hints the lines from `processed` through the session's hot block.
    /// Touches no lane state, so it is safe on a retired lane.
    void prefetch_hot() const;

    const std::size_t index;
    std::uint64_t processed = 0;  ///< Frames classified successfully.
    Session::EventCallback sink;  ///< Appends to `events`; built once.
    std::optional<Session> session;
    std::vector<SessionEvent> events;
    std::uint64_t dropped = 0;    ///< Queued records discarded after a fault.
    std::string fault;            ///< what() of the quarantining exception.

    // ---- captured by remove_session() before the session is freed.
    HealthStats final_health;
    obs::Registry final_metrics;  ///< Shares the session schema.
  };

  struct Shard;  // queue, worker parking and telemetry (in the .cpp)

  /// Pops the records queued on `shard` when it is called and pushes each
  /// into its lane's session, or discards and counts it when the lane is
  /// faulted or retired. Returns the number of records popped. The caller
  /// must own the shard's consumer side. A lane fault dumps the session's
  /// flight recorder and quarantines the lane. Looks ahead within the
  /// batch: two records ahead it prefetches that lane's hot range, one
  /// record ahead the heap lines its next frame touches (DESIGN.md §19).
  std::size_t drain_queue(Shard& shard) const;

  void worker_loop(Shard& shard);
  /// The epoch barrier behind pump() and every read accessor: blocks until
  /// each shard worker is parked with an empty queue — or, in inline mode,
  /// drains the queue on the caller. Either way, on return every frame fed
  /// so far has been fully processed. Const because the logical host state
  /// it leaves behind is exactly what the caller already requested by
  /// feeding; lanes and shards are reached through their own indirection.
  void quiesce() const;
  const Lane& lane_at(std::size_t i) const;

  std::shared_ptr<const ModelBundle> bundle_;
  HostConfig config_;
  std::size_t shard_count_ = 1;
  std::size_t channels_ = 0;
  FaultPolicy policy_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// One per lane, dense. Mutable: quiesce() is logically const, but the
  /// inline drain it performs may quarantine a lane.
  mutable std::vector<FeedSlot> feed_slots_;
  /// Always shard_count_ entries; inline mode has shard 0 and no worker.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
};

}  // namespace airfinger::core

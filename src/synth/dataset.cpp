#include "synth/dataset.hpp"

#include <algorithm>
#include <memory>
#include <cmath>
#include <set>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace airfinger::synth {

std::vector<int> Dataset::user_ids() const {
  std::set<int> ids;
  for (const auto& s : samples) ids.insert(s.user_id);
  return {ids.begin(), ids.end()};
}

std::vector<int> Dataset::session_ids() const {
  std::set<int> ids;
  for (const auto& s : samples) ids.insert(s.session_id);
  return {ids.begin(), ids.end()};
}

DatasetBuilder::DatasetBuilder(CollectionConfig config)
    : config_(std::move(config)) {
  AF_EXPECT(config_.users >= 1, "at least one user required");
  AF_EXPECT(config_.sessions >= 1, "at least one session required");
  AF_EXPECT(config_.repetitions >= 1, "at least one repetition required");
  AF_EXPECT(!config_.kinds.empty(), "at least one motion kind required");
  AF_EXPECT(!config_.session_hours.empty(), "session hours must be set");
}

std::vector<UserProfile> DatasetBuilder::roster() const {
  common::Rng rng(config_.seed);
  std::vector<UserProfile> users;
  users.reserve(static_cast<std::size_t>(config_.users));
  for (int u = 0; u < config_.users; ++u)
    users.push_back(UserProfile::sample(u, rng));
  return users;
}

SessionContext DatasetBuilder::make_session(int session_id,
                                            common::Rng& rng) const {
  const double hour =
      config_.fixed_hour.value_or(config_.session_hours[static_cast<
          std::size_t>(session_id) % config_.session_hours.size()]);
  return SessionContext::sample(session_id, hour, rng);
}

GestureSample DatasetBuilder::record_one(MotionKind kind,
                                         const UserProfile& user,
                                         const SessionContext& session,
                                         int repetition,
                                         common::Rng& rng) const {
  ScenarioSpec spec;
  spec.kind = kind;
  spec.user = user;
  spec.session = session;
  spec.repetition = RepetitionJitter::sample(rng);
  spec.activity = config_.activity;
  spec.non_dominant_hand = config_.non_dominant_hand;
  spec.interference = config_.interference;
  spec.standoff_override_m = config_.standoff_override_m;
  if (is_track_aimed(kind) &&
      rng.bernoulli(config_.partial_scroll_probability))
    spec.partial_extent = rng.uniform(0.35, 0.55);

  const Scenario sc = make_scenario(spec, rng);

  // Session ambient conditions: time of day plus a per-repetition drift
  // phase so consecutive repetitions do not share the exact flicker.
  sensor::PrototypeSpec proto_spec = config_.prototype;
  proto_spec.ambient.hour_of_day = session.hour_of_day;
  proto_spec.ambient.drift_phase = rng.uniform(0.0, 6.28318);

  // Adjustable amplifier (the paper's Sec. VI): the acquisition chain
  // calibrates its gain against the idle reflection level so the 10-bit
  // converter neither rails at close standoffs nor starves at far ones.
  // Target: idle at ~30% of full scale.
  if (config_.auto_gain) {
    sensor::Prototype probe(proto_spec);
    const auto idle = sc.provider(0.0);
    std::vector<double> analog;
    if (proto_spec.front_end.lock_in) {
      analog = probe.scene()
                   .evaluate_components(idle.patches, 0.0)
                   .emitted;
    } else {
      analog = probe.scene().evaluate(idle.patches, 0.0);
    }
    double peak = 0.0;
    for (double v : analog) peak = std::max(peak, v);
    if (peak > 0.0) {
      const double target_v = 0.30 * proto_spec.adc.vref;
      proto_spec.adc.gain =
          std::clamp(target_v / peak, 4.0, 250.0);
    }
  }
  sensor::Prototype prototype(proto_spec);

  GestureSample sample;
  sample.trace = prototype.record(sc.provider, sc.duration_s, rng);
  sample.kind = kind;
  sample.user_id = user.user_id;
  sample.session_id = session.session_id;
  sample.repetition = repetition;
  sample.gesture_start_s = sc.gesture_start_s;
  sample.gesture_end_s = sc.gesture_end_s;
  sample.standoff_m = sc.params.standoff_m;
  sample.scroll = sc.scroll;
  return sample;
}

Dataset DatasetBuilder::collect() const {
  const common::Rng master(config_.seed);
  const std::vector<UserProfile> users = roster();
  const std::size_t kinds = config_.kinds.size();
  const std::size_t reps = static_cast<std::size_t>(config_.repetitions);
  const std::size_t sessions = static_cast<std::size_t>(config_.sessions);

  // Indexed RNG splitting instead of serial stream consumption: user u gets
  // stream u of the master, session s gets stream s of the user, and every
  // repetition gets its own stream of the session (id 0 is reserved for the
  // session context itself). Each repetition is therefore a pure function
  // of (seed, u, s, kind, rep), so recording order — and thread count — can
  // never change a single sample bit.
  struct WorkItem {
    const UserProfile* user = nullptr;
    const SessionContext* session = nullptr;
    MotionKind kind = MotionKind::kCircle;
    int repetition = 0;
    common::Rng rng;
  };

  std::vector<SessionContext> session_contexts;
  session_contexts.reserve(users.size() * sessions);
  std::vector<WorkItem> items;
  items.reserve(users.size() * sessions * kinds * reps);
  for (std::size_t u = 0; u < users.size(); ++u) {
    const common::Rng user_rng = master.split(u);
    for (std::size_t sess = 0; sess < sessions; ++sess) {
      const common::Rng sess_rng = user_rng.split(sess);
      common::Rng ctx_rng = sess_rng.split(0);
      session_contexts.push_back(
          make_session(static_cast<int>(sess), ctx_rng));
      const SessionContext* session = &session_contexts.back();
      for (std::size_t k = 0; k < kinds; ++k) {
        for (std::size_t rep = 0; rep < reps; ++rep) {
          items.push_back({&users[u], session, config_.kinds[k],
                           static_cast<int>(rep),
                           sess_rng.split(1 + k * reps + rep)});
        }
      }
    }
  }

  Dataset out;
  out.samples.resize(items.size());
  common::parallel_for(0, items.size(), [&](std::size_t i) {
    WorkItem& item = items[i];
    out.samples[i] = record_one(item.kind, *item.user, *item.session,
                                item.repetition, item.rng);
  });
  return out;
}

GestureStream make_gesture_stream(const CollectionConfig& config,
                                  const std::vector<MotionKind>& kinds,
                                  std::uint64_t seed) {
  AF_EXPECT(!kinds.empty(), "stream requires at least one gesture");
  common::Rng rng(seed);
  DatasetBuilder builder(config);
  const auto users = builder.roster();
  const UserProfile& user = users.front();
  const SessionContext session = SessionContext::sample(0, 11.0, rng);

  // One continuous recording: a single acquisition chain (one auto-gain
  // calibration, one ambient realization) sees the whole episode, exactly
  // like a live device would. Scenario providers are sequenced in time.
  std::vector<Scenario> scenarios;
  std::vector<double> offsets;
  double total = 0.0;
  for (MotionKind kind : kinds) {
    ScenarioSpec spec;
    spec.kind = kind;
    spec.user = user;
    spec.session = session;
    spec.repetition = RepetitionJitter::sample(rng);
    spec.activity = config.activity;
    spec.non_dominant_hand = config.non_dominant_hand;
    spec.interference = config.interference;
    spec.standoff_override_m = config.standoff_override_m;
    offsets.push_back(total);
    scenarios.push_back(make_scenario(spec, rng));
    total += scenarios.back().duration_s;
  }

  auto shared = std::make_shared<std::vector<Scenario>>(std::move(scenarios));
  auto shared_offsets = std::make_shared<std::vector<double>>(offsets);
  sensor::SceneStateProvider provider = [shared,
                                         shared_offsets](double t) {
    std::size_t idx = shared->size() - 1;
    for (std::size_t i = 0; i + 1 < shared_offsets->size(); ++i) {
      if (t < (*shared_offsets)[i + 1]) {
        idx = i;
        break;
      }
    }
    if (shared_offsets->size() == 1) idx = 0;
    return (*shared)[idx].provider(t - (*shared_offsets)[idx]);
  };

  sensor::PrototypeSpec proto_spec = config.prototype;
  proto_spec.ambient.hour_of_day = session.hour_of_day;
  proto_spec.ambient.drift_phase = rng.uniform(0.0, 6.28318);
  if (config.auto_gain) {
    sensor::Prototype probe(proto_spec);
    const auto idle = provider(0.0);
    std::vector<double> analog;
    if (proto_spec.front_end.lock_in) {
      analog = probe.scene()
                   .evaluate_components(idle.patches, 0.0)
                   .emitted;
    } else {
      analog = probe.scene().evaluate(idle.patches, 0.0);
    }
    double peak = 0.0;
    for (double v : analog) peak = std::max(peak, v);
    if (peak > 0.0)
      proto_spec.adc.gain =
          std::clamp(0.30 * proto_spec.adc.vref / peak, 4.0, 250.0);
  }
  sensor::Prototype prototype(proto_spec);

  GestureStream stream;
  const double rate = proto_spec.sample_rate_hz;
  stream.trace = prototype.record(provider, total, rng);
  for (std::size_t i = 0; i < shared->size(); ++i) {
    const double start = (*shared_offsets)[i] + (*shared)[i].gesture_start_s;
    const double end = (*shared_offsets)[i] + (*shared)[i].gesture_end_s;
    stream.gesture_bounds.emplace_back(
        static_cast<std::size_t>(std::llround(start * rate)),
        static_cast<std::size_t>(std::llround(end * rate)));
  }
  stream.kinds = kinds;
  return stream;
}

}  // namespace airfinger::synth

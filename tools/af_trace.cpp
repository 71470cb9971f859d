// af_trace — replay a recorded trace and emit its gesture span trees.
//
//   af_trace --input tests/golden/circle.aftrace
//   af_trace --input run.aftrace --model models.af --out run.trace.json
//
// Runs one committed `.aftrace` recording through the full streaming path
// (Session::process_trace, every frame span-traced) and prints the
// gesture-scoped trace tree each candidate segment produced: the per-frame
// and per-decision stage spans, emission markers, outcome, and end-to-end
// first-frame→emission latency (DESIGN.md §18). --out additionally writes
// the traces as Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing.
//
// The session runs under a deterministic TickClock by default, so both the
// text report and the exported JSON are byte-identical across runs and
// machines — tools/run_checks.sh relies on that. Pass
// --tick-ns 0 for real wall-clock spans instead.
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "core/session.hpp"
#include "core/trainer.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "sensor/trace_io.hpp"

using namespace airfinger;

namespace {

std::shared_ptr<const core::ModelBundle> obtain_bundle(
    const std::string& path, std::uint64_t seed) {
  if (!path.empty()) return core::ModelBundle::load_file(path);
  core::TrainerConfig trainer;
  trainer.users = 2;
  trainer.sessions = 1;
  trainer.repetitions = 3;
  trainer.non_gesture_repetitions = 3;
  trainer.seed = seed;
  return core::build_bundle(trainer);
}

void print_spans(const char* label, const obs::TraceSpan* spans,
                 std::size_t count) {
  if (count == 0) return;
  std::cout << "  " << label << ":\n";
  for (std::size_t i = 0; i < count; ++i)
    std::cout << "    " << obs::trace_stage_name(spans[i].stage) << " t0="
              << spans[i].t0_ns << "ns dur=" << spans[i].dur_ns << "ns\n";
}

void print_trace(const obs::GestureTrace& t) {
  std::cout << "trace " << t.trace_id << ": segment [" << t.begin << ", "
            << t.end << ") frames [" << t.open_frame << ", "
            << t.close_frame << "] outcome=" << obs::outcome_name(t.outcome);
  if (t.e2e_ns() >= 0) std::cout << " e2e=" << t.e2e_ns() << "ns";
  if (t.spans_dropped != 0)
    std::cout << " spans_dropped=" << t.spans_dropped;
  std::cout << "\n";
  print_spans("frame spans", t.frame_spans.data(), t.frame_span_count);
  print_spans("decide spans", t.decide_spans.data(), t.decide_span_count);
  if (t.mark_count != 0) {
    std::cout << "  emissions:\n";
    for (std::size_t i = 0; i < t.mark_count; ++i)
      std::cout << "    type=" << static_cast<int>(t.marks[i].emit_type)
                << " frame=" << t.marks[i].frame << " t="
                << t.marks[i].t_ns << "ns\n";
  }
}

int run(int argc, char** argv) {
  common::Cli cli("af_trace",
                  "replay a recorded trace and emit its gesture span trees");
  cli.add_flag("input", "", "recorded .aftrace file to replay (required)");
  cli.add_flag("model", "",
               "afbundle artifact to serve (empty: train the small "
               "reference bundle in-process)");
  cli.add_flag("seed", "11", "training seed for the in-process bundle");
  cli.add_flag("tick-ns", "1000",
               "deterministic clock step per read in ns (0: real clock)");
  cli.add_flag("out", "",
               "write the traces as Chrome trace-event JSON to this path "
               "(loadable in Perfetto / chrome://tracing)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string input = cli.get("input");
  AF_EXPECT(!input.empty(), "--input is required");
  std::ifstream in(input, std::ios::binary);
  AF_EXPECT(static_cast<bool>(in), "cannot open " + input);
  const sensor::MultiChannelTrace trace = sensor::parse_trace(in);
  AF_EXPECT(trace.sample_count() > 0, input + " holds no samples");

  const auto bundle = obtain_bundle(
      cli.get("model"), static_cast<std::uint64_t>(cli.get_int("seed")));
  core::Session session(bundle);
  auto& obs = session.observability();
  obs.set_sample_every(1);  // offline analysis: span-trace every frame
  const auto tick_ns = static_cast<std::uint64_t>(cli.get_int("tick-ns"));
  if (tick_ns > 0) obs.set_clock(std::make_unique<obs::TickClock>(tick_ns));

  const auto events = session.process_trace(trace);
  const obs::TraceRecorder& recorder = obs.tracer();
  const std::vector<obs::GestureTrace> completed = recorder.completed();

  std::cout << "af_trace: " << input << " — " << trace.sample_count()
            << " frames, " << events.size() << " emissions, "
            << recorder.completed_total() << " gesture trace(s) ("
            << completed.size() << " retained, " << recorder.dropped()
            << " evicted)\n";
  for (const obs::GestureTrace& t : completed) print_trace(t);

  const std::string out_path = cli.get("out");
  if (!out_path.empty()) {
    std::vector<obs::SessionTraces> sessions;
    sessions.push_back(obs::SessionTraces{recorder.stream(), completed});
    std::ofstream out(out_path, std::ios::binary);
    AF_EXPECT(out.good(), "cannot open --out path " + out_path);
    obs::write_chrome_trace(out, sessions);
    std::cerr << "af_trace: wrote " << completed.size()
              << " trace(s) to " << out_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return airfinger::common::run_main(argc, argv, run);
}

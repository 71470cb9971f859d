#include "synth/io.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/csv.hpp"
#include "common/error.hpp"

namespace airfinger::synth {

namespace {

std::string format_double(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

double parse_double(const std::string& field, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  AF_EXPECT(end != field.c_str(),
            std::string("dataset CSV: malformed ") + what);
  return v;
}

int parse_int(const std::string& field, const char* what) {
  return static_cast<int>(parse_double(field, what));
}

}  // namespace

void save_dataset_csv(const Dataset& dataset, const std::string& path) {
  AF_EXPECT(!dataset.samples.empty(), "cannot save an empty dataset");
  const std::size_t channels = dataset.samples.front().trace.channel_count();

  std::vector<std::string> header{
      "sample",          "kind",         "user",
      "session",         "repetition",   "gesture_start_s",
      "gesture_end_s",   "standoff_m",   "scroll_dir",
      "scroll_vel_mps",  "scroll_disp_m", "frame"};
  // Appended, not `"p" + std::to_string(...)`: that prepend trips a GCC 12
  // -Wrestrict false positive inside std::string::insert.
  for (std::size_t c = 0; c < channels; ++c)
    header.push_back(std::string("p").append(std::to_string(c + 1)));
  common::CsvWriter csv(path, header);

  for (std::size_t idx = 0; idx < dataset.samples.size(); ++idx) {
    const auto& s = dataset.samples[idx];
    AF_EXPECT(s.trace.channel_count() == channels,
              "dataset mixes channel counts");
    for (std::size_t frame = 0; frame < s.trace.sample_count(); ++frame) {
      std::vector<std::string> row{
          std::to_string(idx),
          std::to_string(static_cast<int>(s.kind)),
          std::to_string(s.user_id),
          std::to_string(s.session_id),
          std::to_string(s.repetition),
          format_double(s.gesture_start_s),
          format_double(s.gesture_end_s),
          format_double(s.standoff_m),
          s.scroll ? format_double(s.scroll->direction) : "",
          s.scroll ? format_double(s.scroll->mean_velocity_mps) : "",
          s.scroll ? format_double(s.scroll->displacement_m) : "",
          std::to_string(frame)};
      for (std::size_t c = 0; c < channels; ++c)
        row.push_back(format_double(s.trace.channel(c)[frame]));
      csv.write_row(row);
    }
  }
}

Dataset load_dataset_csv(const std::string& path, double sample_rate_hz) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_dataset_csv: cannot open " + path);

  std::string line;
  AF_EXPECT(static_cast<bool>(std::getline(in, line)),
            "dataset CSV is empty");
  const auto header = common::csv_split(line);
  AF_EXPECT(header.size() > 12 && header[0] == "sample" &&
                header[11] == "frame",
            "unrecognized dataset CSV header");
  const std::size_t channels = header.size() - 12;

  Dataset dataset;
  long long current = -1;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = common::csv_split(line);
    AF_EXPECT(fields.size() == header.size(),
              "dataset CSV row arity mismatch");
    const long long sample_idx = parse_int(fields[0], "sample index");
    if (sample_idx != current) {
      AF_EXPECT(sample_idx == current + 1,
                "dataset CSV sample indices must be contiguous");
      current = sample_idx;
      GestureSample s;
      s.trace = sensor::MultiChannelTrace(channels, sample_rate_hz);
      s.kind = static_cast<MotionKind>(parse_int(fields[1], "kind"));
      s.user_id = parse_int(fields[2], "user");
      s.session_id = parse_int(fields[3], "session");
      s.repetition = parse_int(fields[4], "repetition");
      s.gesture_start_s = parse_double(fields[5], "gesture_start_s");
      s.gesture_end_s = parse_double(fields[6], "gesture_end_s");
      s.standoff_m = parse_double(fields[7], "standoff_m");
      if (!fields[8].empty()) {
        ScrollTruth truth;
        truth.direction = parse_double(fields[8], "scroll_dir");
        truth.mean_velocity_mps = parse_double(fields[9], "scroll_vel");
        truth.displacement_m = parse_double(fields[10], "scroll_disp");
        truth.duration_s = s.gesture_end_s - s.gesture_start_s;
        s.scroll = truth;
      }
      dataset.samples.push_back(std::move(s));
    }
    std::vector<double> frame(channels);
    for (std::size_t c = 0; c < channels; ++c)
      frame[c] = parse_double(fields[12 + c], "channel value");
    dataset.samples.back().trace.push_frame(frame);
  }
  AF_EXPECT(!dataset.samples.empty(), "dataset CSV contains no samples");
  return dataset;
}

}  // namespace airfinger::synth

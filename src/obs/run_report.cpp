#include "obs/run_report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/json_string.hpp"

namespace dmp::obs {

namespace {

std::string json_number(double v) {
  // to_chars would happily render "inf"/"nan", which is not JSON — empty
  // RunningStats/Histogram extrema arrive here as ±inf sentinels.
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 12);
  if (ec != std::errc{}) return "null";
  return std::string(buf, ptr);
}

// Appends `"key":value` pairs of a name-sorted map as one JSON object.
template <typename Map, typename Render>
void append_object(std::string& out, const Map& map, Render render) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    render(out, value);
  }
  out += '}';
}

}  // namespace

void RunReport::set_scalar(const std::string& key, double v) {
  meta_[key] = json_number(v);
}

void RunReport::set_scalar(const std::string& key, std::int64_t v) {
  meta_[key] = std::to_string(v);
}

void RunReport::set_text(const std::string& key, const std::string& v) {
  std::string quoted;
  append_json_string(quoted, v);
  meta_[key] = std::move(quoted);
}

void RunReport::set_series(const std::string& key,
                           const std::vector<double>& v) {
  series_[key] = v;
}

std::string RunReport::to_json(const MetricsRegistry* registry) const {
  std::string out = "{\n\"meta\":";
  append_object(out, meta_,
                [](std::string& o, const std::string& v) { o += v; });
  out += ",\n\"series\":";
  append_object(out, series_, [](std::string& o, const std::vector<double>& v) {
    o += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) o += ',';
      o += json_number(v[i]);
    }
    o += ']';
  });
  out += ",\n\"counters\":";
  if (registry) {
    append_object(out, registry->counters(),
                  [](std::string& o, const Counter& c) {
                    o += std::to_string(c.value());
                  });
  } else {
    out += "{}";
  }
  out += ",\n\"gauges\":";
  if (registry) {
    append_object(out, registry->gauges(), [](std::string& o, const Gauge& g) {
      o += json_number(g.value());
    });
  } else {
    out += "{}";
  }
  out += ",\n\"histograms\":";
  if (registry) {
    append_object(out, registry->histograms(),
                  [](std::string& o, const Histogram& h) {
                    o += "{\"count\":" + std::to_string(h.count());
                    o += ",\"sum\":" + json_number(h.sum());
                    o += ",\"mean\":" + json_number(h.mean());
                    o += ",\"min\":" + json_number(h.min());
                    o += ",\"max\":" + json_number(h.max());
                    o += ",\"p50\":" + json_number(h.quantile(0.50));
                    o += ",\"p90\":" + json_number(h.quantile(0.90));
                    o += ",\"p99\":" + json_number(h.quantile(0.99));
                    o += '}';
                  });
  } else {
    out += "{}";
  }
  out += "\n}\n";
  return out;
}

bool RunReport::write(const std::string& path,
                      const MetricsRegistry* registry) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot open run report output: %s\n",
                 path.c_str());
    return false;
  }
  out << to_json(registry);
  if (!out.flush()) {
    std::fprintf(stderr, "warning: failed writing report: %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace dmp::obs

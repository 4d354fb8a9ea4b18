#include "obs/divergence/divergence.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/json_string.hpp"

namespace dmp::obs {

namespace {

// Same canonical rendering as the report emitters: %.17g round-trips every
// finite double; non-finite values become JSON null.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool DivergencePoint::ok(const DivergenceTolerance& tol) const {
  const double r = residual();
  if (tol.one_sided) return r <= tol.abs;
  if (std::fabs(r) <= tol.abs) return true;
  if (tol.within_ci && std::fabs(r) <= ci_half) return true;
  if (tol.ratio > 1.0 && predicted > 0.0 && measured > 0.0) {
    const double q = predicted / measured;
    if (q >= 1.0 / tol.ratio && q <= tol.ratio) return true;
  }
  return false;
}

DivergenceStats DivergenceSeries::stats() const {
  DivergenceStats s;
  s.count = points.size();
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& p : points) {
    const double r = p.residual();
    sum += r;
    sum_sq += r * r;
    if (!p.ok(tolerance)) ++s.diverged;
    if (std::fabs(r) >= s.max_abs_residual) {
      s.max_abs_residual = std::fabs(r);
      s.worst_setting = p.setting;
      s.worst_x = p.x;
    }
  }
  if (s.count > 0) {
    s.mean_residual = sum / static_cast<double>(s.count);
    s.rms_residual = std::sqrt(sum_sq / static_cast<double>(s.count));
  }
  return s;
}

std::string DivergenceSeries::to_json() const {
  std::string out = "{\"name\": ";
  append_json_string(out, name);
  out += ", \"metric\": ";
  append_json_string(out, metric);
  out += ", \"x_label\": ";
  append_json_string(out, x_label);
  out += ", \"tolerance\": {\"abs\": " + num(tolerance.abs) +
         ", \"ratio\": " + num(tolerance.ratio) +
         ", \"within_ci\": " + (tolerance.within_ci ? "true" : "false") +
         ", \"one_sided\": " + (tolerance.one_sided ? "true" : "false") + "}";
  out += ", \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    if (i) out += ", ";
    out += "{\"setting\": ";
    append_json_string(out, p.setting);
    out += ", \"x\": " + num(p.x);
    out += ", \"predicted\": " + num(p.predicted);
    out += ", \"measured\": " + num(p.measured);
    out += ", \"ci_half\": " + num(p.ci_half);
    out += ", \"residual\": " + num(p.residual());
    out += ", \"ok\": ";
    out += p.ok(tolerance) ? "true" : "false";
    out += "}";
  }
  const auto st = stats();
  out += "], \"stats\": {\"count\": " + std::to_string(st.count) +
         ", \"diverged\": " + std::to_string(st.diverged) +
         ", \"mean_residual\": " + num(st.mean_residual) +
         ", \"rms_residual\": " + num(st.rms_residual) +
         ", \"max_abs_residual\": " + num(st.max_abs_residual) +
         ", \"worst_setting\": ";
  append_json_string(out, st.worst_setting);
  out += ", \"worst_x\": " + num(st.worst_x) + "}}";
  return out;
}

std::string divergence_document_json(
    const std::vector<DivergenceSeries>& series) {
  std::string out = "{\"divergence\": [";
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i) out += ", ";
    out += series[i].to_json();
  }
  out += "]}";
  return out;
}

bool write_divergence_json(const std::vector<DivergenceSeries>& series,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << divergence_document_json(series) << "\n";
  if (!out) {
    std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace dmp::obs

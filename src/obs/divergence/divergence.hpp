// Divergence observatory: model-vs-simulation residual tracking.
//
// The paper's validation figures (4, 5, 9) are all of the form "analytic
// prediction vs packet-level measurement"; historically each bench
// computed that residual inline, printed it, and threw it away.  A
// DivergenceSeries makes the comparison a first-class artifact: every
// (setting, x) point records the prediction, the measurement, the
// measurement's confidence half-width, and the residual, and the series
// carries the tolerance under which a point counts as matching — so the
// question "where does the model hold and where does it break" has a
// structured, diffable, SLO-gateable answer instead of a scrollback one.
//
// Tolerances default to the paper's own match criterion (Section 5):
// the model matches a point when it falls within the simulation's 95% CI
// or within a decade ratio of the simulated mean.  Benches tighten or
// loosen per figure (fig9's bound is one-sided: the late fraction at the
// returned tau must not exceed the target).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dmp::obs {

// How a point's residual is judged.  A point is `ok` when ANY enabled
// clause accepts it; `diverged` otherwise.
struct DivergenceTolerance {
  // |residual| <= abs is always acceptable (set to the simulation's
  // resolution floor: 1 / (mu * duration * runs) for late fractions).
  double abs = 0.0;
  // > 1 enables the decade-style clause: predicted/measured within
  // [1/ratio, ratio] (both strictly positive).  The paper uses 10.
  double ratio = 0.0;
  // Accept |residual| <= ci_half (the measurement's own uncertainty).
  bool within_ci = true;
  // One-sided series (fig9): only residual = measured - predicted > abs
  // diverges; any undershoot is acceptable.
  bool one_sided = false;
};

// One compared point: an analytic prediction against a simulated (or
// Monte-Carlo) measurement at sweep position `x` of setting `setting`.
struct DivergencePoint {
  std::string setting;
  double x = 0.0;          // sweep coordinate (tau_s, loss rate, ...)
  double predicted = 0.0;  // analytic/model value
  double measured = 0.0;   // simulated/measured value
  double ci_half = 0.0;    // 95% half-width of `measured` (0 if unknown)

  double residual() const { return measured - predicted; }
  bool ok(const DivergenceTolerance& tol) const;
};

// Aggregate residual statistics over a series.
struct DivergenceStats {
  std::size_t count = 0;
  std::size_t diverged = 0;
  double mean_residual = 0.0;
  double rms_residual = 0.0;
  double max_abs_residual = 0.0;
  std::string worst_setting;  // point with the largest |residual|
  double worst_x = 0.0;
};

// A named model-vs-measurement comparison for one figure/metric.
struct DivergenceSeries {
  std::string name;     // e.g. "fig4" — the SLO path segment
  std::string metric;   // e.g. "late_fraction_playback"
  std::string x_label;  // e.g. "tau_s"
  DivergenceTolerance tolerance;
  std::vector<DivergencePoint> points;

  void add(std::string setting, double x, double predicted, double measured,
           double ci_half = 0.0) {
    points.push_back(
        {std::move(setting), x, predicted, measured, ci_half});
  }

  DivergenceStats stats() const;

  // Canonical single-line JSON (%.17g numbers, fixed key order): points in
  // insertion order plus the computed stats block.  Equal series produce
  // equal bytes, so divergence sections diff clean across identical runs.
  std::string to_json() const;
};

// {"divergence": [<series>...]} — the standalone artifact shape shared by
// figure benches without an ExperimentReport (fig9) and by the
// `trace_query divergence --json` output.
std::string divergence_document_json(
    const std::vector<DivergenceSeries>& series);

// Writes divergence_document_json to `path`; returns false (after a
// stderr warning) on any I/O failure.
bool write_divergence_json(const std::vector<DivergenceSeries>& series,
                           const std::string& path);

}  // namespace dmp::obs

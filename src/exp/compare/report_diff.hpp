// Structural diff of two run/experiment reports.
//
// Walks two JSON documents (or CSV tables adapted via csv_to_json) field
// by field and classifies every leaf: identical (same bytes / same
// scalar), within-tolerance (numbers whose delta clears the configured
// abs/rel bounds), or diverged — plus the structural classes (present on
// one side only, type mismatch).  Byte-identical inputs therefore produce
// zero non-identical entries, which turns the benches' thread-invariance
// gate ("DMP_THREADS=1 and =8 must emit the same bytes") into a single
// `trace_query diff a b` invocation, and tolerant mode answers the softer
// question "did this refactor move any number by more than epsilon".
//
// Paths use the same dotted syntax as the SLO engine; array elements with
// a "name" member are addressed by it (settings.2-2.metrics.f_tau4), so a
// diff in replication 3 of setting 2-2 reads as a report coordinate, not
// an offset.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exp/compare/json.hpp"

namespace dmp::exp {

enum class DiffClass {
  kIdentical = 0,
  kWithinTolerance,  // numeric, |delta| within abs/rel bounds
  kDiverged,         // numeric beyond tolerance, or unequal non-numerics
  kOnlyLeft,         // key/element missing on the right
  kOnlyRight,        // key/element missing on the left
  kTypeMismatch,     // e.g. number vs string
};

std::string_view diff_class_name(DiffClass c);

struct FieldDiff {
  std::string path;
  DiffClass cls = DiffClass::kIdentical;
  std::string left;   // brief() rendering; "" for the absent side
  std::string right;
  double abs_delta = 0.0;  // numeric diffs only
};

struct DiffOptions {
  double abs_tol = 0.0;
  double rel_tol = 0.0;
  // Path prefixes to skip entirely (e.g. "timing" — wall-clock blocks can
  // never be expected to match across runs).
  std::vector<std::string> ignore;
};

struct DiffResult {
  std::size_t fields_compared = 0;  // leaves visited (both-sided)
  std::size_t identical = 0;
  std::size_t within_tolerance = 0;
  std::vector<FieldDiff> diffs;  // every non-identical entry, walk order

  // True when nothing diverged and no structural mismatch exists —
  // within-tolerance entries do not break cleanliness.
  bool clean() const;
  std::size_t diverged() const;
};

DiffResult diff_reports(const JsonValue& left, const JsonValue& right,
                        const DiffOptions& options = {});

}  // namespace dmp::exp

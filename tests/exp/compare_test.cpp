// Comparison layer: JSON document model, structural report diff, and the
// declarative SLO engine (src/exp/compare/).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/compare/json.hpp"
#include "exp/compare/report_diff.hpp"
#include "exp/compare/slo.hpp"
#include "util/json_string.hpp"

namespace {

using dmp::exp::DiffClass;
using dmp::exp::DiffOptions;
using dmp::exp::JsonValue;
using dmp::exp::SloOp;
using dmp::exp::SloSpec;

const char* kReport = R"({
  "experiment": "fig4",
  "timing": {"wall_s": 1.25, "threads": 8},
  "settings": [
    {"name": "1-1", "metrics": [
      {"name": "f_tau4", "mean": 0.0125, "ci_half": 0.002}
    ]},
    {"name": "2-2", "metrics": [
      {"name": "f_tau4", "mean": 0.05, "ci_half": 0.01}
    ]}
  ],
  "divergence": [
    {"name": "fig4", "stats": {"count": 9, "diverged": 0}}
  ]
})";

// --- JSON parsing ---

TEST(JsonParse, RoundTripsAndPreservesNumberSpelling) {
  const JsonValue doc = dmp::exp::parse_json(kReport);
  ASSERT_TRUE(doc.is_object());
  const JsonValue* wall = doc.find("timing")->find("wall_s");
  ASSERT_NE(wall, nullptr);
  EXPECT_DOUBLE_EQ(wall->number, 1.25);
  EXPECT_EQ(wall->text, "1.25");  // source bytes, not re-rendered

  // Re-serializing and re-parsing is a fixed point.
  const std::string once = doc.to_json();
  EXPECT_EQ(dmp::exp::parse_json(once).to_json(), once);
}

TEST(JsonParse, ScalarsAndEscapes) {
  const JsonValue doc =
      dmp::exp::parse_json(R"({"s": "a\"b\n", "t": true, "f": false,
                              "z": null, "n": -1.5e3})");
  EXPECT_EQ(doc.find("s")->text, "a\"b\n");
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_FALSE(doc.find("f")->boolean);
  EXPECT_TRUE(doc.find("z")->is_null());
  EXPECT_DOUBLE_EQ(doc.find("n")->number, -1500.0);
}

TEST(JsonParse, EscapedControlBytesRoundTrip) {
  std::string raw;
  for (char c = 0x01; c < 0x20; ++c) raw += c;
  raw += "\"\\ plain";
  std::string quoted;
  dmp::append_json_string(quoted, raw);
  EXPECT_EQ(dmp::exp::parse_json(quoted).text, raw);
  std::string doc = "{";
  dmp::append_json_string(doc, raw);
  doc += ": 1}";
  EXPECT_EQ(dmp::exp::parse_json(doc).object.at(0).first, raw);
  // One rendering for every writer: \t and \n short, the rest \u00XX.
  EXPECT_EQ(quoted.substr(43, 34),
            "\\u0008\\t\\n\\u000b\\u000c\\u000d\\u000e");
}

TEST(JsonParse, ThrowsOnMalformedAndTrailingGarbage) {
  EXPECT_THROW(dmp::exp::parse_json("{"), std::runtime_error);
  EXPECT_THROW(dmp::exp::parse_json("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(dmp::exp::parse_json("[1, 2,]"), std::runtime_error);
  EXPECT_THROW(dmp::exp::parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW(dmp::exp::parse_json(""), std::runtime_error);
}

TEST(JsonParse, FileErrorsThrow) {
  EXPECT_THROW(dmp::exp::parse_json_file("no/such/file.json"),
               std::runtime_error);
  const std::string path = "compare_test_empty.json";
  std::ofstream(path).close();
  EXPECT_THROW(dmp::exp::parse_json_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(JsonParse, ResolvePathKeysIndicesAndNames) {
  const JsonValue doc = dmp::exp::parse_json(kReport);
  const JsonValue* by_key = dmp::exp::resolve_path(doc, "timing.threads");
  ASSERT_NE(by_key, nullptr);
  EXPECT_DOUBLE_EQ(by_key->number, 8.0);

  // All-digit segment = array index; other segments match "name" members.
  const JsonValue* by_index =
      dmp::exp::resolve_path(doc, "settings.1.metrics.f_tau4.mean");
  ASSERT_NE(by_index, nullptr);
  EXPECT_DOUBLE_EQ(by_index->number, 0.05);
  const JsonValue* by_name =
      dmp::exp::resolve_path(doc, "settings.2-2.metrics.f_tau4.mean");
  ASSERT_NE(by_name, nullptr);
  EXPECT_DOUBLE_EQ(by_name->number, 0.05);
  EXPECT_NE(dmp::exp::resolve_path(doc, "divergence.fig4.stats.diverged"),
            nullptr);

  EXPECT_EQ(dmp::exp::resolve_path(doc, "settings.9-9.metrics"), nullptr);
  EXPECT_EQ(dmp::exp::resolve_path(doc, "timing.threads.deeper"), nullptr);
  EXPECT_EQ(dmp::exp::resolve_path(doc, "settings.7"), nullptr);
}

TEST(JsonParse, CsvAdapter) {
  std::istringstream in("setting,tau_s,model\n1-1,4,0.0125\nx y,6,n/a\n");
  const JsonValue table = dmp::exp::csv_to_json(in);
  const JsonValue* columns = table.find("columns");
  ASSERT_NE(columns, nullptr);
  EXPECT_EQ(columns->array.size(), 3u);
  const JsonValue* rows = table.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 2u);
  EXPECT_TRUE(rows->array[0].find("tau_s")->is_number());
  EXPECT_EQ(rows->array[0].find("tau_s")->text, "4");
  EXPECT_EQ(rows->array[1].find("model")->text, "n/a");  // stays a string

  std::istringstream bad("a,b\n1\n");
  EXPECT_THROW(dmp::exp::csv_to_json(bad), std::runtime_error);
  std::istringstream empty("");
  EXPECT_THROW(dmp::exp::csv_to_json(empty), std::runtime_error);
}

// --- structural diff ---

TEST(ReportDiff, IdenticalDocumentsProduceZeroDiffs) {
  const JsonValue left = dmp::exp::parse_json(kReport);
  const JsonValue right = dmp::exp::parse_json(kReport);
  const auto result = dmp::exp::diff_reports(left, right);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.diffs.size(), 0u);
  EXPECT_EQ(result.diverged(), 0u);
  EXPECT_GT(result.fields_compared, 0u);
  EXPECT_EQ(result.identical, result.fields_compared);
}

TEST(ReportDiff, NumericDivergenceAndTolerance) {
  const JsonValue left = dmp::exp::parse_json(R"({"a": 1.0, "b": 2.0})");
  const JsonValue right = dmp::exp::parse_json(R"({"a": 1.0, "b": 2.5})");
  const auto strict = dmp::exp::diff_reports(left, right);
  EXPECT_FALSE(strict.clean());
  ASSERT_EQ(strict.diffs.size(), 1u);
  EXPECT_EQ(strict.diffs[0].path, "b");
  EXPECT_EQ(strict.diffs[0].cls, DiffClass::kDiverged);
  EXPECT_DOUBLE_EQ(strict.diffs[0].abs_delta, 0.5);

  DiffOptions tolerant;
  tolerant.abs_tol = 0.5;
  const auto result = dmp::exp::diff_reports(left, right, tolerant);
  EXPECT_TRUE(result.clean());  // within tolerance does not break cleanliness
  EXPECT_EQ(result.within_tolerance, 1u);
}

TEST(ReportDiff, SameValueDifferentSpellingIsIdentical) {
  // 2.0 vs 2.00 — equal doubles, different bytes.
  const JsonValue left = dmp::exp::parse_json(R"({"a": 2.0})");
  const JsonValue right = dmp::exp::parse_json(R"({"a": 2.00})");
  const auto result = dmp::exp::diff_reports(left, right);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(result.identical, 1u);
}

TEST(ReportDiff, StructuralClasses) {
  const JsonValue left =
      dmp::exp::parse_json(R"({"only_l": 1, "both": 2, "kind": 3})");
  const JsonValue right =
      dmp::exp::parse_json(R"({"both": 2, "kind": "3", "only_r": 4})");
  const auto result = dmp::exp::diff_reports(left, right);
  EXPECT_FALSE(result.clean());
  std::size_t only_left = 0, only_right = 0, mismatch = 0;
  for (const auto& d : result.diffs) {
    only_left += d.cls == DiffClass::kOnlyLeft;
    only_right += d.cls == DiffClass::kOnlyRight;
    mismatch += d.cls == DiffClass::kTypeMismatch;
  }
  EXPECT_EQ(only_left, 1u);
  EXPECT_EQ(only_right, 1u);
  EXPECT_EQ(mismatch, 1u);
}

TEST(ReportDiff, IgnorePrefixAndNamedArrayPaths) {
  const JsonValue left = dmp::exp::parse_json(kReport);
  JsonValue right = dmp::exp::parse_json(kReport);
  // Perturb timing (to be ignored) and one named setting's metric.
  right.object[1].second.object[0].second.number = 9.0;
  right.object[1].second.object[0].second.text = "9.0";
  JsonValue& mean = right.object[2]
                        .second.array[1]  // settings[1] = "2-2"
                        .object[1]
                        .second.array[0]  // metrics[0] = f_tau4
                        .object[1]
                        .second;  // mean
  mean.number = 0.06;
  mean.text = "0.06";

  DiffOptions options;
  options.ignore = {"timing"};
  const auto result = dmp::exp::diff_reports(left, right, options);
  ASSERT_EQ(result.diffs.size(), 1u);
  EXPECT_EQ(result.diffs[0].path, "settings.2-2.metrics.f_tau4.mean");
  EXPECT_EQ(result.diffs[0].cls, DiffClass::kDiverged);
}

// --- SLO engine ---

TEST(Slo, ParsesRulesCommentsAndBlanks) {
  const SloSpec spec = SloSpec::parse(
      "# gate\n"
      "\n"
      "report.experiment == 'fig4'\n"
      "timing.threads >= 1\n"
      "divergence.fig4.stats.diverged == 0\n"
      "flag != true\n");
  ASSERT_EQ(spec.rules.size(), 4u);
  EXPECT_EQ(spec.rules[0].op, SloOp::kEq);
  EXPECT_EQ(spec.rules[0].value_kind, dmp::exp::SloRule::ValueKind::kString);
  EXPECT_EQ(spec.rules[0].text, "fig4");
  EXPECT_EQ(spec.rules[1].op, SloOp::kGe);
  EXPECT_EQ(spec.rules[3].value_kind, dmp::exp::SloRule::ValueKind::kBool);
  EXPECT_EQ(spec.rules[0].line, 3);
}

TEST(Slo, ParseOrThrow) {
  EXPECT_THROW(SloSpec::parse("a.b ~= 3\n"), std::invalid_argument);
  EXPECT_THROW(SloSpec::parse("a.b <\n"), std::invalid_argument);
  EXPECT_THROW(SloSpec::parse("a.b < notanumber\n"), std::invalid_argument);
  EXPECT_THROW(SloSpec::parse("< 3\n"), std::invalid_argument);
  // Ordering comparisons only make sense for numbers.
  EXPECT_THROW(SloSpec::parse("a.b < 'str'\n"), std::invalid_argument);
  EXPECT_THROW(SloSpec::parse("a.b >= true\n"), std::invalid_argument);
  EXPECT_THROW(SloSpec::parse_file("no/such/spec.slo"),
               std::invalid_argument);
  // The offending line number is named.
  try {
    SloSpec::parse("ok == 1\nbroken ~ 2\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
  }
}

TEST(Slo, EvaluatesAgainstDocumentsInOrder) {
  const JsonValue report = dmp::exp::parse_json(kReport);
  const JsonValue extra =
      dmp::exp::parse_json(R"({"bonus": {"value": 41}})");
  const SloSpec spec = SloSpec::parse(
      "experiment == 'fig4'\n"
      "timing.wall_s < 100\n"
      "settings.2-2.metrics.f_tau4.mean <= 0.05\n"
      "divergence.fig4.stats.diverged == 0\n"
      "bonus.value > 40\n");  // only in the second document
  const auto result = dmp::exp::evaluate_slo(spec, {&report, &extra});
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.results.size(), 5u);
  for (const auto& r : result.results) EXPECT_TRUE(r.passed) << r.message;
}

TEST(Slo, ViolationsAndMissingFields) {
  const JsonValue report = dmp::exp::parse_json(kReport);
  const SloSpec spec = SloSpec::parse(
      "timing.threads == 9\n"       // wrong value
      "experiment == 'fig9'\n"      // wrong string
      "no.such.field < 1\n");       // missing = violation, not skip
  const auto result = dmp::exp::evaluate_slo(spec, {&report});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.violations, 3u);
  EXPECT_EQ(result.results[2].actual, "<missing>");
}

TEST(Slo, EmptySpecPassesTrivially) {
  const JsonValue report = dmp::exp::parse_json(kReport);
  const SloSpec spec = SloSpec::parse("# nothing but comments\n\n");
  EXPECT_TRUE(spec.empty());
  EXPECT_TRUE(dmp::exp::evaluate_slo(spec, {&report}).ok());
}

}  // namespace

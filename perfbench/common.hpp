// Shared plumbing of the benchmark binary: clocks, statistics, metric
// output, the span tracer and the reference check.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// Process CPU time (user + system, all threads) in seconds.
inline double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

// Peak resident set since the last reset_peak_rss() (VmHWM), falling back
// to the process lifetime peak where /proc does not provide it.
inline double peak_rss_mb() {
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Resets VmHWM to the current resident set, so each batch's peak is read on
// its own.  Best effort: without it peak_rss_mb() keeps the lifetime peak.
inline void reset_peak_rss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// "%.17g" — the repository's canonical spelling of a double.
inline std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

// Named metrics in insertion order, printed as a table and as the JSON
// "metrics" object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, unit, value});
  }
  void print_table(const char* title) const {
    std::printf("%s\n", title);
    for (const auto& m : items_) {
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + items_[i].name + "\": {\"value\": " + num(items_[i].value) +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name, unit;
    double value;
  };
  std::vector<Item> items_;
};

// ---------------------------------------------------------------------------
// Span tracer.  A traced batch records one span around every public library
// call the benchmark makes: name, layer, start, end, parent span and the
// operation id shared by all spans of one operation.  Spans stay in memory
// until the process exits; layer self times are derived from them.
// ---------------------------------------------------------------------------
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // operation id (0 = not part of an operation)
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  std::uint64_t begin(const char* name, const char* layer, std::uint64_t parent,
                      std::uint64_t op) {
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.op = op;
    s.name = name;
    s.layer = layer;
    s.start_ns = now_ns();
    spans_.push_back(s);
    return s.id;
  }
  void end(std::uint64_t id) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = t;
  }
  // Self time per layer in seconds: each span's duration minus the union of
  // its children's intervals (children may run in parallel on pool workers).
  std::map<std::string, double> self_seconds_by_layer() const;
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// The calling thread's innermost open span and operation, so nested spans
// find their parent without threading ids through every call.
struct SpanContext {
  std::uint64_t span = 0;
  std::uint64_t op = 0;
};
inline thread_local SpanContext tls_span_context;

// RAII span.  With a null tracer it costs one branch.  `parent`/`op`
// override the thread's context for spans opened on pool workers.
class Span {
 public:
  Span(Tracer* tracer, const char* name, const char* layer)
      : Span(tracer, name, layer, tls_span_context) {}
  Span(Tracer* tracer, const char* name, const char* layer, SpanContext ctx)
      : tracer_(tracer), saved_(tls_span_context) {
    if (!tracer_) return;
    id_ = tracer_->begin(name, layer, ctx.span, ctx.op);
    tls_span_context = {id_, ctx.op};
  }
  ~Span() {
    if (!tracer_) return;
    tracer_->end(id_);
    tls_span_context = saved_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  SpanContext saved_;
  std::uint64_t id_ = 0;
};

inline std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size() + 1);
  for (const auto& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const auto& s : spans_) {
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo0, hi0] : kids) {
      const std::int64_t lo = std::max(lo0, s.start_ns);
      const std::int64_t hi = std::min(hi0, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

// ---------------------------------------------------------------------------
// Output check.  Every operation with deterministic outputs renders them as a
// canonical string ("%.17g" numbers); its FNV-1a digest is compared with the
// digest recorded for the same operation key at the seed commit
// (reference/<workload>.tsv).  A missing or different digest fails the
// operation.
// ---------------------------------------------------------------------------
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

class ReferenceCheck {
 public:
  // Loads "key<TAB>digest<TAB>summary" lines; returns false if unreadable.
  bool load(const std::string& path);
  // Empty string when `canonical` matches the reference for `key`,
  // otherwise a one-line reason.
  std::string verify(const std::string& key, const std::string& canonical) const;
  std::size_t size() const { return digests_.size(); }

 private:
  std::map<std::string, std::uint64_t> digests_;
};

// Records (key, canonical output) pairs for --record-refs.
class ReferenceWriter {
 public:
  void add(const std::string& key, const std::string& canonical) {
    std::lock_guard<std::mutex> lock(mu_);
    rows_[key] = canonical;
  }
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::string> rows_;
};

}  // namespace perfbench

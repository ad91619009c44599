#include "bench_compare_lib.h"

#include <cmath>
#include <cstdio>
#include <vector>

#include "io/json_value.h"

namespace ubigraph::benchcmp {

namespace {

using ubigraph::io::JsonValue;

Status FieldError(const std::string& origin, const std::string& name,
                  const std::string& field, const char* what) {
  return Status::ParseError(origin + ": record '" + name + "': field '" +
                            field + "' " + what);
}

/// Required finite number; errors on absent / wrong type / NaN / Inf.
Status GetNumber(const JsonValue* entry, const std::string& origin,
                 const std::string& name, const std::string& field,
                 double* out) {
  const JsonValue* v = entry->Get(field);
  if (v == nullptr) return FieldError(origin, name, field, "is missing");
  if (v->kind != JsonValue::kNumber) {
    return FieldError(origin, name, field, "is not a number");
  }
  if (!std::isfinite(v->number)) {
    return FieldError(origin, name, field, "is not finite");
  }
  *out = v->number;
  return Status::OK();
}

/// Optional finite number with a default (for fields newer than some files).
Status GetOptionalNumber(const JsonValue* entry, const std::string& origin,
                         const std::string& name, const std::string& field,
                         double fallback, double* out) {
  if (entry->Get(field) == nullptr) {
    *out = fallback;
    return Status::OK();
  }
  return GetNumber(entry, origin, name, field, out);
}

/// Required string; errors on absent / wrong type.
Status GetString(const JsonValue* entry, const std::string& origin,
                 const std::string& name, const std::string& field,
                 std::string* out) {
  const JsonValue* v = entry->Get(field);
  if (v == nullptr) return FieldError(origin, name, field, "is missing");
  if (v->kind != JsonValue::kString) {
    return FieldError(origin, name, field, "is not a string");
  }
  *out = v->string;
  return Status::OK();
}

}  // namespace

Status LoadRecords(const std::string& json_text, const std::string& origin,
                   std::map<std::string, Record>* out) {
  auto doc = ubigraph::io::ParseJsonValue(json_text);
  if (!doc.ok()) {
    return Status::ParseError(origin + ": " + doc.status().message());
  }
  if ((*doc)->kind != JsonValue::kArray) {
    return Status::ParseError(origin + ": top-level value is not a JSON array");
  }
  for (size_t i = 0; i < (*doc)->array.size(); ++i) {
    const JsonValue* entry = (*doc)->array[i].get();
    if (entry == nullptr || entry->kind != JsonValue::kObject) {
      return Status::ParseError(origin + ": entry " + std::to_string(i) +
                                " is not an object");
    }
    std::string name;
    UG_RETURN_NOT_OK(GetString(entry, origin, "#" + std::to_string(i), "name", &name));
    if (name.empty()) {
      return Status::ParseError(origin + ": entry " + std::to_string(i) +
                                " has an empty name");
    }
    Record r;
    UG_RETURN_NOT_OK(GetString(entry, origin, name, "kernel", &r.kernel));
    // mode/graph may legitimately be "" but must be strings when present.
    const JsonValue* mode = entry->Get("mode");
    if (mode != nullptr) {
      if (mode->kind != JsonValue::kString) {
        return FieldError(origin, name, "mode", "is not a string");
      }
      r.mode = mode->string;
    }
    const JsonValue* graph = entry->Get("graph");
    if (graph != nullptr) {
      if (graph->kind != JsonValue::kString) {
        return FieldError(origin, name, "graph", "is not a string");
      }
      r.graph = graph->string;
    }
    double threads = 0.0, repeats = 0.0;
    UG_RETURN_NOT_OK(GetNumber(entry, origin, name, "threads", &threads));
    UG_RETURN_NOT_OK(
        GetNumber(entry, origin, name, "median_real_ns", &r.median_real_ns));
    UG_RETURN_NOT_OK(
        GetNumber(entry, origin, name, "edges_per_second", &r.edges_per_second));
    UG_RETURN_NOT_OK(
        GetNumber(entry, origin, name, "bytes_per_edge", &r.bytes_per_edge));
    UG_RETURN_NOT_OK(GetNumber(entry, origin, name, "work_items", &r.work_items));
    UG_RETURN_NOT_OK(
        GetOptionalNumber(entry, origin, name, "repeats", 1.0, &repeats));
    UG_RETURN_NOT_OK(
        GetOptionalNumber(entry, origin, name, "rel_spread", 0.0, &r.rel_spread));
    UG_RETURN_NOT_OK(GetOptionalNumber(entry, origin, name, "peak_segment_bytes",
                                       0.0, &r.peak_segment_bytes));
    UG_RETURN_NOT_OK(GetOptionalNumber(entry, origin, name, "peak_rss_bytes",
                                       0.0, &r.peak_rss_bytes));
    if (r.median_real_ns < 0.0 || r.rel_spread < 0.0) {
      return FieldError(origin, name, "median_real_ns/rel_spread", "is negative");
    }
    if (r.peak_segment_bytes < 0.0 || r.peak_rss_bytes < 0.0) {
      return FieldError(origin, name, "peak_*_bytes", "is negative");
    }
    r.threads = static_cast<int64_t>(threads);
    r.repeats = static_cast<int64_t>(repeats);
    (*out)[name] = r;
  }
  return Status::OK();
}

std::string FormatRecords(const std::map<std::string, Record>& records) {
  std::string out = "[\n";
  bool first = true;
  char buf[512];
  for (const auto& [name, r] : records) {
    if (!first) out += ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\": \"%s\", \"kernel\": \"%s\", \"mode\": \"%s\", "
                  "\"graph\": \"%s\", \"threads\": %lld, \"median_real_ns\": %g, "
                  "\"edges_per_second\": %g, \"bytes_per_edge\": %g, "
                  "\"work_items\": %g, \"repeats\": %lld, \"rel_spread\": %g",
                  name.c_str(), r.kernel.c_str(), r.mode.c_str(),
                  r.graph.c_str(), static_cast<long long>(r.threads),
                  r.median_real_ns, r.edges_per_second, r.bytes_per_edge,
                  r.work_items, static_cast<long long>(r.repeats),
                  r.rel_spread);
    out += buf;
    // Memory counters are emitted only when reported (> 0), matching the
    // reporter's own conditional emission and keeping old files byte-stable
    // through a load/format round-trip.
    const struct {
      const char* key;
      double value;
    } mem[] = {{"peak_segment_bytes", r.peak_segment_bytes},
               {"peak_rss_bytes", r.peak_rss_bytes}};
    for (const auto& m : mem) {
      if (m.value > 0.0) {
        std::snprintf(buf, sizeof(buf), ", \"%s\": %g", m.key, m.value);
        out += buf;
      }
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

Comparison Compare(const std::map<std::string, Record>& baseline,
                   const std::map<std::string, Record>& current,
                   const CompareOptions& options) {
  Comparison result;
  char line[512];
  for (const auto& [name, base] : baseline) {
    auto it = current.find(name);
    if (it == current.end()) {
      ++result.missing;
      std::snprintf(line, sizeof(line),
                    "  MISSING  %s (in baseline, not measured)\n", name.c_str());
      result.report += line;
      continue;
    }
    const Record& cur = it->second;
    ++result.compared;
    const double ratio =
        base.median_real_ns > 0 ? cur.median_real_ns / base.median_real_ns : 1.0;
    // Noise-aware allowance: the base gate plus the observed spread of both
    // measurements. A quiet machine contributes ~0; a noisy one widens its
    // own gate instead of failing spuriously.
    const double allowance =
        options.max_regression + base.rel_spread + cur.rel_spread;
    const bool slow = ratio > 1.0 + allowance;
    const bool no_work = options.require_work_items && cur.work_items <= 0.0;
    const double work_ratio =
        base.work_items > 0 ? cur.work_items / base.work_items : 1.0;
    std::snprintf(line, sizeof(line),
                  "  %s  %-45s  %12.0f ns vs %12.0f ns  (%+.1f%% / allow "
                  "%.0f%%, spread %.0f%%+%.0f%%, work x%.2f)\n",
                  slow      ? "REGRESS"
                  : no_work ? "NO-WORK"
                            : "ok     ",
                  name.c_str(), cur.median_real_ns, base.median_real_ns,
                  (ratio - 1.0) * 100.0, allowance * 100.0,
                  base.rel_spread * 100.0, cur.rel_spread * 100.0, work_ratio);
    result.report += line;
    if (slow) ++result.regressions;
    if (no_work) ++result.work_violations;
    if (options.gate_memory) {
      // Gate a memory counter only when both sides reported it: a bench that
      // gained (or lost) a counter between baseline and now has nothing
      // meaningful to compare, and old baselines must not start failing.
      const struct {
        const char* key;
        double base_v, cur_v, allow;
      } mem[] = {{"peak_segment_bytes", base.peak_segment_bytes,
                  cur.peak_segment_bytes, options.max_mem_regression},
                 {"peak_rss_bytes", base.peak_rss_bytes, cur.peak_rss_bytes,
                  options.max_rss_regression}};
      for (const auto& m : mem) {
        if (m.base_v <= 0.0 || m.cur_v <= 0.0) continue;
        const double mem_ratio = m.cur_v / m.base_v;
        const bool grew = mem_ratio > 1.0 + m.allow;
        if (grew) ++result.mem_regressions;
        std::snprintf(line, sizeof(line),
                      "  %s  %-45s  %12.0f B vs %12.0f B   (%s %+.1f%% / "
                      "allow %.0f%%)\n",
                      grew ? "MEM-REG" : "ok     ", name.c_str(), m.cur_v,
                      m.base_v, m.key, (mem_ratio - 1.0) * 100.0,
                      m.allow * 100.0);
        result.report += line;
      }
    }
  }
  return result;
}

}  // namespace ubigraph::benchcmp

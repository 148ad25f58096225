#include "obs/observer.hpp"

#include <limits>

namespace obs {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

void append_int(std::string& out, std::int64_t v) {
  out += std::to_string(v);
}

/// Renders one histogram as a JSON object. All fields are integers
/// (nanoseconds), so the rendering is platform-identical.
void append_histogram(std::string& out, const LatencyHistogram& h) {
  out += "{\"count\":";
  append_int(out, h.count());
  out += ",\"sum_ns\":";
  append_int(out, h.sum());
  out += ",\"max_ns\":";
  append_int(out, h.max());
  out += ",\"p50_ns\":";
  append_int(out, h.quantile(0.50));
  out += ",\"p95_ns\":";
  append_int(out, h.quantile(0.95));
  out += ",\"p99_ns\":";
  append_int(out, h.quantile(0.99));
  out += '}';
}

void append_span(std::string& out, const Span& s, const Observer& o) {
  out += "{\"trace\":";
  append_int(out, static_cast<std::int64_t>(s.trace_id));
  out += ",\"span\":";
  append_int(out, s.span_id);
  out += ",\"parent\":";
  append_int(out, s.parent_id);
  out += ",\"kind\":";
  append_escaped(out, span_kind_name(s.kind));
  out += ",\"label\":";
  append_escaped(out, o.label_name(s.label));
  out += ",\"server\":";
  append_int(out, s.server);
  out += ",\"bytes\":";
  append_int(out, s.bytes);
  out += ",\"start_ns\":";
  append_int(out, s.start);
  out += ",\"end_ns\":";
  append_int(out, s.end);
  out += ",\"error\":";
  out += s.error ? "true" : "false";
  out += '}';
}

}  // namespace

std::uint16_t Observer::label(std::string_view name) {
  if (auto it = label_index_.find(name); it != label_index_.end()) {
    return it->second;
  }
  if (labels_.size() > std::numeric_limits<std::uint16_t>::max()) {
    return 0;  // intern table exhausted; fold into "none"
  }
  const auto id = static_cast<std::uint16_t>(labels_.size());
  labels_.emplace_back(name);
  label_hist_.emplace_back();
  label_index_.emplace(std::string(name), id);
  return id;
}

std::string Observer::to_json() const {
  std::string out;
  out.reserve(4096 + ring_.size() * 160);
  out += "{\"counters\":{";
  bool first = true;
  metrics_.for_each_counter(
      [&](const std::string& name, const Counter& c) {
        if (!first) out += ',';
        first = false;
        append_escaped(out, name);
        out += ':';
        append_int(out, c.value());
      });
  out += "},\"gauges\":{";
  first = true;
  metrics_.for_each_gauge([&](const std::string& name, const Gauge& g) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, name);
    out += ':';
    append_int(out, g.value());
  });
  out += "},\"histograms\":{";
  first = true;
  metrics_.for_each_histogram(
      [&](const std::string& name, const LatencyHistogram& h) {
        if (!first) out += ',';
        first = false;
        append_escaped(out, name);
        out += ':';
        append_histogram(out, h);
      });

  // Per-layer latency summaries: fixed kind order, empty layers skipped.
  out += "},\"layers\":{";
  first = true;
  for (int k = 0; k < kSpanKindCount; ++k) {
    const auto kind = static_cast<SpanKind>(k);
    const LatencyHistogram& h = layer(kind);
    if (h.count() == 0) continue;
    if (!first) out += ',';
    first = false;
    append_escaped(out, span_kind_name(kind));
    out += ':';
    append_histogram(out, h);
  }

  // Per-operation summaries: label-id (interning) order, empty ops skipped.
  out += "},\"ops\":{";
  first = true;
  for (std::size_t id = 1; id < labels_.size(); ++id) {
    const LatencyHistogram& h = label_hist_[id];
    if (h.count() == 0) continue;
    if (!first) out += ',';
    first = false;
    append_escaped(out, labels_[id]);
    out += ':';
    append_histogram(out, h);
  }

  out += "},\"spans\":{\"emitted\":";
  append_int(out, emitted_spans_);
  out += ",\"dropped\":";
  append_int(out, dropped_spans_);
  out += ",\"ring\":[";
  first = true;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const Span& s = ring_[(ring_head_ + i) % ring_.size()];
    if (!first) out += ',';
    first = false;
    append_span(out, s, *this);
  }
  out += "]}}";
  return out;
}

}  // namespace obs

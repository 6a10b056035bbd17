// Prometheus text exposition format (version 0.0.4) rendering and a
// structural linter for it.
//
// renderPrometheus() turns a MetricRegistry snapshot into the scrapeable
// text format: `# HELP` / `# TYPE` headers per metric family, one sample
// line per series, and for histograms the cumulative `_bucket{le=...}`
// ladder plus `_sum` and `_count`.  One reader checks the invariants a
// real Prometheus server enforces (line structure, bucket monotonicity,
// `+Inf` == `_count`, `_sum`/`_count` presence): lintPrometheus() reports
// its verdict (the CI scrape check, powerviz_client --lint), and
// parsePrometheus(), the renderer's inverse, also requires the
// registry's `le` ladder and returns MetricRegistry::Series (the per-
// histogram max is lost: the text format does not carry it).
// mergeExpositions() builds on parse: the fleet coordinator scrapes each
// worker's `metrics` op, tags every series with a `worker` label, and
// re-renders the union as one fleet-wide exposition, so the merged view
// flows through the same snapshot/render machinery as a single process.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "telemetry/metric_registry.h"

namespace pviz::telemetry {

/// Render a snapshot in Prometheus text exposition format 0.0.4.
std::string renderPrometheus(const std::vector<MetricRegistry::Series>& series);

/// Convenience: snapshot + render.
std::string renderPrometheus(const MetricRegistry& registry);

/// Structural check of exposition text.  Returns true when the text is
/// well-formed; otherwise returns false and, when `error` is non-null,
/// stores a one-line description of the first problem found.
bool lintPrometheus(const std::string& text, std::string* error = nullptr);

/// Parse exposition text produced by renderPrometheus back into series.
/// Histogram families must carry the registry's full bucket ladder
/// (kBucketCount finite bounds + +Inf).  Throws pviz::Error on text the
/// renderer could not have produced; renderPrometheus(parsePrometheus(t))
/// reproduces `t` up to HELP/TYPE placement.
std::vector<MetricRegistry::Series> parsePrometheus(const std::string& text);

/// Merge several (instance name, exposition text) pairs into one
/// exposition: every series is relabeled with `{instanceLabel="name"}`,
/// the union is sorted so each family renders under a single TYPE
/// header, and the result passes lintPrometheus whenever the inputs do.
std::string mergeExpositions(
    const std::vector<std::pair<std::string, std::string>>& instances,
    const std::string& instanceLabel = "worker");

}  // namespace pviz::telemetry

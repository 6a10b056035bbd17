#include "telemetry/prometheus.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>

#include "util/error.h"

namespace pviz::telemetry {

namespace {

// ---- rendering ----------------------------------------------------------

std::string escapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string escapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string formatValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// `{a="x",b="y"}` — or empty when there are no labels and no extra pair.
std::string labelBlock(const Labels& labels, const char* extraKey = nullptr,
                       const std::string& extraValue = "") {
  if (labels.empty() && extraKey == nullptr) return "";
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) os << ',';
    first = false;
    os << key << "=\"" << escapeLabelValue(value) << '"';
  }
  if (extraKey != nullptr) {
    if (!first) os << ',';
    os << extraKey << "=\"" << extraValue << '"';
  }
  os << '}';
  return os.str();
}

const char* kindToken(MetricRegistry::Kind kind) {
  switch (kind) {
    case MetricRegistry::Kind::Counter: return "counter";
    case MetricRegistry::Kind::Gauge: return "gauge";
    case MetricRegistry::Kind::Histogram: return "histogram";
  }
  return "untyped";
}

// ---- reading ------------------------------------------------------------

bool validMetricNameToken(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

std::string unescapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (std::size_t i = 0; i < help.size(); ++i) {
    if (help[i] == '\\' && i + 1 < help.size()) {
      ++i;
      out += help[i] == 'n' ? '\n' : help[i];
    } else {
      out += help[i];
    }
  }
  return out;
}

struct Sample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

/// Parse one non-comment sample line; throws pviz::Error on a structural
/// problem.
Sample parseSample(const std::string& line, const std::string& where) {
  auto fail = [&](const std::string& msg) { throw pviz::Error(where + msg); };
  Sample out;
  std::size_t i = 0;
  while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i])) &&
         line[i] != '{') {
    ++i;
  }
  out.name = line.substr(0, i);
  if (!validMetricNameToken(out.name)) {
    fail("invalid metric name '" + out.name + "'");
  }
  if (i < line.size() && line[i] == '{') {
    ++i;  // consume '{'
    while (i < line.size() && line[i] != '}') {
      std::size_t eq = line.find('=', i);
      if (eq == std::string::npos) fail("label without '='");
      std::string key = line.substr(i, eq - i);
      i = eq + 1;
      if (i >= line.size() || line[i] != '"') fail("label value must be quoted");
      ++i;
      std::string value;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < line.size()) {
          ++i;
          switch (line[i]) {
            case 'n': value += '\n'; break;
            case '\\': value += '\\'; break;
            case '"': value += '"'; break;
            default: fail("bad escape in label value");
          }
        } else {
          value += line[i];
        }
        ++i;
      }
      if (i >= line.size()) fail("unterminated label value");
      ++i;  // closing quote
      out.labels.emplace_back(std::move(key), std::move(value));
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size() || line[i] != '}') fail("unterminated label block");
    ++i;
  }
  while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  if (i >= line.size()) fail("sample line has no value");
  const std::string token = line.substr(i, line.find(' ', i) - i);
  if (token == "+Inf") {
    out.value = std::numeric_limits<double>::infinity();
  } else if (token == "-Inf") {
    out.value = -std::numeric_limits<double>::infinity();
  } else if (token == "NaN") {
    out.value = std::numeric_limits<double>::quiet_NaN();
  } else {
    std::size_t used = 0;
    try {
      out.value = std::stod(token, &used);
    } catch (const std::exception&) {
      fail("unparseable value '" + token + "'");
    }
    if (used != token.size()) fail("trailing junk after value");
  }
  return out;
}

/// Serialized labels: the series identity, and MetricRegistry::snapshot()'s
/// order inside a family.
std::string serializeLabels(const Labels& labels) {
  std::ostringstream os;
  for (const auto& [key, value] : labels) {
    os << key << '\x1f' << value << '\x1e';
  }
  return os.str();
}

/// One histogram series as read: its labels without `le`, its ladder
/// and its _sum/_count.
struct HistogramSeries {
  std::string family;
  Labels labels;
  std::vector<std::pair<std::string, double>> buckets;  ///< (le, cumulative)
  bool haveSum = false;
  bool haveCount = false;
  double sum = 0.0;
  double count = 0.0;
};

/// Exposition text, read and checked: every series in input order (a
/// histogram where its first line is), with the TYPE and HELP tables.
struct Exposition {
  std::map<std::string, std::string> type;  ///< family → type token
  std::map<std::string, std::string> help;  ///< family → unescaped help
  std::vector<Sample> samples;              ///< counters, gauges, untyped
  std::vector<HistogramSeries> histograms;
  std::vector<std::pair<bool, std::size_t>> order;  ///< (histogram?, index)
};

/// The one reader: throws pviz::Error describing the first structural
/// problem a Prometheus server would refuse.
Exposition readExposition(const std::string& text) {
  if (text.empty()) throw pviz::Error("empty exposition");
  if (text.back() != '\n') {
    throw pviz::Error("exposition must end with a newline");
  }
  Exposition x;
  std::map<std::string, std::size_t> histogramAt;  // family \x1f labels
  std::istringstream in(text);
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const std::string where = "line " + std::to_string(lineNo) + ": ";
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, keyword, name;
      ls >> hash >> keyword >> name;
      if (keyword != "HELP" && keyword != "TYPE") continue;  // plain comment
      if (!validMetricNameToken(name)) {
        throw pviz::Error(where + keyword + " for invalid metric name '" +
                          name + "'");
      }
      std::string rest;
      if (keyword == "HELP") {
        std::getline(ls, rest);
        if (!rest.empty() && rest[0] == ' ') rest.erase(0, 1);
        x.help[name] = unescapeHelp(rest);
        continue;
      }
      ls >> rest;
      if (rest != "counter" && rest != "gauge" && rest != "histogram" &&
          rest != "summary" && rest != "untyped") {
        throw pviz::Error(where + "unknown type '" + rest + "'");
      }
      if (!x.type.emplace(name, rest).second) {
        throw pviz::Error(where + "duplicate TYPE for '" + name + "'");
      }
      continue;
    }

    Sample sample = parseSample(line, where);
    std::string family;
    std::string suffix;
    for (const char* sfx : {"_bucket", "_sum", "_count"}) {
      const std::string s(sfx);
      if (sample.name.size() <= s.size() ||
          sample.name.compare(sample.name.size() - s.size(), s.size(), s) != 0) {
        continue;
      }
      const std::string f = sample.name.substr(0, sample.name.size() - s.size());
      auto it = x.type.find(f);
      if (it != x.type.end() && it->second == "histogram") {
        family = f;
        suffix = s;
      }
      break;
    }
    if (family.empty()) {
      auto it = x.type.find(sample.name);
      if (it != x.type.end() && it->second == "counter" &&
          !(sample.value >= 0.0)) {
        throw pviz::Error(where + "counter '" + sample.name +
                          "' has negative value");
      }
      x.order.emplace_back(false, x.samples.size());
      x.samples.push_back(std::move(sample));
      continue;
    }

    std::string le;
    Labels labels;
    for (auto& [key, value] : sample.labels) {
      if (key == "le") {
        le = value;
      } else {
        labels.emplace_back(key, value);
      }
    }
    const std::string key = family + '\x1f' + serializeLabels(labels);
    auto [at, fresh] = histogramAt.emplace(key, x.histograms.size());
    if (fresh) {
      x.order.emplace_back(true, x.histograms.size());
      x.histograms.emplace_back();
      x.histograms.back().family = family;
      x.histograms.back().labels = std::move(labels);
    }
    HistogramSeries& h = x.histograms[at->second];
    if (suffix == "_sum") {
      h.haveSum = true;
      h.sum = sample.value;
    } else if (suffix == "_count") {
      h.haveCount = true;
      h.count = sample.value;
    } else {
      if (le.empty()) {
        throw pviz::Error(where + "_bucket sample without an le label");
      }
      h.buckets.emplace_back(le, sample.value);
    }
  }

  for (const HistogramSeries& h : x.histograms) {
    auto fail = [&](const std::string& msg) {
      throw pviz::Error("histogram '" + h.family + "' " + msg);
    };
    if (!h.haveSum) fail("is missing _sum");
    if (!h.haveCount) fail("is missing _count");
    if (h.buckets.empty() || h.buckets.back().first != "+Inf") {
      fail("is missing the +Inf bucket");
    }
    double previous = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      const std::string& le = h.buckets[i].first;
      double bound = std::numeric_limits<double>::infinity();
      if (le != "+Inf") {
        char* end = nullptr;
        bound = std::strtod(le.c_str(), &end);
        if (end != le.c_str() + le.size() || !std::isfinite(bound)) {
          fail("has an unparseable le bound '" + le + "'");
        }
      }
      if (bound <= previous) fail("bucket bounds not increasing");
      previous = bound;
      if (i > 0 && h.buckets[i].second < h.buckets[i - 1].second) {
        fail("cumulative bucket counts decrease");
      }
    }
    if (h.buckets.back().second != h.count) {
      fail("+Inf bucket (" + formatValue(h.buckets.back().second) +
           ") does not equal _count (" + formatValue(h.count) + ")");
    }
  }
  return x;
}

}  // namespace

std::string renderPrometheus(
    const std::vector<MetricRegistry::Series>& series) {
  std::ostringstream os;
  std::string lastHeader;
  for (const MetricRegistry::Series& s : series) {
    if (s.name != lastHeader) {
      lastHeader = s.name;
      if (!s.help.empty()) {
        os << "# HELP " << s.name << ' ' << escapeHelp(s.help) << '\n';
      }
      os << "# TYPE " << s.name << ' ' << kindToken(s.kind) << '\n';
    }
    if (s.kind != MetricRegistry::Kind::Histogram) {
      os << s.name << labelBlock(s.labels) << ' ' << formatValue(s.value)
         << '\n';
      continue;
    }
    std::uint64_t cumulative = 0;
    for (int b = 0; b <= Histogram::kBucketCount; ++b) {
      cumulative += s.hist.buckets[static_cast<std::size_t>(b)];
      const std::string le =
          b == Histogram::kBucketCount
              ? "+Inf"
              : formatValue(Histogram::bucketUpperBound(b));
      os << s.name << "_bucket" << labelBlock(s.labels, "le", le) << ' '
         << cumulative << '\n';
    }
    os << s.name << "_sum" << labelBlock(s.labels) << ' '
       << formatValue(s.hist.sum) << '\n';
    os << s.name << "_count" << labelBlock(s.labels) << ' ' << s.hist.count
       << '\n';
  }
  return os.str();
}

std::string renderPrometheus(const MetricRegistry& registry) {
  return renderPrometheus(registry.snapshot());
}

bool lintPrometheus(const std::string& text, std::string* error) {
  try {
    readExposition(text);
  } catch (const pviz::Error& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  if (error != nullptr) error->clear();
  return true;
}

std::vector<MetricRegistry::Series> parsePrometheus(const std::string& text) {
  const Exposition x = readExposition(text);
  auto helpOf = [&](const std::string& family) {
    auto it = x.help.find(family);
    return it == x.help.end() ? std::string() : it->second;
  };
  std::vector<MetricRegistry::Series> out;
  for (const auto& [histogram, index] : x.order) {
    MetricRegistry::Series series;
    if (!histogram) {
      const Sample& sample = x.samples[index];
      series.name = sample.name;
      series.labels = sample.labels;
      auto it = x.type.find(sample.name);
      const std::string type = it == x.type.end() ? "gauge" : it->second;
      series.kind = type == "counter" ? MetricRegistry::Kind::Counter
                                      : MetricRegistry::Kind::Gauge;
      series.help = helpOf(sample.name);
      series.value = sample.value;
      out.push_back(std::move(series));
      continue;
    }
    // The ladder must be the registry's, bound for bound: re-rendering
    // writes the registry's bounds whatever the text said.
    const HistogramSeries& h = x.histograms[index];
    if (h.buckets.size() !=
        static_cast<std::size_t>(Histogram::kBucketCount) + 1) {
      throw pviz::Error("histogram '" + h.family + "' has " +
                        std::to_string(h.buckets.size()) +
                        " buckets; expected the registry ladder of " +
                        std::to_string(Histogram::kBucketCount + 1));
    }
    series.name = h.family;
    series.labels = h.labels;
    series.kind = MetricRegistry::Kind::Histogram;
    series.help = helpOf(h.family);
    series.hist.count = static_cast<std::uint64_t>(h.count);
    series.hist.sum = h.sum;
    std::uint64_t previous = 0;
    for (int b = 0; b <= Histogram::kBucketCount; ++b) {
      const auto& [le, cumulative] = h.buckets[static_cast<std::size_t>(b)];
      if (b < Histogram::kBucketCount &&
          le != formatValue(Histogram::bucketUpperBound(b))) {
        throw pviz::Error("histogram '" + h.family + "' bucket le=\"" + le +
                          "\" is not the registry's bound " +
                          std::to_string(b));
      }
      const auto count = static_cast<std::uint64_t>(cumulative);
      series.hist.buckets[static_cast<std::size_t>(b)] = count - previous;
      previous = count;
    }
    out.push_back(std::move(series));
  }
  return out;
}

std::string mergeExpositions(
    const std::vector<std::pair<std::string, std::string>>& instances,
    const std::string& instanceLabel) {
  struct Tagged {
    MetricRegistry::Series series;
    std::string instance;
    std::string otherLabels;  ///< serialized labels minus the instance tag
  };
  std::vector<Tagged> all;
  for (const auto& [instance, text] : instances) {
    std::vector<MetricRegistry::Series> parsed = parsePrometheus(text);
    for (MetricRegistry::Series& series : parsed) {
      Tagged tagged;
      tagged.instance = instance;
      tagged.otherLabels = serializeLabels(series.labels);
      series.labels.emplace_back(instanceLabel, instance);
      tagged.series = std::move(series);
      all.push_back(std::move(tagged));
    }
  }
  // Families must stay contiguous so the renderer emits one TYPE header
  // per name; within a family the instance label is the primary order
  // (worker-major — w0's uptime_ms before w1's), then the remaining
  // labels.  The key is a total order over every series a fleet can
  // produce, so the merged text is byte-identical no matter which
  // worker's scrape arrived first.
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    if (a.series.name != b.series.name) return a.series.name < b.series.name;
    if (a.instance != b.instance) return a.instance < b.instance;
    return a.otherLabels < b.otherLabels;
  });
  std::vector<MetricRegistry::Series> merged;
  merged.reserve(all.size());
  for (Tagged& tagged : all) merged.push_back(std::move(tagged.series));
  return renderPrometheus(merged);
}

}  // namespace pviz::telemetry

#include "perfsight/json_export.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfsight::json {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {
int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

Result<std::string> unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= s.size()) {
      return Status::invalid_argument("json unescape: dangling backslash");
    }
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 >= s.size()) {
          return Status::invalid_argument("json unescape: truncated \\u");
        }
        int v = 0;
        for (int k = 1; k <= 4; ++k) {
          int h = hex_val(s[i + static_cast<size_t>(k)]);
          if (h < 0) {
            return Status::invalid_argument("json unescape: bad \\u digit");
          }
          v = v * 16 + h;
        }
        i += 4;
        if (v > 0xff) {
          return Status::invalid_argument(
              "json unescape: \\u beyond one byte at offset " +
              std::to_string(i - 5));
        }
        out += static_cast<char>(v);
        break;
      }
      default:
        return Status::invalid_argument(
            std::string("json unescape: unknown escape \\") + s[i]);
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    // %.17g is the shortest width that round-trips every double; %.10g lost
    // precision above ~1e10 — a few seconds of byte counters at 10 Gbps.
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::vector<double> find_numbers(const std::string& text,
                                 const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\"";
  size_t at = 0;
  while ((at = text.find(needle, at)) != std::string::npos) {
    size_t p = at + needle.size();
    at = p;
    while (p < text.size() && (text[p] == ' ' || text[p] == '\t' ||
                               text[p] == '\n' || text[p] == '\r')) {
      ++p;
    }
    if (p >= text.size() || text[p] != ':') continue;
    ++p;
    while (p < text.size() && (text[p] == ' ' || text[p] == '\t' ||
                               text[p] == '\n' || text[p] == '\r')) {
      ++p;
    }
    const char* start = text.c_str() + p;
    char* end = nullptr;
    double v = std::strtod(start, &end);
    if (end != start) out.push_back(v);
  }
  return out;
}

double find_number(const std::string& text, const std::string& key,
                   double fallback) {
  std::vector<double> v = find_numbers(text, key);
  return v.empty() ? fallback : v.front();
}

namespace {

std::string str(const std::string& s) { return "\"" + escape(s) + "\""; }

// Recursive-descent structural validator; consumes one JSON value starting
// at `i` (whitespace-tolerant) and leaves `i` just past it.
class Linter {
 public:
  explicit Linter(const std::string& t) : t_(t) {}

  Status run() {
    Status st = value();
    if (!st.is_ok()) return st;
    skip_ws();
    if (i_ != t_.size()) return fail("trailing characters");
    return Status::ok();
  }

 private:
  Status fail(const std::string& what) const {
    return Status::invalid_argument("json lint: " + what + " at offset " +
                                    std::to_string(i_));
  }
  void skip_ws() {
    while (i_ < t_.size() && (t_[i_] == ' ' || t_[i_] == '\t' ||
                              t_[i_] == '\n' || t_[i_] == '\r')) {
      ++i_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (i_ < t_.size() && t_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  Status string() {
    if (!eat('"')) return fail("expected string");
    while (i_ < t_.size()) {
      char c = t_[i_];
      if (c == '"') {
        ++i_;
        return Status::ok();
      }
      if (c == '\\') {
        ++i_;
        if (i_ >= t_.size()) break;
        char e = t_[i_];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++i_;
            if (i_ >= t_.size() || !std::isxdigit(
                                       static_cast<unsigned char>(t_[i_]))) {
              return fail("bad \\u escape");
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return fail("bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character");
      }
      ++i_;
    }
    return fail("unterminated string");
  }

  Status number_token() {
    size_t start = i_;
    if (i_ < t_.size() && t_[i_] == '-') ++i_;
    while (i_ < t_.size() && std::isdigit(static_cast<unsigned char>(t_[i_])))
      ++i_;
    if (i_ < t_.size() && t_[i_] == '.') {
      ++i_;
      while (i_ < t_.size() &&
             std::isdigit(static_cast<unsigned char>(t_[i_])))
        ++i_;
    }
    if (i_ < t_.size() && (t_[i_] == 'e' || t_[i_] == 'E')) {
      ++i_;
      if (i_ < t_.size() && (t_[i_] == '+' || t_[i_] == '-')) ++i_;
      while (i_ < t_.size() &&
             std::isdigit(static_cast<unsigned char>(t_[i_])))
        ++i_;
    }
    if (i_ == start) return fail("expected number");
    return Status::ok();
  }

  Status literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++i_) {
      if (i_ >= t_.size() || t_[i_] != *p) return fail("bad literal");
    }
    return Status::ok();
  }

  Status value() {
    skip_ws();
    if (i_ >= t_.size()) return fail("expected value");
    char c = t_[i_];
    if (c == '{') {
      ++i_;
      if (eat('}')) return Status::ok();
      while (true) {
        skip_ws();
        Status st = string();
        if (!st.is_ok()) return st;
        if (!eat(':')) return fail("expected ':'");
        st = value();
        if (!st.is_ok()) return st;
        if (eat(',')) continue;
        if (eat('}')) return Status::ok();
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++i_;
      if (eat(']')) return Status::ok();
      while (true) {
        Status st = value();
        if (!st.is_ok()) return st;
        if (eat(',')) continue;
        if (eat(']')) return Status::ok();
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number_token();
  }

  const std::string& t_;
  size_t i_ = 0;
};

}  // namespace

Status lint(const std::string& text) { return Linter(text).run(); }

std::string to_json(const StatsRecord& r) {
  std::string out = "{\"timestampNs\":";
  out += number(static_cast<double>(r.timestamp.ns()));
  out += ",\"element\":" + str(r.element.name);
  out += ",\"attrs\":{";
  for (size_t i = 0; i < r.attrs.size(); ++i) {
    if (i > 0) out += ",";
    out += str(r.attrs[i].name) + ":" + number(r.attrs[i].value);
  }
  out += "}}";
  return out;
}

namespace {

// ,"coverage":…,"blindSpots":[{"element","quality"}…] — how much of its
// scan set a verdict saw.
template <typename Spot>
std::string coverage_fields(double coverage, const std::vector<Spot>& spots) {
  std::string out = ",\"coverage\":" + number(coverage) + ",\"blindSpots\":[";
  for (size_t i = 0; i < spots.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"element\":" + str(spots[i].id.name) +
           ",\"quality\":" + str(to_string(spots[i].quality)) + "}";
  }
  return out + "]";
}

}  // namespace

std::string to_json(const ContentionReport& r) {
  std::string out = "{\"problemFound\":";
  out += r.problem_found ? "true" : "false";
  out += ",\"primaryLocation\":" + str(to_string(r.primary_location));
  out += ",\"spread\":" + str(to_string(r.spread));
  out += ",\"classification\":" +
         str(r.problem_found
                 ? (r.is_contention ? "contention" : "bottleneck")
                 : "healthy");
  out += ",\"candidateResources\":[";
  for (size_t i = 0; i < r.candidate_resources.size(); ++i) {
    if (i > 0) out += ",";
    out += str(to_string(r.candidate_resources[i]));
  }
  out += "],\"affectedVms\":[";
  for (size_t i = 0; i < r.affected_vms.size(); ++i) {
    if (i > 0) out += ",";
    out += number(r.affected_vms[i]);
  }
  out += "],\"rankedLosses\":[";
  bool first = true;
  for (const ElementLossEntry& e : r.ranked) {
    if (e.loss_pkts <= 0) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"element\":" + str(e.id.name);
    out += ",\"kind\":" + str(to_string(e.kind));
    out += ",\"vm\":" + number(e.vm);
    out += ",\"lossPkts\":" + number(static_cast<double>(e.loss_pkts)) + "}";
  }
  out += "]" + coverage_fields(r.coverage, r.blind_spots);
  out += ",\"narrative\":" + str(r.narrative) + "}";
  return out;
}

std::string to_json(const RootCauseReport& r) {
  std::string out = "{\"observations\":[";
  for (size_t i = 0; i < r.observations.size(); ++i) {
    const MbObservation& o = r.observations[i];
    if (i > 0) out += ",";
    out += "{\"element\":" + str(o.id.name);
    out += ",\"state\":" + str(to_string(o.state));
    out += ",\"inRateMbps\":" + number(o.in_rate_mbps);
    out += ",\"outRateMbps\":" + number(o.out_rate_mbps);
    out += ",\"capacityMbps\":" + number(o.capacity_mbps);
    out += ",\"quality\":" + str(to_string(o.quality)) + "}";
  }
  out += "],\"rootCauses\":[";
  for (size_t i = 0; i < r.root_causes.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"element\":" + str(r.root_causes[i].name);
    out += ",\"role\":" + str(to_string(r.root_cause_roles[i])) + "}";
  }
  out += "]" + coverage_fields(r.coverage, r.blind_spots);
  out += ",\"narrative\":" + str(r.narrative) + "}";
  return out;
}

}  // namespace perfsight::json

#include "tmwia/serve/protocol.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>

#include "tmwia/io/flat_json.hpp"
#include "tmwia/support/json.hpp"

namespace tmwia::serve {
namespace {

/// Declarative per-op field tables (the FlagTable discipline): the op
/// accepts exactly these fields, "op" included.
struct OpSpec {
  std::string_view op;
  std::span<const std::string_view> fields;
};

constexpr std::string_view kAddTenantFields[] = {
    "op",   "tenant", "in",    "kind",   "n",      "m",          "radius",  "alpha",
    "seed", "algo",   "faults", "record", "toplist_cap", "sabotage"};
constexpr std::string_view kRefineFields[] = {"op", "tenant", "epochs"};
constexpr std::string_view kRecommendFields[] = {"op", "tenant", "player", "k"};
constexpr std::string_view kEstimateFields[] = {"op", "tenant", "player"};
constexpr std::string_view kStatsFields[] = {"op", "tenant"};
constexpr std::string_view kPathFields[] = {"op", "tenant", "path"};

constexpr OpSpec kOps[] = {
    {"add_tenant", kAddTenantFields}, {"refine", kRefineFields},
    {"recommend", kRecommendFields},  {"estimate", kEstimateFields},
    {"stats", kStatsFields},          {"snapshot", kPathFields},
    {"restore", kPathFields},
};

const OpSpec& op_spec(const std::string& op) {
  for (const auto& spec : kOps) {
    if (spec.op == op) return spec;
  }
  throw std::invalid_argument("serve: unknown op '" + op + "'");
}

std::string require_string(const io::FlatJson& j, const char* key, const std::string& op) {
  if (!j.has(key)) {
    throw std::invalid_argument("serve: op '" + op + "' requires field '" + key + "'");
  }
  return j.get_string(key, "");
}

}  // namespace

Request parse_request(std::string_view line) {
  const auto j = io::FlatJson::parse(line);
  Request req;
  req.op = j.get_string("op", "");
  if (req.op.empty()) throw std::invalid_argument("serve: request has no \"op\" field");
  const auto& spec = op_spec(req.op);
  for (const auto& key : j.keys()) {
    if (std::find(spec.fields.begin(), spec.fields.end(), key) == spec.fields.end()) {
      throw std::invalid_argument("serve: op '" + req.op + "' does not accept field '" +
                                  key + "'");
    }
  }

  req.tenant = require_string(j, "tenant", req.op);
  if (req.op == "add_tenant") {
    req.in = j.get_string("in", "");
    req.kind = j.get_string("kind", req.kind);
    req.n = static_cast<std::size_t>(j.get_u64("n", 0));
    req.m = static_cast<std::size_t>(j.get_u64("m", 0));
    req.radius = static_cast<std::size_t>(j.get_u64("radius", 0));
    req.alpha = j.get_double("alpha", req.alpha);
    req.seed = j.get_u64("seed", req.seed);
    req.algo = j.get_string("algo", req.algo);
    req.faults = j.get_string("faults", "");
    req.record = j.get_string("record", "");
    req.toplist_cap = static_cast<std::size_t>(j.get_u64("toplist_cap", req.toplist_cap));
    req.sabotage = j.get_bool("sabotage", false);
    if (req.in.empty() && (req.n == 0 || req.m == 0)) {
      throw std::invalid_argument(
          "serve: add_tenant needs either \"in\" or nonzero \"n\" and \"m\"");
    }
  } else if (req.op == "refine") {
    req.epochs = j.get_u64("epochs", req.epochs);
    if (req.epochs == 0) throw std::invalid_argument("serve: refine needs epochs >= 1");
  } else if (req.op == "recommend" || req.op == "estimate") {
    if (!j.has("player")) {
      throw std::invalid_argument("serve: op '" + req.op + "' requires field 'player'");
    }
    const auto player = j.get_u64("player", 0);
    if (player > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("serve: field 'player' exceeds the 32-bit player id range");
    }
    req.player = static_cast<std::uint32_t>(player);
    if (req.op == "recommend") req.k = static_cast<std::size_t>(j.get_u64("k", req.k));
  } else if (req.op == "snapshot" || req.op == "restore") {
    req.path = require_string(j, "path", req.op);
  }
  return req;
}

std::string hash_to_hex(std::uint64_t h) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x0000000000000000";
  for (int i = 0; i < 16; ++i) out[17 - i] = kDigits[(h >> (4 * i)) & 0xf];
  return out;
}

std::string Response::to_json() const {
  const auto quoted = [](std::string_view s) {
    std::string q;
    support::append_json_string(q, s);
    return q;
  };
  std::ostringstream out;
  out << "{\"op\":" << quoted(op) << ",\"tenant\":" << quoted(tenant)
      << ",\"ok\":" << (ok ? "true" : "false");
  if (!ok) out << ",\"error\":" << quoted(error);
  if (has_view) {
    out << ",\"epoch\":" << epoch << ",\"hash\":\"" << hash_to_hex(cache_hash)
        << "\",\"degraded\":" << (degraded ? "true" : "false")
        << ",\"staleness\":" << staleness;
  }
  if (has_items) {
    out << ",\"items\":[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out << ',';
      out << items[i];
    }
    out << ']';
  }
  if (has_estimate) out << ",\"estimate\":\"" << estimate << "\"";
  if (!path.empty()) out << ",\"path\":" << quoted(path);
  for (const auto& [key, value] : stats) out << ',' << quoted(key) << ':' << value;
  out << ",\"latency_us\":" << latency_us << "}";
  return out.str();
}

}  // namespace tmwia::serve

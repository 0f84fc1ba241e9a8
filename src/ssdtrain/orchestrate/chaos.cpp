#include "ssdtrain/orchestrate/chaos.hpp"

#include <cerrno>
#include <cstdlib>
#include <vector>

#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/rng.hpp"

namespace ssdtrain::orchestrate {

namespace {

double parse_number(std::string_view key, std::string_view value) {
  const std::string text(value);
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(text.c_str(), &end);
  util::expects(end != text.c_str() && end == text.c_str() + text.size() &&
                    errno != ERANGE,
                "--chaos: '" + std::string(key) + "' expects a number, got '" +
                    text + "'");
  return x;
}

struct Clause {
  std::string kind;
  std::vector<std::pair<std::string, std::string>> keys;
};

/// Splits "kill:rate=0.3,tear=0.5,stall:rate=0.1" into clauses: an item
/// containing ':' starts a new clause, an item without one extends the
/// current clause's key list (this is what lets ',' double as both the
/// clause separator the ISSUE grammar uses and the key separator the
/// fault:: grammar uses).
std::vector<Clause> split_clauses(std::string_view text) {
  std::vector<Clause> clauses;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t sep = text.find_first_of(",;", start);
    if (sep == std::string_view::npos) sep = text.size();
    const std::string_view item = text.substr(start, sep - start);
    if (!item.empty()) {
      const std::size_t colon = item.find(':');
      if (colon != std::string_view::npos) {
        Clause clause;
        clause.kind = std::string(item.substr(0, colon));
        const std::string_view rest = item.substr(colon + 1);
        if (!rest.empty()) {
          const std::size_t eq = rest.find('=');
          util::expects(eq != std::string_view::npos && eq > 0,
                        "--chaos: expected key=value after '" + clause.kind +
                            ":', got '" + std::string(rest) + "'");
          clause.keys.emplace_back(std::string(rest.substr(0, eq)),
                                   std::string(rest.substr(eq + 1)));
        }
        clauses.push_back(std::move(clause));
      } else {
        util::expects(!clauses.empty(),
                      "--chaos: '" + std::string(item) +
                          "' appears before any kill:/stall: clause");
        const std::size_t eq = item.find('=');
        util::expects(eq != std::string_view::npos && eq > 0,
                      "--chaos: expected key=value, got '" +
                          std::string(item) + "'");
        clauses.back().keys.emplace_back(std::string(item.substr(0, eq)),
                                         std::string(item.substr(eq + 1)));
      }
    }
    if (sep == text.size()) break;
    start = sep + 1;
  }
  return clauses;
}

}  // namespace

ChaosSpec parse_chaos(std::string_view text) {
  ChaosSpec spec;
  for (const Clause& clause : split_clauses(text)) {
    util::expects(clause.kind == "kill" || clause.kind == "stall",
                  "--chaos: unknown kind '" + clause.kind +
                      "' (known: kill, stall)");
    const bool kill = clause.kind == "kill";
    for (const auto& [key, value] : clause.keys) {
      if (key == "rate") {
        const double rate = parse_number(key, value);
        util::expects(rate >= 0.0 && rate <= 1.0,
                      "--chaos: 'rate' must be in [0, 1]");
        (kill ? spec.kill_rate : spec.stall_rate) = rate;
      } else if (key == "tear" && kill) {
        const double tear = parse_number(key, value);
        util::expects(tear >= 0.0 && tear <= 1.0,
                      "--chaos: 'tear' must be in [0, 1]");
        spec.tear = tear;
      } else if (key == "after") {
        const double after = parse_number(key, value);
        // Range first: casting an out-of-range double (or NaN) to int is UB.
        util::expects(after >= 1 && after <= 4096 &&
                          after == static_cast<int>(after),
                      "--chaos: 'after' expects an integer >= 1, got '" +
                          value + "'");
        spec.after = static_cast<int>(after);
      } else {
        util::expects(false, "--chaos: unknown key '" + key + "' for '" +
                                 clause.kind +
                                 "' (known: rate, after" +
                                 std::string(kill ? ", tear" : "") + ")");
      }
    }
  }
  return spec;
}

std::string ChaosDecision::to_exec_spec() const {
  switch (kind) {
    case Kind::none:
      return "";
    case Kind::kill:
      return "kill:after=" + std::to_string(after) +
             (tear ? ",tear=1" : "");
    case Kind::stall:
      return "stall:after=" + std::to_string(after);
  }
  return "";
}

ChaosDecision ChaosEngine::draw(int shard, int attempt) const {
  ChaosDecision decision;
  if (!spec_.enabled()) return decision;
  // One independent stream per (shard, attempt): the decision never depends
  // on scheduling order, only on which launches actually happen.
  const std::uint64_t stream =
      seed_ ^ (static_cast<std::uint64_t>(shard) * 0x9E3779B97F4A7C15ULL) ^
      (static_cast<std::uint64_t>(attempt) * 0xD1B54A32D192ED03ULL);
  util::Xoshiro256 rng(stream);
  // Fixed draw order keeps the schedule stable as rates change one at a
  // time: kill?, stall?, after, tear.
  const double u_kill = rng.uniform();
  const double u_stall = rng.uniform();
  const int drawn_after =
      spec_.after > 0 ? spec_.after
                      : 1 + static_cast<int>(rng.uniform_int(4));
  const bool tear = rng.uniform() < spec_.tear;
  if (u_kill < spec_.kill_rate) {
    decision.kind = ChaosDecision::Kind::kill;
    decision.after = drawn_after;
    decision.tear = tear;
  } else if (u_stall < spec_.stall_rate) {
    decision.kind = ChaosDecision::Kind::stall;
    decision.after = drawn_after;
  }
  return decision;
}

}  // namespace ssdtrain::orchestrate

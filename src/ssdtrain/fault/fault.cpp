#include "ssdtrain/fault/fault.hpp"

#include <cerrno>
#include <cstdlib>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::fault {

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::ssd_latency:
      return "ssd-latency";
    case FaultKind::ssd_derate:
      return "ssd-derate";
    case FaultKind::ssd_dropout:
      return "ssd-dropout";
    case FaultKind::io_error:
      return "io-error";
    case FaultKind::pcie_derate:
      return "pcie-derate";
    case FaultKind::nvlink_derate:
      return "nvlink-derate";
    case FaultKind::dp_derate:
      return "dp-derate";
    case FaultKind::gpu_straggler:
      return "gpu-straggler";
    case FaultKind::stage_crash:
      return "stage-crash";
  }
  return "?";
}

FaultKind fault_kind_from(std::string_view name) {
  for (FaultKind kind :
       {FaultKind::ssd_latency, FaultKind::ssd_derate, FaultKind::ssd_dropout,
        FaultKind::io_error, FaultKind::pcie_derate, FaultKind::nvlink_derate,
        FaultKind::dp_derate, FaultKind::gpu_straggler,
        FaultKind::stage_crash}) {
    if (to_string(kind) == name) return kind;
  }
  util::check(false, "unknown fault kind: '" + std::string(name) +
                         "' (known: ssd-latency, ssd-derate, ssd-dropout, "
                         "io-error, pcie-derate, nvlink-derate, dp-derate, "
                         "gpu-straggler, stage-crash)");
  return FaultKind::io_error;  // unreachable
}

std::string FaultSpec::to_text() const {
  std::string out{to_string(kind)};
  std::string args;
  const auto add = [&args](const std::string& kv) {
    if (!args.empty()) args += ',';
    args += kv;
  };
  if (gpu >= 0) add("gpu=" + std::to_string(gpu));
  if (kind == FaultKind::ssd_dropout) add("member=" + std::to_string(member));
  if (at != 0.0) add("at=" + util::format_fixed(at, 6));
  if (duration != open_ended) add("dur=" + util::format_fixed(duration, 6));
  if (factor != 1.0) add("factor=" + util::format_fixed(factor, 6));
  if (rate != 0.0) add("rate=" + util::format_fixed(rate, 6));
  if (latency != 0.0) add("latency=" + util::format_fixed(latency, 6));
  // `recover` is implied by the loss mode (validate rejects every other
  // combination), so lose=state alone round-trips the full semantics.
  if (lose == CrashLoss::state) add("lose=state");
  if (!args.empty()) out += ":" + args;
  return out;
}

namespace {

double parse_number(std::string_view key, std::string_view value) {
  const std::string text(value);
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(text.c_str(), &end);
  util::expects(end != text.c_str() && end == text.c_str() + text.size() &&
                    errno != ERANGE,
                "--faults: '" + std::string(key) + "' expects a number, got '" +
                    text + "'");
  return x;
}

int parse_index(std::string_view key, std::string_view value, int lo) {
  const double x = parse_number(key, value);
  // Range first: casting an out-of-range double (or NaN) to int is UB.
  util::expects(x >= lo && x <= 4096 && x == static_cast<int>(x),
                "--faults: '" + std::string(key) +
                    "' expects an integer >= " + std::to_string(lo) +
                    ", got '" + std::string(value) + "'");
  return static_cast<int>(x);
}

void apply_key(FaultSpec& spec, std::string_view key, std::string_view value) {
  if (key == "gpu") {
    spec.gpu = parse_index(key, value, -1);
  } else if (key == "member") {
    spec.member = parse_index(key, value, 0);
  } else if (key == "at") {
    spec.at = parse_number(key, value);
    util::expects(spec.at >= 0.0, "--faults: 'at' must be >= 0");
  } else if (key == "dur") {
    spec.duration = parse_number(key, value);
    util::expects(spec.duration > 0.0, "--faults: 'dur' must be > 0");
  } else if (key == "factor") {
    spec.factor = parse_number(key, value);
    util::expects(spec.factor > 0.0, "--faults: 'factor' must be > 0");
  } else if (key == "rate") {
    spec.rate = parse_number(key, value);
    util::expects(spec.rate >= 0.0 && spec.rate <= 1.0,
                  "--faults: 'rate' must be in [0, 1]");
  } else if (key == "latency") {
    spec.latency = parse_number(key, value);
    util::expects(spec.latency >= 0.0, "--faults: 'latency' must be >= 0");
  } else if (key == "lose") {
    if (value == "none") {
      spec.lose = CrashLoss::none;
    } else if (value == "state") {
      spec.lose = CrashLoss::state;
    } else {
      util::expects(false, "--faults: 'lose' expects none|state, got '" +
                               std::string(value) + "'");
    }
  } else if (key == "recover") {
    if (value == "resume") {
      spec.recover = CrashRecovery::resume;
    } else if (value == "rollback") {
      spec.recover = CrashRecovery::rollback;
    } else {
      util::expects(false,
                    "--faults: 'recover' expects resume|rollback, got '" +
                        std::string(value) + "'");
    }
  } else {
    util::expects(false, "--faults: unknown key '" + std::string(key) +
                             "' (known: gpu, member, at, dur, factor, rate, "
                             "latency, lose, recover)");
  }
}

void validate(const FaultSpec& spec) {
  switch (spec.kind) {
    case FaultKind::ssd_latency:
      util::expects(spec.latency > 0.0,
                    "--faults: ssd-latency needs latency=SECONDS");
      break;
    case FaultKind::io_error:
      util::expects(spec.rate > 0.0, "--faults: io-error needs rate=P");
      break;
    case FaultKind::ssd_derate:
    case FaultKind::pcie_derate:
    case FaultKind::nvlink_derate:
    case FaultKind::dp_derate:
      util::expects(spec.factor > 0.0 && spec.factor <= 1.0,
                    "--faults: derate factor must be in (0, 1]");
      break;
    case FaultKind::gpu_straggler:
      util::expects(spec.factor >= 1.0,
                    "--faults: gpu-straggler factor must be >= 1");
      break;
    case FaultKind::stage_crash:
      util::expects(spec.duration != FaultSpec::open_ended,
                    "--faults: stage-crash needs dur=SECONDS");
      util::expects(!(spec.lose == CrashLoss::state &&
                      spec.recover == CrashRecovery::resume),
                    "--faults: stage-crash lose=state wipes the stage's "
                    "device state, so recover=resume is impossible — use "
                    "recover=rollback (or omit it)");
      util::expects(!(spec.lose == CrashLoss::none &&
                      spec.recover == CrashRecovery::rollback),
                    "--faults: stage-crash recover=rollback requires "
                    "lose=state (a pause-only crash has nothing to roll "
                    "back)");
      break;
    case FaultKind::ssd_dropout:
      break;
  }
  if (spec.kind != FaultKind::stage_crash) {
    util::expects(spec.lose == CrashLoss::none &&
                      spec.recover == CrashRecovery::unset,
                  "--faults: 'lose'/'recover' apply only to stage-crash");
  }
}

FaultSpec parse_spec(std::string_view text) {
  util::expects(!text.empty(), "--faults: empty fault spec");
  FaultSpec spec;
  const std::size_t colon = text.find(':');
  spec.kind = fault_kind_from(text.substr(0, colon));
  if (colon != std::string_view::npos) {
    std::string_view args = text.substr(colon + 1);
    util::expects(!args.empty(), "--faults: trailing ':' in '" +
                                     std::string(text) + "'");
    std::size_t start = 0;
    while (start <= args.size()) {
      std::size_t comma = args.find(',', start);
      if (comma == std::string_view::npos) comma = args.size();
      const std::string_view item = args.substr(start, comma - start);
      const std::size_t eq = item.find('=');
      util::expects(eq != std::string_view::npos && eq > 0 &&
                        eq + 1 <= item.size() && eq + 1 < item.size(),
                    "--faults: entries must look like key=value, got '" +
                        std::string(item) + "'");
      apply_key(spec, item.substr(0, eq), item.substr(eq + 1));
      start = comma + 1;
      if (comma == args.size()) break;
    }
  }
  validate(spec);
  return spec;
}

}  // namespace

std::vector<FaultSpec> parse_faults(std::string_view text) {
  std::vector<FaultSpec> specs;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t semi = text.find(';', start);
    if (semi == std::string_view::npos) semi = text.size();
    const std::string_view item = text.substr(start, semi - start);
    if (!item.empty()) specs.push_back(parse_spec(item));
    start = semi + 1;
    if (semi == text.size()) break;
  }
  return specs;
}

}  // namespace ssdtrain::fault

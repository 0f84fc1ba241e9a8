#pragma once

/// \file check.hpp
/// Lightweight contract checking in the spirit of GSL Expects/Ensures.
/// Violations throw ContractViolation carrying the failing expression text
/// and source location; they are programming errors, not recoverable states.

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ssdtrain::util {

/// Thrown when a precondition, postcondition, or invariant check fails.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(std::string_view kind, std::string_view what,
                    const std::source_location& loc)
      : std::logic_error(format(kind, what, loc)) {}

 private:
  static std::string format(std::string_view kind, std::string_view what,
                            const std::source_location& loc) {
    std::string msg;
    msg += kind;
    msg += " failed: ";
    // what() is a C string: an embedded NUL (e.g. quoted from malformed
    // input) would cut the message and the location short.
    for (const char c : what) {
      if (c == '\0') {
        msg += "\\0";
      } else {
        msg += c;
      }
    }
    msg += " at ";
    msg += loc.file_name();
    msg += ":";
    msg += std::to_string(loc.line());
    msg += " (";
    msg += loc.function_name();
    msg += ")";
    return msg;
  }
};

/// Precondition check: call at function entry.
inline void expects(bool condition, std::string_view what = "precondition",
                    const std::source_location loc =
                        std::source_location::current()) {
  if (!condition) throw ContractViolation("Expects", what, loc);
}

/// Postcondition check: call before returning.
inline void ensures(bool condition, std::string_view what = "postcondition",
                    const std::source_location loc =
                        std::source_location::current()) {
  if (!condition) throw ContractViolation("Ensures", what, loc);
}

/// General invariant / internal-consistency check.
inline void check(bool condition, std::string_view what = "invariant",
                  const std::source_location loc =
                      std::source_location::current()) {
  if (!condition) throw ContractViolation("Check", what, loc);
}

/// Marks unreachable code paths.
[[noreturn]] inline void unreachable(
    std::string_view what = "unreachable code",
    const std::source_location loc = std::source_location::current()) {
  throw ContractViolation("Unreachable", what, loc);
}

}  // namespace ssdtrain::util

#pragma once

// Seeded mutational fuzzing for the text grammars (--faults, --chaos).
// clang/libFuzzer is not a dependency, so the loop runs inside GoogleTest:
// start from a corpus of valid specs, apply byte flips, inserts, deletions,
// splices with other corpus entries and truncation, and hand every result
// to the parser. An input must either parse or be rejected with a
// util::ContractViolation that carries a message; any other exception
// fails the test, and a crash or UB fails it under the sanitizer build.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "ssdtrain/util/check.hpp"

namespace grammar_fuzz {

struct Outcome {
  int parsed = 0;
  int rejected = 0;
};

/// A random byte, biased half the time toward the grammar's own alphabet
/// so mutants reach past the first token.
inline char random_byte(std::mt19937_64& rng) {
  static constexpr std::string_view kAlphabet = ";:,=.-+e0123456789xn";
  if (rng() % 2 == 0) return kAlphabet[rng() % kAlphabet.size()];
  return static_cast<char>(rng() % 256);
}

inline std::string mutate(const std::vector<std::string>& corpus,
                          std::mt19937_64& rng) {
  std::string text = corpus[rng() % corpus.size()];
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = text.empty() ? 0 : rng() % (text.size() + 1);
    switch (rng() % 5) {
      case 0:  // flip one byte
        if (!text.empty()) text[rng() % text.size()] = random_byte(rng);
        break;
      case 1:  // insert one byte
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    random_byte(rng));
        break;
      case 2:  // delete a short run
        if (at < text.size()) text.erase(at, 1 + rng() % 4);
        break;
      case 3: {  // splice: our prefix + another spec's suffix
        const std::string& other = corpus[rng() % corpus.size()];
        const std::size_t cut = rng() % (other.size() + 1);
        text = text.substr(0, at) + other.substr(cut);
        break;
      }
      default:  // truncate
        text.resize(at);
        break;
    }
  }
  return text;
}

/// Runs \p iterations mutants of \p corpus through \p parse.
template <typename Parse>
Outcome run(const std::vector<std::string>& corpus, std::uint64_t seed,
            int iterations, Parse parse) {
  std::mt19937_64 rng(seed);
  Outcome outcome;
  for (int i = 0; i < iterations; ++i) {
    const std::string input = mutate(corpus, rng);
    try {
      parse(input);
      ++outcome.parsed;
    } catch (const ssdtrain::util::ContractViolation& e) {
      // "<kind> failed: <message> at <file>:<line> (<function>)"
      const std::string_view what = e.what();
      const std::size_t begin = what.find(" failed: ");
      const std::size_t end = what.rfind(" at ");
      EXPECT_TRUE(begin != std::string_view::npos &&
                  end != std::string_view::npos && end > begin + 9)
          << "rejection without a message: " << what << "\ninput: " << input;
      ++outcome.rejected;
    }
  }
  return outcome;
}

}  // namespace grammar_fuzz

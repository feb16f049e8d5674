// Seeded mutation robustness test for the mini-HPF parser: 20,000 byte- and
// token-level mutations of the example programs are fed to dsl::parse, and
// each must either parse or throw dsl_error — no other exception, crash or
// hang. The seed is fixed, so a failure reproduces exactly; the run stays
// well under two seconds.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "cyclick/compiler/lexer.hpp"
#include "cyclick/compiler/parser.hpp"

namespace cyclick::dsl {
namespace {

std::string read_program(const std::string& name) {
  std::ifstream in(std::string(CYCLICK_EXAMPLE_PROGRAMS) + "/" + name);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Fragments a token-level mutation splices in: keywords, punctuation,
// numbers at and past the integer limits, and section triplets.
constexpr std::array<std::string_view, 40> kTokens = {
    "processors", "template", "distribute", "onto", "cyclic", "block", "array", "align",
    "with", "forall", "where", "repeat", "end", "print", "explain", "redistribute",
    "cshift", "eoshift", "sum", "max", "min", "(", ")", ":", ",", "=", "+", "-", "*", "/",
    "<", ">", "\n", "#", "0", "-1", "9223372036854775807", "99999999999999999999",
    "(0:319:0)", "T(i)"};

std::string mutate(std::string text, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % static_cast<std::uint64_t>(n));
  };
  const int edits = 1 + static_cast<int>(pick(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = text.empty() ? 0 : pick(text.size());
    switch (pick(6)) {
      case 0:  // replace a byte with any byte value
        if (!text.empty()) text[at] = static_cast<char>(pick(256));
        break;
      case 1:  // delete a run of bytes
        if (!text.empty()) text.erase(at, 1 + pick(8));
        break;
      case 2:  // duplicate a run of bytes
        if (!text.empty()) text.insert(at, text.substr(at, 1 + pick(16)));
        break;
      case 3:  // truncate
        text.resize(at);
        break;
      default:  // splice in a token
        text.insert(at, kTokens[pick(kTokens.size())]);
        break;
    }
  }
  return text;
}

TEST(DslMutation, EveryMutantParsesOrThrowsDslError) {
  const std::vector<std::string> programs = {
      read_program("block_scatter.hpf"), read_program("heat2d.hpf"),
      read_program("jacobi_iterative.hpf"), read_program("redistribution.hpf"),
      read_program("relaxation.hpf")};
  for (const std::string& p : programs) {
    ASSERT_FALSE(p.empty()) << "example program not found";
    ASSERT_NO_THROW((void)parse(p));
  }

  std::mt19937_64 rng(20261018);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 20'000; ++i) {
    const std::string mutant = mutate(programs[static_cast<std::size_t>(i) % programs.size()], rng);
    try {
      (void)parse(mutant);
      ++parsed;
    } catch (const dsl_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " threw " << typeid(e).name() << ": " << e.what()
             << "\n--- input ---\n"
             << mutant;
    }
  }
  // Both outcomes occur, so the mutations neither all miss nor all break.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace cyclick::dsl

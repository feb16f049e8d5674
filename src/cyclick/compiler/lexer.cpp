#include "cyclick/compiler/lexer.hpp"

#include <cctype>
#include <limits>

namespace cyclick {

std::vector<Token> lex(std::string_view source) {
  std::vector<Token> toks;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = source.size();

  const auto push = [&](TokKind kind, std::string text, i64 value = 0) {
    toks.push_back({kind, std::move(text), value, line});
  };

  while (i < n) {
    const char c = source[i];
    if (c == '#') {  // comment to end of line
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    if (c == '\n') {
      // Collapse runs of newlines into one separator token.
      if (!toks.empty() && toks.back().kind != TokKind::kNewline) push(TokKind::kNewline, "\\n");
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i;
      i64 value = 0;
      while (j < n && std::isdigit(static_cast<unsigned char>(source[j])) != 0) {
        const i64 digit = source[j] - '0';
        if (value > (std::numeric_limits<i64>::max() - digit) / 10) {
          while (j < n && std::isdigit(static_cast<unsigned char>(source[j])) != 0) ++j;
          throw dsl_error("integer literal " + std::string(source.substr(i, j - i)) +
                              " is out of range",
                          line);
        }
        value = value * 10 + digit;
        ++j;
      }
      push(TokKind::kNumber, std::string(source.substr(i, j - i)), value);
      i = j;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(source[j])) != 0 ||
                       source[j] == '_')) {
        ++j;
      }
      push(TokKind::kIdent, std::string(source.substr(i, j - i)));
      i = j;
      continue;
    }
    const bool eq_next = i + 1 < n && source[i + 1] == '=';
    switch (c) {
      case '(': push(TokKind::kLParen, "("); break;
      case ')': push(TokKind::kRParen, ")"); break;
      case ':': push(TokKind::kColon, ":"); break;
      case ',': push(TokKind::kComma, ","); break;
      case '+': push(TokKind::kPlus, "+"); break;
      case '-': push(TokKind::kMinus, "-"); break;
      case '*': push(TokKind::kStar, "*"); break;
      case '/': push(TokKind::kSlash, "/"); break;
      case '=':
        if (eq_next) {
          push(TokKind::kEqEq, "==");
          ++i;
        } else {
          push(TokKind::kAssign, "=");
        }
        break;
      case '<':
        if (eq_next) {
          push(TokKind::kLessEq, "<=");
          ++i;
        } else {
          push(TokKind::kLess, "<");
        }
        break;
      case '>':
        if (eq_next) {
          push(TokKind::kGreaterEq, ">=");
          ++i;
        } else {
          push(TokKind::kGreater, ">");
        }
        break;
      case '!':
        if (eq_next) {
          push(TokKind::kNotEq, "!=");
          ++i;
        } else {
          throw dsl_error("unexpected character '!' (did you mean '!='?)", line);
        }
        break;
      default:
        throw dsl_error(std::string("unexpected character '") + c + "'", line);
    }
    ++i;
  }
  if (!toks.empty() && toks.back().kind != TokKind::kNewline) push(TokKind::kNewline, "\\n");
  push(TokKind::kEnd, "<end>");
  return toks;
}

}  // namespace cyclick

// Tests for the mini-HPF DSL lexer.
#include <gtest/gtest.h>

#include "cyclick/compiler/lexer.hpp"

namespace cyclick {
namespace {

std::vector<TokKind> kinds(const std::vector<Token>& toks) {
  std::vector<TokKind> out;
  out.reserve(toks.size());
  for (const Token& t : toks) out.push_back(t.kind);
  return out;
}

TEST(Lexer, SimpleStatement) {
  const auto toks = lex("processors P(4)");
  ASSERT_EQ(toks.size(), 7u);
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[0].text, "processors");
  EXPECT_EQ(toks[1].text, "P");
  EXPECT_EQ(toks[2].kind, TokKind::kLParen);
  EXPECT_EQ(toks[3].kind, TokKind::kNumber);
  EXPECT_EQ(toks[3].value, 4);
  EXPECT_EQ(toks[4].kind, TokKind::kRParen);
  EXPECT_EQ(toks[5].kind, TokKind::kNewline);
  EXPECT_EQ(toks[6].kind, TokKind::kEnd);
}

TEST(Lexer, OperatorsAndSectionSyntax) {
  const auto toks = lex("A(4:300:9) = 2*B(0:9) + 1");
  const std::vector<TokKind> want{
      TokKind::kIdent,  TokKind::kLParen, TokKind::kNumber, TokKind::kColon,
      TokKind::kNumber, TokKind::kColon,  TokKind::kNumber, TokKind::kRParen,
      TokKind::kAssign, TokKind::kNumber, TokKind::kStar,   TokKind::kIdent,
      TokKind::kLParen, TokKind::kNumber, TokKind::kColon,  TokKind::kNumber,
      TokKind::kRParen, TokKind::kPlus,   TokKind::kNumber, TokKind::kNewline,
      TokKind::kEnd};
  EXPECT_EQ(kinds(toks), want);
}

TEST(Lexer, CommentsAreSkipped) {
  const auto toks = lex("# a comment line\nprocessors P(2) # trailing\n# another\n");
  EXPECT_EQ(toks[0].text, "processors");
  // Comment content never appears.
  for (const Token& t : toks) EXPECT_NE(t.text, "comment");
}

TEST(Lexer, NewlineRunsCollapse) {
  const auto toks = lex("a\n\n\nb");
  const std::vector<TokKind> want{TokKind::kIdent, TokKind::kNewline, TokKind::kIdent,
                                  TokKind::kNewline, TokKind::kEnd};
  EXPECT_EQ(kinds(toks), want);
}

TEST(Lexer, LineNumbersTrackNewlines) {
  const auto toks = lex("a\nb\n\nc");
  EXPECT_EQ(toks[0].line, 1);  // a
  EXPECT_EQ(toks[2].line, 2);  // b
  EXPECT_EQ(toks[4].line, 4);  // c
}

TEST(Lexer, IdentifiersWithUnderscoresAndDigits) {
  const auto toks = lex("my_array_2");
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[0].text, "my_array_2");
}

TEST(Lexer, ComparisonOperators) {
  const auto toks = lex("a < b <= c > d >= e == f != g = h");
  const std::vector<TokKind> want{
      TokKind::kIdent, TokKind::kLess,      TokKind::kIdent, TokKind::kLessEq,
      TokKind::kIdent, TokKind::kGreater,   TokKind::kIdent, TokKind::kGreaterEq,
      TokKind::kIdent, TokKind::kEqEq,      TokKind::kIdent, TokKind::kNotEq,
      TokKind::kIdent, TokKind::kAssign,    TokKind::kIdent, TokKind::kNewline,
      TokKind::kEnd};
  EXPECT_EQ(kinds(toks), want);
}

TEST(Lexer, BangWithoutEqualsRejected) {
  EXPECT_THROW(lex("a ! b"), dsl_error);
}

TEST(Lexer, IntegerLiteralBeyondI64Rejected) {
  EXPECT_EQ(lex("9223372036854775807").front().value, 9223372036854775807);
  EXPECT_THROW(lex("9223372036854775808"), dsl_error);
  EXPECT_THROW(lex("x = 99999999999999999999"), dsl_error);
}

TEST(Lexer, AdjacentEqualsDisambiguate) {
  // "===" lexes as '==' then '='.
  const auto toks = lex("===");
  EXPECT_EQ(toks[0].kind, TokKind::kEqEq);
  EXPECT_EQ(toks[1].kind, TokKind::kAssign);
}

TEST(Lexer, UnexpectedCharacterThrowsWithLine) {
  try {
    lex("ok\n@bad");
    FAIL() << "expected dsl_error";
  } catch (const dsl_error& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Lexer, EmptySource) {
  const auto toks = lex("");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, TokKind::kEnd);
}

}  // namespace
}  // namespace cyclick

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/matrix_market.hpp"

namespace bpm::graph {
namespace {

/// The parser's error message for `text`, or "" if it parses.
std::string parse_error(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)read_matrix_market(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(MatrixMarket, ReadsPatternGeneral) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% a comment\n"
      "3 4 3\n"
      "1 1\n"
      "+2\t3\n"  // the stream reader accepted a '+' sign and tabs
      "3 4\n");
  const BipartiteGraph g = read_matrix_market(in);
  EXPECT_EQ(g.num_rows(), 3);
  EXPECT_EQ(g.num_cols(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.has_edge(0, 0));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(MatrixMarket, ReadsRealValuesIgnoringMagnitudes) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 2 3.5\n"
      "2 1 -0.25e2\n");
  const BipartiteGraph g = read_matrix_market(in);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
}

TEST(MatrixMarket, ReadsIntegerAndComplexFields) {
  std::istringstream in_int(
      "%%MatrixMarket matrix coordinate integer general\n"
      "1 1 1\n"
      "1 1 7\n");
  EXPECT_EQ(read_matrix_market(in_int).num_edges(), 1);

  std::istringstream in_cplx(
      "%%MatrixMarket matrix coordinate complex general\n"
      "1 1 1\n"
      "1 1 1.0 -2.0\n");
  EXPECT_EQ(read_matrix_market(in_cplx).num_edges(), 1);
}

TEST(MatrixMarket, SymmetricMirrorsOffDiagonal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n");
  const BipartiteGraph g = read_matrix_market(in);
  // (2,1) mirrors to (1,2); (3,3) is diagonal, no mirror.
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 2));
}

TEST(MatrixMarket, RejectsMalformedHeader) {
  std::istringstream in("%%NotMatrixMarket whatever\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsArrayFormat) {
  std::istringstream in("%%MatrixMarket matrix array real general\n1 1\n1.0\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsOutOfBoundsEntry) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "3 1\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsTruncatedFile) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsMissingValueInRealFile) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "1 1 1\n"
      "1 1\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsNegativeDimensionsAtTheSizeLine) {
  for (const char* size_line : {"-3 4 0", "3 -4 0", "-3 -4 2"}) {
    SCOPED_TRACE(size_line);
    EXPECT_EQ(parse_error(std::string("%%MatrixMarket matrix coordinate "
                                      "pattern general\n") +
                          size_line + "\n1 1\n1 2\n"),
              "matrix market: line 2: negative dimension");
  }
}

TEST(MatrixMarket, RejectsNonSquareSymmetricAtTheSizeLine) {
  // Only diagonal entries, or none: nothing needs mirroring, but the
  // header still describes a square matrix the size line contradicts.
  for (const char* header : {"pattern symmetric", "real skew-symmetric",
                             "complex hermitian"}) {
    for (const char* rest : {"3 4 0\n", "3 4 1\n2 2 1 1\n"}) {
      SCOPED_TRACE(std::string(header) + " / " + rest);
      EXPECT_EQ(parse_error(std::string("%%MatrixMarket matrix coordinate ") +
                            header + "\n% comment\n" + rest),
                "matrix market: line 3: symmetric matrix must be square");
    }
  }
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  // Large enough that the text spans many read blocks, so some entry line
  // is cut by a block boundary and must be carried into the next fill.
  const BipartiteGraph g = gen::random_uniform(20000, 30000, 120000, 13);
  ASSERT_GE(g.num_edges(), 100000);
  std::stringstream buffer;
  write_matrix_market(buffer, g);
  const std::string text = buffer.str();
  ASSERT_GT(text.size(), std::size_t{1} << 20);

  std::string crlf, commented;
  std::size_t line = 0;
  for (const char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
    commented += c;
    if (c == '\n' && ++line > 3 && line % 1000 == 0)
      commented += "% a comment between entries\n";
  }
  const std::string unterminated = text.substr(0, text.size() - 1);

  // The same text with each entry line "u v" rewritten by `entry`; the
  // header, comment and size lines (the first three) are kept.
  const auto rewrite = [&](auto entry) {
    std::string out;
    std::size_t begin = 0;
    for (std::size_t n = 1; begin < text.size(); ++n) {
      const std::size_t end = text.find('\n', begin);
      const std::string_view l(text.data() + begin, end - begin);
      if (n <= 3) {
        out += l;
      } else {
        const std::size_t space = l.find(' ');
        out += entry(l.substr(0, space), l.substr(space + 1));
      }
      out += '\n';
      begin = end + 1;
    }
    return out;
  };
  const std::string blanks = rewrite([](auto u, auto v) {
    return " \t " + std::string(u) + "\t \t" + std::string(v);
  });
  const std::string plus = rewrite([](auto u, auto v) {
    return "+" + std::string(u) + " +" + std::string(v);
  });
  const std::string junk = rewrite([](auto u, auto v) {
    return std::string(u) + " " + std::string(v) + " x% 7\t";
  });
  std::string real = rewrite([](auto u, auto v) {
    return std::string(u) + " " + std::string(v) + " -1.25e-3";
  });
  real.replace(real.find("pattern"), 7, "real");
  // Two comment lines meet at the first 64 KiB block boundary: one ends
  // exactly there, the next starts the second block.
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  std::string edge = text;
  const std::size_t at = edge.rfind('\n', kBlock - 3) + 1;
  edge.insert(at, "%" + std::string(kBlock - at - 2, 'x') + "\n% second\n");
  ASSERT_EQ(edge[kBlock - 1], '\n');
  ASSERT_EQ(edge[kBlock], '%');

  const struct {
    const char* name;
    const std::string& input;
  } cases[] = {{"as written", text},
               {"crlf", crlf},
               {"no final newline", unterminated},
               {"comments between entries", commented},
               {"blanks and tabs between fields", blanks},
               {"plus signs", plus},
               {"trailing junk", junk},
               {"real header with values", real},
               {"comment at a block boundary", edge}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::istringstream in(c.input);
    const BipartiteGraph h = read_matrix_market(in);
    EXPECT_EQ(h.num_rows(), g.num_rows());
    EXPECT_EQ(h.num_cols(), g.num_cols());
    EXPECT_EQ(h.row_ptr(), g.row_ptr());
    EXPECT_EQ(h.row_adj(), g.row_adj());
    EXPECT_EQ(h.col_ptr(), g.col_ptr());
    EXPECT_EQ(h.col_adj(), g.col_adj());
  }
}

TEST(MatrixMarket, RejectsTrailingEntriesBeyondDeclaredNnz) {
  // The header declares 2 entries but the file carries 3: silently
  // ignoring the tail would return a graph that is not what the file
  // describes.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 3 2\n"
      "1 1\n"
      "2 2\n"
      "3 3\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, AllowsTrailingCommentsAndBlankLines) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 3 2\n"
      "1 1\n"
      "2 2\n"
      "% a trailing comment is fine\n"
      "   \n"
      "\n");
  EXPECT_EQ(read_matrix_market(in).num_edges(), 2);
}

TEST(MatrixMarket, RejectsPatternSkewSymmetricHeader) {
  // skew-symmetric needs signed values; a pattern field has none — the
  // combination is a contradiction, not a representable matrix.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern skew-symmetric\n"
      "3 3 1\n"
      "2 1\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RealSkewSymmetricStillReads) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "3 3 1\n"
      "2 1 -4.0\n");
  EXPECT_EQ(read_matrix_market(in).num_edges(), 2);  // mirrored
}

TEST(MatrixMarket, FileNotFoundThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/path.mtx"),
               std::runtime_error);
}

TEST(MatrixMarket, CaseInsensitiveHeader) {
  std::istringstream in(
      "%%MatrixMarket MATRIX Coordinate Pattern General\n"
      "1 1 1\n"
      "1 1\n");
  EXPECT_EQ(read_matrix_market(in).num_edges(), 1);
}

}  // namespace
}  // namespace bpm::graph

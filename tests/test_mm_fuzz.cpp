// Failure-injection tests for the Matrix Market parser: deterministic
// pseudo-random corruptions of valid files.  The contract under attack is
// narrow — for ANY input the parser either returns a structurally valid
// graph or throws std::runtime_error; it must never crash, hang, or hand
// back a graph that fails validate().

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <streambuf>
#include <string>

#include "graph/matrix_market.hpp"
#include "util/rng.hpp"

namespace bpm::graph {
namespace {

std::string valid_file() {
  return
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% comment line\n"
      "6 7 9\n"
      "1 1\n"
      "2 3\n"
      "3 4\n"
      "4 2\n"
      "5 5\n"
      "6 6\n"
      "1 7\n"
      "2 6\n"
      "3 1\n";
}

/// Parse attempt that asserts the never-crash contract.
void expect_parse_or_throw(const std::string& content) {
  std::istringstream in(content);
  try {
    const BipartiteGraph g = read_matrix_market(in);
    g.validate();  // throws std::logic_error on internal inconsistency
  } catch (const std::runtime_error&) {
    // Rejection is fine; std::logic_error from validate() would mean the
    // parser built a broken graph and is NOT caught here on purpose.
  }
}

TEST(MmFuzz, ByteMutations) {
  const std::string base = valid_file();
  Rng rng(2013);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<std::size_t>(rng.below(mutated.size()));
      const char replacement =
          static_cast<char>(' ' + static_cast<char>(rng.below(95)));
      mutated[pos] = replacement;
    }
    expect_parse_or_throw(mutated);
  }
}

TEST(MmFuzz, TruncationsAtEveryLength) {
  const std::string base = valid_file();
  for (std::size_t len = 0; len <= base.size(); ++len)
    expect_parse_or_throw(base.substr(0, len));
}

TEST(MmFuzz, LineDeletionsAndDuplications) {
  const std::string base = valid_file();
  std::vector<std::string> lines;
  std::istringstream in(base);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);

  for (std::size_t drop = 0; drop < lines.size(); ++drop) {
    std::string content;
    for (std::size_t i = 0; i < lines.size(); ++i)
      if (i != drop) content += lines[i] + "\n";
    expect_parse_or_throw(content);
  }
  for (std::size_t dup = 0; dup < lines.size(); ++dup) {
    std::string content;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      content += lines[i] + "\n";
      if (i == dup) content += lines[i] + "\n";
    }
    expect_parse_or_throw(content);
  }
}

TEST(MmFuzz, HostileSizeLines) {
  // Symmetric headers double the entry count internally, so a huge
  // declared nnz must not overflow on the way to the reserve hint.
  for (const char* header : {
           "%%MatrixMarket matrix coordinate pattern general\n",
           "%%MatrixMarket matrix coordinate pattern symmetric\n",
       }) {
    for (const char* size_line : {
             "0 0 0", "1 1 999999999", "-1 5 2", "5 -1 2", "5 5 -2",
             "99999999999999999999 5 1", "5 99999999999999999999 1",
             "5 5 9000000000000000000", "1e9 5 1", "5 5", "5", "", "a b c",
             "5 5 1 extra",
         }) {
      std::string content = header;
      content += size_line;
      content += "\n1 1\n";
      expect_parse_or_throw(content);
    }
  }
}

TEST(MmFuzz, HostileEntryLines) {
  for (const char* entry : {
           "0 1", "1 0", "7 1", "1 8", "-1 -1", "1.5 2", "1 2.5",
           "99999999999999999999 1", "nan 1", "1 inf", "x y",
       }) {
    std::string content =
        "%%MatrixMarket matrix coordinate pattern general\n6 7 1\n";
    content += entry;
    content += "\n";
    expect_parse_or_throw(content);
  }
}

TEST(MmFuzz, GarbageStreams) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    const auto len = rng.below(400);
    for (std::uint64_t i = 0; i < len; ++i)
      garbage += static_cast<char>(rng.below(256));
    expect_parse_or_throw(garbage);
  }
}

/// An endless stream of one byte, like /dev/zero; counts the bytes served.
class EndlessBuf final : public std::streambuf {
 public:
  explicit EndlessBuf(char fill) : block_(std::size_t{1} << 16, fill) {}
  std::size_t served = 0;

 protected:
  int_type underflow() override {
    setg(block_.data(), block_.data(), block_.data() + block_.size());
    served += block_.size();
    return traits_type::to_int_type(block_[0]);
  }

 private:
  std::string block_;
};

std::string parse_error(std::istream& in) {
  try {
    (void)read_matrix_market(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(MmFuzz, OverlongLinesFailAtTheCap) {
  // A stream without a newline must fail once one line passes 1 MiB,
  // not grow the line buffer for as long as the stream lasts.
  EndlessBuf zeros('\0');
  std::istream endless(&zeros);
  EXPECT_NE(parse_error(endless).find("matrix market: line 1: line longer"),
            std::string::npos);
  EXPECT_LE(zeros.served, std::size_t{2} << 20);

  // The error names the overlong line.
  std::istringstream third("%%MatrixMarket matrix coordinate pattern "
                           "general\n6 7 1\n" +
                           std::string(std::size_t{3} << 20, '1') + "\n");
  EXPECT_NE(parse_error(third).find("matrix market: line 3: line longer"),
            std::string::npos);

  // A long line under the cap still parses.
  std::string content = valid_file();
  content.insert(content.find('\n') + 1,
                 "%" + std::string(std::size_t{600} << 10, 'x') + "\n");
  std::istringstream in(content);
  EXPECT_EQ(read_matrix_market(in).num_edges(), 9);
}

TEST(MmFuzz, ShortLinesBeforeALongOneStayLinear) {
  // Blocks that hold many short comment lines and then the start of a
  // long one, read once before the size line and once after the entries.
  // Finding each short line must not rescan the long line's buffered
  // tail: that made each such block cost seconds.
  std::string comments =
      "%" + std::string(std::size_t{600} << 10, 'x') + "\n";  // 1 MiB buffer
  for (int block = 0; block < 2; ++block) {
    for (int n = 0; n < 30000; ++n) comments += "%\n";
    comments += "%" + std::string(std::size_t{900} << 10, 'x') + "\n";
  }
  const std::string header =
      "%%MatrixMarket matrix coordinate pattern general\n";
  for (const std::string& content :
       {header + comments + "2 2 1\n1 1\n",
        header + "2 2 1\n1 1\n" + comments}) {
    std::istringstream in(content);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(read_matrix_market(in).num_edges(), 1);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
  }
}

TEST(MmFuzz, ErrorsDeepInAFileNameTheirLine) {
  // 80000 entry lines (over 600 KB: ten read blocks) with a comment on
  // every 997th line, so an error at line 70000 or later sits many block
  // fills and skipped lines in.  Line n >= 4 holds the entry
  // "n % 900 + 1, n % 800 + 1" (plus a value under a real header) unless
  // it is a comment or the case replaces it.
  constexpr std::size_t kEntries = 80000;
  const auto file = [&](bool real, std::size_t bad_line, const char* bad,
                        std::size_t declared) {
    std::string out = std::string("%%MatrixMarket matrix coordinate ") +
                      (real ? "real" : "pattern") + " general\n% comment\n";
    std::string body;
    std::size_t entries = 0;
    for (std::size_t n = 4; entries < kEntries; ++n) {
      if (n == bad_line) {
        body += bad;
        ++entries;
      } else if (n % 997 == 0) {
        body += "% skipped";
      } else {
        body += std::to_string(n % 900 + 1) + " " +
                std::to_string(n % 800 + 1) + (real ? " 0.5" : "");
        ++entries;
      }
      body += '\n';
    }
    out += "900 800 " + std::to_string(declared == 0 ? entries : declared);
    return out + "\n" + body;
  };
  const struct {
    const char* name;
    std::string text;
    const char* error;
  } cases[] = {
      {"bad entry", file(false, 70001, "7 x", 0),
       "matrix market: line 70001: bad entry"},
      {"out of bounds", file(false, 71234, "901 1", 0),
       "matrix market: line 71234: entry out of bounds"},
      {"missing value", file(true, 72345, "5 6", 0),
       "matrix market: line 72345: missing value"},
      // Declaring one entry fewer makes the last entry line the surplus.
      {"surplus entry", file(false, 0, "", kEntries - 1),
       "matrix market: line 80083: more entries than the declared 79999"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_GT(c.text.size(), std::size_t{9} << 16);
    std::istringstream in(c.text);
    EXPECT_EQ(parse_error(in), c.error);
  }
}

TEST(MmFuzz, ValidBaseStillParses) {
  std::istringstream in(valid_file());
  const BipartiteGraph g = read_matrix_market(in);
  EXPECT_EQ(g.num_rows(), 6);
  EXPECT_EQ(g.num_cols(), 7);
  EXPECT_EQ(g.num_edges(), 9);
}

}  // namespace
}  // namespace bpm::graph

#include "graph/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "graph/builder.hpp"

namespace bpm::graph {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("matrix market: line " + std::to_string(line_no) +
                           ": " + what);
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

/// The separators `istream >>` skips inside one line (C locale).
bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Splits a stream into lines, reading it in fixed-size blocks.  A line cut
/// by a block boundary is carried to the front of the buffer and completed
/// by the next fill, so only one block (or one longer line) is ever held.
/// A line may be at most `kMaxLineBytes` long, newline included: a stream
/// with no newline (e.g. /dev/zero) fails instead of growing the buffer
/// without bound.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in), buf_(kBlockBytes) {}

  /// The next line without its '\n' (the last line may lack one), valid
  /// until the next call.  False once the stream is exhausted.
  bool next(std::string_view& line) {
    for (;;) {
      const char* begin = buf_.data() + pos_;
      if (const void* nl = std::memchr(begin, '\n', end_ - pos_)) {
        const auto len =
            static_cast<std::size_t>(static_cast<const char*>(nl) - begin);
        line = {begin, len};
        pos_ += len + 1;
        ++lines_;
        return true;
      }
      if (eof_) {
        if (pos_ == end_) return false;
        line = {begin, end_ - pos_};
        pos_ = end_;
        ++lines_;
        return true;
      }
      fill();
    }
  }

 private:
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 16;
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

  void fill() {
    const std::size_t carry = end_ - pos_;
    std::memmove(buf_.data(), buf_.data() + pos_, carry);
    // A single line longer than the buffer grows it, up to the cap.
    if (carry == buf_.size()) {
      if (carry >= kMaxLineBytes)
        fail(lines_ + 1, "line longer than " + std::to_string(kMaxLineBytes) +
                             " bytes");
      buf_.resize(2 * carry);
    }
    in_.read(buf_.data() + carry,
             static_cast<std::streamsize>(buf_.size() - carry));
    pos_ = 0;
    end_ = carry + static_cast<std::size_t>(in_.gcount());
    eof_ = !in_;  // a short read sets failbit
  }

  std::istream& in_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  std::size_t lines_ = 0;  ///< lines returned so far (for the cap's error)
  bool eof_ = false;
};

/// Cursor over the fields of one line.  Each reader accepts the tokens
/// `istream >>` accepts for its type: leading blanks, one optional sign
/// (from_chars alone rejects '+'), and no separator required after the
/// number — what follows the last field read is ignored.
class Fields {
 public:
  explicit Fields(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// The next blank-delimited word; empty at the end of the line.
  std::string_view word() {
    skip_blanks();
    const char* begin = p_;
    while (p_ != end_ && !is_blank(*p_)) ++p_;
    return {begin, static_cast<std::size_t>(p_ - begin)};
  }

  bool integer(long long& out) {
    skip_blanks();
    if (p_ != end_ && *p_ == '+') {
      ++p_;
      if (!digit_next()) return false;
    }
    const auto [next, ec] = std::from_chars(p_, end_, out);
    if (ec != std::errc()) return false;
    p_ = next;
    return true;
  }

  /// A real value, parsed and discarded (pattern matching needs none).
  /// Like the stream, rejects nan/inf, overflow and a dangling exponent.
  bool real() {
    skip_blanks();
    if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
    if (!digit_next() && (p_ == end_ || *p_ != '.')) return false;
    double value = 0.0;
    const auto [next, ec] = std::from_chars(p_, end_, value);
    if (ec != std::errc()) return false;
    p_ = next;
    return p_ == end_ || (*p_ != 'e' && *p_ != 'E');
  }

 private:
  void skip_blanks() {
    while (p_ != end_ && is_blank(*p_)) ++p_;
  }
  [[nodiscard]] bool digit_next() const {
    return p_ != end_ && *p_ >= '0' && *p_ <= '9';
  }

  const char* p_;
  const char* end_;
};

bool skippable(std::string_view line) {
  return line.empty() || line[0] == '%';
}

}  // namespace

BipartiteGraph read_matrix_market(std::istream& in) {
  LineReader reader(in);
  std::string_view line;
  std::size_t line_no = 0;

  // --- Header -------------------------------------------------------------
  if (!reader.next(line)) fail(1, "empty stream");
  ++line_no;
  Fields header(line);
  const std::string banner = lower(header.word());
  const std::string object = lower(header.word());
  const std::string format = lower(header.word());
  const std::string field = lower(header.word());
  const std::string symmetry = lower(header.word());
  if (banner != "%%matrixmarket") fail(line_no, "missing banner");
  if (object != "matrix") fail(line_no, "only 'matrix' is supported");
  if (format != "coordinate")
    fail(line_no, "only 'coordinate' (sparse) is supported");
  const bool pattern = field == "pattern";
  const bool complex_field = field == "complex";
  if (!pattern && field != "real" && field != "integer" && !complex_field)
    fail(line_no, "unsupported field type '" + field + "'");
  const bool symmetric = symmetry == "symmetric" ||
                         symmetry == "skew-symmetric" ||
                         symmetry == "hermitian";
  if (!symmetric && symmetry != "general")
    fail(line_no, "unsupported symmetry '" + symmetry + "'");
  // A skew-symmetric matrix has A = -A^T, so its values carry the sign —
  // a pattern field (no values) cannot express that.  The combination is
  // a malformed header, not a representable matrix.
  if (pattern && symmetry == "skew-symmetric")
    fail(line_no, "contradictory header: 'pattern' cannot be "
                  "'skew-symmetric' (signs require values)");

  // --- Size line (skipping comments) --------------------------------------
  long long nrows = -1, ncols = -1, nnz = -1;
  while (reader.next(line)) {
    ++line_no;
    if (skippable(line)) continue;
    Fields size(line);
    if (!size.integer(nrows) || !size.integer(ncols) || !size.integer(nnz))
      fail(line_no, "bad size line");
    break;
  }
  if (nrows < 0) fail(line_no, "missing size line");
  if (nrows > std::numeric_limits<index_t>::max() ||
      ncols > std::numeric_limits<index_t>::max())
    fail(line_no, "matrix too large for 32-bit indices");

  // --- Entries -------------------------------------------------------------
  if (nnz < 0) fail(line_no, "negative entry count");
  std::vector<Edge> edges;
  // Reserve is only a hint: clamp it (before doubling, which could
  // overflow) so a hostile header declaring billions of entries it never
  // provides cannot force a huge upfront allocation.
  constexpr long long kReserveCap = 1 << 22;
  const long long hint = std::min(nnz, kReserveCap);
  edges.reserve(static_cast<std::size_t>(symmetric ? 2 * hint : hint));
  long long seen = 0;
  while (seen < nnz && reader.next(line)) {
    ++line_no;
    if (skippable(line)) continue;
    Fields entry(line);
    long long i = 0, j = 0;
    if (!entry.integer(i) || !entry.integer(j)) fail(line_no, "bad entry");
    if (!pattern) {
      if (!entry.real()) fail(line_no, "missing value");
      if (complex_field && !entry.real())
        fail(line_no, "missing imaginary part");
    }
    if (i < 1 || i > nrows || j < 1 || j > ncols)
      fail(line_no, "entry out of bounds");
    const auto u = static_cast<index_t>(i - 1);
    const auto v = static_cast<index_t>(j - 1);
    edges.push_back({u, v});
    if (symmetric && i != j) {
      // Only the lower triangle is stored; mirror the entry to (j, i).
      if (nrows != ncols) fail(line_no, "symmetric matrix must be square");
      edges.push_back({v, u});
    }
    ++seen;
  }
  if (seen != nnz) fail(line_no, "fewer entries than declared");
  // The declared nnz is a contract: trailing entries mean the header lied
  // (or two files were concatenated) — silently dropping them would hand
  // back a graph that is NOT what the file describes.
  while (reader.next(line)) {
    ++line_no;
    if (skippable(line)) continue;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    fail(line_no, "more entries than the declared " + std::to_string(nnz));
  }

  return build_from_edges(static_cast<index_t>(nrows),
                          static_cast<index_t>(ncols), edges);
}

BipartiteGraph read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("matrix market: cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const BipartiteGraph& g) {
  out << "%%MatrixMarket matrix coordinate pattern general\n";
  out << "% written by bpm (push-relabel bipartite matching reproduction)\n";
  out << g.num_rows() << ' ' << g.num_cols() << ' ' << g.num_edges() << '\n';
  for (index_t u = 0; u < g.num_rows(); ++u)
    for (index_t v : g.row_neighbors(u)) out << u + 1 << ' ' << v + 1 << '\n';
}

void write_matrix_market_file(const std::string& path,
                              const BipartiteGraph& g) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("matrix market: cannot open " + path);
  write_matrix_market(out, g);
}

}  // namespace bpm::graph

#include "graph/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
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

/// The separators `istream >>` skips inside one line (C locale).  '\n' is
/// not one, so no token reader below crosses a line end.
bool is_blank(char c) {
  constexpr std::uint64_t kBlanks =
      1ULL << ' ' | 1ULL << '\t' | 1ULL << '\r' | 1ULL << '\v' | 1ULL << '\f';
  const auto u = static_cast<unsigned char>(c);
  return u <= ' ' && (kBlanks >> u & 1) != 0;
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Whether 1 <= i <= n, for n >= 0.
bool one_based_in(long long i, long long n) {
  return static_cast<unsigned long long>(i) - 1 <
         static_cast<unsigned long long>(n);
}

/// Reads a stream in fixed-size blocks and hands out its whole lines, each
/// ending in '\n': a last line without one gets one appended, which adds
/// no line.  A line cut by a block boundary is carried to the front of the
/// buffer and completed by the next fill, so only one block (or one longer
/// line) is ever held.  A line may be at most `kMaxLineBytes` long,
/// newline included: a stream with no newline (e.g. /dev/zero) fails
/// instead of growing the buffer without bound.  Counts the lines
/// consumed, so every error names its line.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in), buf_(kBlockBytes) {}

  /// Every whole line buffered past the consumed ones, filling first if
  /// there is none.  Empty once the stream is exhausted.  Valid until the
  /// next call.
  std::string_view lines() {
    while (pos_ == whole_end_ && !eof_) fill();
    return {buf_.data() + pos_, whole_end_ - pos_};
  }

  /// Marks `count` lines consumed, ending just before `next`: a line start
  /// in the last `lines()`, or its end.
  void consume(const char* next, std::size_t count) {
    pos_ = static_cast<std::size_t>(next - buf_.data());
    line_no_ += count;
  }

  /// The next line, '\n' included, valid until the next call.  False once
  /// the stream is exhausted.
  bool next(std::string_view& line) {
    const std::string_view rest = lines();
    if (rest.empty()) return false;
    line = rest.substr(0, rest.find('\n') + 1);
    consume(line.data() + line.size(), 1);
    return true;
  }

  /// The number of lines consumed so far: the last one's line number.
  [[nodiscard]] std::size_t line_no() const { return line_no_; }

 private:
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 16;
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

  void fill() {
    const std::size_t carry = end_ - pos_;
    std::memmove(buf_.data(), buf_.data() + pos_, carry);
    // A single line longer than the buffer grows it, up to the cap.
    if (carry == buf_.size()) {
      if (carry >= kMaxLineBytes)
        fail(line_no_ + 1, "line longer than " +
                               std::to_string(kMaxLineBytes) + " bytes");
      buf_.resize(2 * carry);
    }
    in_.read(buf_.data() + carry,
             static_cast<std::streamsize>(buf_.size() - carry));
    pos_ = 0;
    end_ = carry + static_cast<std::size_t>(in_.gcount());
    eof_ = !in_;  // a short read sets failbit
    if (eof_ && end_ != 0 && buf_[end_ - 1] != '\n') {
      if (end_ == buf_.size()) buf_.push_back('\n');
      buf_[end_++] = '\n';
    }
    // Only the new bytes can hold the last newline: the carried part is
    // what followed the previous one.
    std::size_t last = end_;
    while (last != carry && buf_[last - 1] != '\n') --last;
    whole_end_ = last == carry ? 0 : last;
  }

  std::istream& in_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;
  std::size_t whole_end_ = 0;  // just past the last buffered '\n'
  std::size_t end_ = 0;
  std::size_t line_no_ = 0;
  bool eof_ = false;
};

/// Cursor over whole lines from `LineReader`, read in place: the readers
/// take the fields of the current line and `skip_line` moves to the next.
/// Each reader accepts the tokens `istream >>` accepts for its type:
/// leading blanks, one optional sign, and no separator required after the
/// number — what follows the last field read on a line is ignored.  Every
/// line ends in '\n', which stops every reader, so none checks for the
/// end of the text.
class Fields {
 public:
  explicit Fields(std::string_view lines)
      : p_(lines.data()), end_(lines.data() + lines.size()) {}

  /// What is left, from the cursor on.
  [[nodiscard]] std::string_view rest() const {
    return {p_, static_cast<std::size_t>(end_ - p_)};
  }

  /// Moves past the end of the current line.
  void skip_line() {
    while (*p_++ != '\n') {
    }
  }

  /// The next blank-delimited word; empty at the end of the line.
  std::string_view word() {
    skip_blanks();
    const char* begin = p_;
    while (*p_ != '\n' && !is_blank(*p_)) ++p_;
    return {begin, static_cast<std::size_t>(p_ - begin)};
  }

  /// A decimal `long long`; out-of-range values fail, as in from_chars.
  bool integer(long long& out) {
    skip_blanks();
    bool negative = false;
    if (!is_digit(*p_)) {  // a sign, which a digit must follow
      negative = *p_ == '-';
      if (!negative && *p_ != '+') return false;
      if (!is_digit(*++p_)) return false;
    }
    const char* first = p_;
    unsigned long long magnitude = 0;
    do {
      magnitude = 10 * magnitude + static_cast<unsigned>(*p_++ - '0');
    } while (is_digit(*p_));
    // 18 digits always fit.  Past that, leading zeros do not count: 19
    // significant digits cannot wrap the accumulator, and more are out of
    // range.
    if (p_ - first > 18) {
      while (*first == '0') ++first;
      constexpr auto kMax = static_cast<unsigned long long>(
          std::numeric_limits<long long>::max());
      if (p_ - first > 19 || magnitude > kMax + (negative ? 1 : 0))
        return false;
    }
    out = static_cast<long long>(negative ? 0 - magnitude : magnitude);
    return true;
  }

  /// A real value, parsed and discarded (pattern matching needs none).
  /// Like the stream, rejects nan/inf, overflow and a dangling exponent.
  bool real() {
    skip_blanks();
    if (*p_ == '+' || *p_ == '-') ++p_;
    if (!is_digit(*p_) && *p_ != '.') return false;
    double value = 0.0;
    const auto [next, ec] = std::from_chars(p_, end_, value);
    if (ec != std::errc()) return false;
    p_ = next;
    return *p_ != 'e' && *p_ != 'E';
  }

 private:
  void skip_blanks() {
    while (is_blank(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

/// True for a line that holds no entry: an empty line or a '%' comment.
bool skippable(std::string_view line) {
  return line[0] == '\n' || line[0] == '%';
}

}  // namespace

BipartiteGraph read_matrix_market(std::istream& in) {
  LineReader reader(in);
  std::string_view line;

  // --- Header -------------------------------------------------------------
  if (!reader.next(line)) fail(1, "empty stream");
  Fields header(line);
  const std::string banner = lower(header.word());
  const std::string object = lower(header.word());
  const std::string format = lower(header.word());
  const std::string field = lower(header.word());
  const std::string symmetry = lower(header.word());
  if (banner != "%%matrixmarket") fail(1, "missing banner");
  if (object != "matrix") fail(1, "only 'matrix' is supported");
  if (format != "coordinate")
    fail(1, "only 'coordinate' (sparse) is supported");
  const bool pattern = field == "pattern";
  const bool complex_field = field == "complex";
  if (!pattern && field != "real" && field != "integer" && !complex_field)
    fail(1, "unsupported field type '" + field + "'");
  const bool symmetric = symmetry == "symmetric" ||
                         symmetry == "skew-symmetric" ||
                         symmetry == "hermitian";
  if (!symmetric && symmetry != "general")
    fail(1, "unsupported symmetry '" + symmetry + "'");
  // A skew-symmetric matrix has A = -A^T, so its values carry the sign —
  // a pattern field (no values) cannot express that.  The combination is
  // a malformed header, not a representable matrix.
  if (pattern && symmetry == "skew-symmetric")
    fail(1, "contradictory header: 'pattern' cannot be "
            "'skew-symmetric' (signs require values)");

  // --- Size line (skipping comments) --------------------------------------
  long long nrows = 0, ncols = 0, nnz = 0;
  bool sized = false;
  while (!sized && reader.next(line)) {
    if (skippable(line)) continue;
    Fields size(line);
    if (!size.integer(nrows) || !size.integer(ncols) || !size.integer(nnz))
      fail(reader.line_no(), "bad size line");
    sized = true;
  }
  const std::size_t size_line = reader.line_no();
  if (!sized) fail(size_line, "missing size line");
  if (nrows < 0 || ncols < 0) fail(size_line, "negative dimension");
  if (nrows > std::numeric_limits<index_t>::max() ||
      ncols > std::numeric_limits<index_t>::max())
    fail(size_line, "matrix too large for 32-bit indices");
  if (nnz < 0) fail(size_line, "negative entry count");
  if (symmetric && nrows != ncols)
    fail(size_line, "symmetric matrix must be square");

  // --- Entries, scanned in place, a buffer of whole lines at a time -------
  std::vector<Edge> edges;
  // Reserve is only a hint: clamp it (before doubling, which could
  // overflow) so a hostile header declaring billions of entries it never
  // provides cannot force a huge upfront allocation.
  constexpr long long kReserveCap = 1 << 22;
  const long long hint = std::min(nnz, kReserveCap);
  edges.reserve(static_cast<std::size_t>(symmetric ? 2 * hint : hint));
  long long seen = 0;
  while (seen < nnz) {
    Fields entry(reader.lines());
    if (entry.rest().empty()) break;
    std::size_t line_no = reader.line_no();
    while (seen < nnz && !entry.rest().empty()) {
      ++line_no;
      if (skippable(entry.rest())) {
        entry.skip_line();
        continue;
      }
      long long i = 0, j = 0;
      if (!entry.integer(i) || !entry.integer(j)) fail(line_no, "bad entry");
      if (!pattern) {
        if (!entry.real()) fail(line_no, "missing value");
        if (complex_field && !entry.real())
          fail(line_no, "missing imaginary part");
      }
      if (!one_based_in(i, nrows) || !one_based_in(j, ncols))
        fail(line_no, "entry out of bounds");
      entry.skip_line();
      const auto u = static_cast<index_t>(i - 1);
      const auto v = static_cast<index_t>(j - 1);
      edges.push_back({u, v});
      // Only the lower triangle is stored; mirror the entry to (j, i).
      if (symmetric && i != j) edges.push_back({v, u});
      ++seen;
    }
    reader.consume(entry.rest().data(), line_no - reader.line_no());
  }
  if (seen != nnz) fail(reader.line_no(), "fewer entries than declared");
  // The declared nnz is a contract: trailing entries mean the header lied
  // (or two files were concatenated) — silently dropping them would hand
  // back a graph that is NOT what the file describes.
  while (reader.next(line)) {
    if (skippable(line)) continue;
    if (line.find_first_not_of(" \t\r\n") == std::string_view::npos) continue;
    fail(reader.line_no(),
         "more entries than the declared " + std::to_string(nnz));
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

#include "tmwia/io/serialize.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace tmwia::io {
namespace {

constexpr char kTextMagic[] = "TMWIA/1 text";

std::string read_line(std::istream& is, const char* what) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error(std::string("serialize: missing ") + what);
  }
  return line;
}

/// A row of '0'/'1' characters; `what` names it in the error.
bits::BitVector parse_bits(const std::string& text, const std::string& what) {
  if (text.find_first_not_of("01") != std::string::npos) {
    throw std::runtime_error("serialize: " + what + " has a character other than 0/1");
  }
  return bits::BitVector::from_string(text);
}

/// A community member: a decimal player id below `players`.
matrix::PlayerId parse_member(const std::string& token, std::size_t players) {
  std::uint64_t id = 0;
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), id);
  if (ec != std::errc{} || end != token.data() + token.size() || id >= players) {
    throw std::runtime_error("serialize: bad community member '" + token + "'");
  }
  return static_cast<matrix::PlayerId>(id);
}

}  // namespace

void save_matrix_text(const matrix::PreferenceMatrix& m, std::ostream& os) {
  os << kTextMagic << '\n' << m.players() << ' ' << m.objects() << '\n';
  for (matrix::PlayerId p = 0; p < m.players(); ++p) {
    os << m.row(p).to_string() << '\n';
  }
}

matrix::PreferenceMatrix load_matrix_text(std::istream& is) {
  if (read_line(is, "header") != kTextMagic) {
    throw std::runtime_error("serialize: bad text header");
  }
  std::istringstream dims(read_line(is, "dimensions"));
  std::size_t n = 0, m = 0;
  if (!(dims >> n >> m)) throw std::runtime_error("serialize: bad dimensions");
  if (n == 0) throw std::runtime_error("serialize: matrix has 0 players");
  if (m == 0) throw std::runtime_error("serialize: matrix has 0 objects");
  if (n > std::numeric_limits<matrix::PlayerId>::max()) {
    throw std::runtime_error("serialize: more players than 32-bit player ids address");
  }

  // The header only bounds the loop: rows are allocated as they arrive,
  // so a lying header fails on the missing rows instead of allocating.
  std::vector<bits::BitVector> rows;
  for (std::size_t p = 0; p < n; ++p) {
    const auto line = read_line(is, "row");
    if (line.size() != m) throw std::runtime_error("serialize: row length mismatch");
    rows.push_back(parse_bits(line, "row " + std::to_string(p)));
  }
  return matrix::PreferenceMatrix(std::move(rows));
}

void save_instance(const matrix::Instance& inst, std::ostream& os) {
  save_matrix_text(inst.matrix, os);
  os << "communities " << inst.communities.size() << '\n';
  for (const auto& c : inst.communities) {
    os << "community";
    for (auto p : c) os << ' ' << p;
    os << '\n';
  }
  for (const auto& ctr : inst.centers) {
    os << "center " << ctr.to_string() << '\n';
  }
}

matrix::Instance load_instance(std::istream& is) {
  matrix::Instance inst;
  inst.matrix = load_matrix_text(is);

  std::istringstream hdr(read_line(is, "communities header"));
  std::string word;
  std::size_t count = 0;
  if (!(hdr >> word >> count) || word != "communities") {
    throw std::runtime_error("serialize: bad communities header");
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::istringstream line(read_line(is, "community"));
    if (!(line >> word) || word != "community") {
      throw std::runtime_error("serialize: bad community line");
    }
    std::vector<matrix::PlayerId> ids;
    std::string token;
    while (line >> token) ids.push_back(parse_member(token, inst.matrix.players()));
    inst.communities.push_back(std::move(ids));
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::istringstream line(read_line(is, "center"));
    std::string bitstr;
    if (!(line >> word >> bitstr) || word != "center") {
      throw std::runtime_error("serialize: bad center line");
    }
    if (bitstr.size() != inst.matrix.objects()) {
      throw std::runtime_error("serialize: center width mismatch");
    }
    inst.centers.push_back(parse_bits(bitstr, "center " + std::to_string(i)));
  }
  return inst;
}

void save_outputs(const std::vector<bits::BitVector>& outputs, std::ostream& os) {
  os << "outputs " << outputs.size() << '\n';
  for (const auto& v : outputs) os << v.to_string() << '\n';
}

std::vector<bits::BitVector> load_outputs(std::istream& is, std::size_t objects) {
  std::istringstream hdr(read_line(is, "outputs header"));
  std::string word;
  std::size_t count = 0;
  if (!(hdr >> word >> count) || word != "outputs") {
    throw std::runtime_error("serialize: bad outputs header");
  }
  std::vector<bits::BitVector> out;
  for (std::size_t i = 0; i < count; ++i) {
    const auto line = read_line(is, "output row");
    const std::string what = "output row " + std::to_string(i);
    if (line.size() != objects) {
      throw std::runtime_error("serialize: " + what + " has " + std::to_string(line.size()) +
                               " bits, instance has " + std::to_string(objects) + " objects");
    }
    out.push_back(parse_bits(line, what));
  }
  return out;
}

void save_instance_file(const matrix::Instance& inst, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("serialize: cannot open " + path);
  save_instance(inst, os);
}

matrix::Instance load_instance_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("serialize: cannot open " + path);
  return load_instance(is);
}

}  // namespace tmwia::io

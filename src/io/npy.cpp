#include "io/npy.hpp"

#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace arams::io {

namespace {

constexpr char kMagic[] = "\x93NUMPY";

/// Extracts the value of a python-dict literal key like "'shape': (3, 4)",
/// without surrounding spaces.
std::string dict_value(const std::string& header, const std::string& key,
                       const std::string& path) {
  const auto kpos = header.find("'" + key + "'");
  ARAMS_CHECK(kpos != std::string::npos,
              "npy header missing key '" + key + "' in " + path);
  auto vpos = header.find(':', kpos);
  ARAMS_CHECK(vpos != std::string::npos,
              "malformed npy header at '" + key + "' in " + path);
  ++vpos;
  while (vpos < header.size() && header[vpos] == ' ') ++vpos;
  // Value ends at the matching comma outside parentheses.
  int depth = 0;
  std::size_t end = vpos;
  for (; end < header.size(); ++end) {
    const char c = header[end];
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if ((c == ',' || c == '}') && depth == 0) break;
  }
  while (end > vpos && header[end - 1] == ' ') --end;
  return header.substr(vpos, end - vpos);
}

/// Parses a shape tuple "(r, c)" or "(n,)" (a 1-D array of length n loads
/// as 1×n). Every dimension must be an unsigned decimal that fits in
/// size_t; a sign, an empty or overflowing token, or any other rank throws.
std::pair<std::size_t, std::size_t> parse_shape(const std::string& shape,
                                                const std::string& path) {
  const std::string bad =
      "npy 'shape' must be (rows, cols) or (n,) with unsigned decimal "
      "dimensions that fit in size_t, got " + shape + " in " + path;
  ARAMS_CHECK(shape.size() >= 2 && shape.front() == '(' &&
                  shape.back() == ')',
              bad);
  std::vector<std::size_t> dims;
  const char* p = shape.data() + 1;
  const char* const end = shape.data() + shape.size() - 1;
  const auto skip_spaces = [&] {
    while (p < end && *p == ' ') ++p;
  };
  for (skip_spaces(); p < end; skip_spaces()) {
    std::size_t dim = 0;
    const auto [next, ec] = std::from_chars(p, end, dim);
    ARAMS_CHECK(ec == std::errc(), bad);  // a sign, no digits, or overflow
    dims.push_back(dim);
    p = next;
    skip_spaces();
    if (p == end) break;
    ARAMS_CHECK(*p == ',', bad);
    ++p;
  }
  ARAMS_CHECK(dims.size() == 1 || dims.size() == 2, bad);
  if (dims.size() == 1) return {1, dims[0]};
  return {dims[0], dims[1]};
}

/// Writes magic + version + padded dict header for an r×c array of the
/// given dtype descr ('<f8' or '<f4').
void write_header(std::ofstream& f, const char* descr, std::size_t rows,
                  std::size_t cols) {
  std::ostringstream dict;
  dict << "{'descr': '" << descr << "', 'fortran_order': False, 'shape': ("
       << rows << ", " << cols << "), }";
  std::string header = dict.str();
  // Pad with spaces so that magic(6)+version(2)+len(2)+header is a
  // multiple of 64, terminated by '\n'.
  const std::size_t base = 6 + 2 + 2;
  const std::size_t total = ((base + header.size() + 1 + 63) / 64) * 64;
  header.resize(total - base - 1, ' ');
  header += '\n';

  f.write(kMagic, 6);
  f.put('\x01');
  f.put('\x00');
  const auto hlen = static_cast<std::uint16_t>(header.size());
  f.put(static_cast<char>(hlen & 0xff));
  f.put(static_cast<char>(hlen >> 8));
  f.write(header.data(), static_cast<std::streamsize>(header.size()));
}

/// Parsed .npy prolog: shape plus which of the two supported dtypes the
/// payload carries. The stream is left positioned at the payload, which is
/// known to hold exactly rows·cols elements and nothing after them.
struct NpyProlog {
  std::size_t rows = 0;
  std::size_t cols = 0;
  bool is_f32 = false;
};

NpyProlog read_prolog(std::ifstream& f, const std::string& path) {
  char magic[6];
  f.read(magic, 6);
  ARAMS_CHECK(f.good() && std::memcmp(magic, kMagic, 6) == 0,
              "not an npy file: " + path);
  char version[2];
  f.read(version, 2);
  ARAMS_CHECK(f.good() && version[0] == 1,
              "unsupported npy version in " + path);
  unsigned char len_bytes[2];
  f.read(reinterpret_cast<char*>(len_bytes), 2);
  const std::size_t hlen =
      static_cast<std::size_t>(len_bytes[0]) |
      (static_cast<std::size_t>(len_bytes[1]) << 8);
  std::string header(hlen, '\0');
  f.read(header.data(), static_cast<std::streamsize>(hlen));
  ARAMS_CHECK(f.good(), "truncated npy header in " + path);

  NpyProlog out;
  const std::string descr = dict_value(header, "descr", path);
  ARAMS_CHECK(descr == "'<f8'" || descr == "'<f4'",
              "npy 'descr' must be little-endian float64 or float32, got " +
                  descr + " in " + path);
  out.is_f32 = descr == "'<f4'";
  const std::string order = dict_value(header, "fortran_order", path);
  ARAMS_CHECK(order == "False",
              "npy 'fortran_order' must be False, got " + order + " in " +
                  path);

  const std::string shape = dict_value(header, "shape", path);
  std::tie(out.rows, out.cols) = parse_shape(shape, path);
  ARAMS_CHECK(out.rows > 0 && out.cols > 0,
              "npy 'shape' " + shape + " is empty in " + path);

  // The payload must be exactly what the shape promises: checked before
  // anything is allocated, so a lying header cannot ask for more memory
  // than the file holds.
  const std::size_t elem = out.is_f32 ? sizeof(float) : sizeof(double);
  std::size_t payload = 0;
  const bool fits = !__builtin_mul_overflow(out.rows, out.cols, &payload) &&
                    !__builtin_mul_overflow(payload, elem, &payload);
  ARAMS_CHECK(fits, "npy 'shape' " + shape +
                        " overflows the addressable size in " + path);
  const std::streampos start = f.tellg();
  f.seekg(0, std::ios::end);
  const auto available = static_cast<std::size_t>(f.tellg() - start);
  f.seekg(start);
  ARAMS_CHECK(payload == available,
              "npy 'shape' " + shape + " needs " + std::to_string(payload) +
                  " payload bytes but " + path + " holds " +
                  std::to_string(available));
  return out;
}

}  // namespace

void save_npy(const std::string& path, const linalg::Matrix& m) {
  ARAMS_CHECK(!m.empty(), "refusing to write an empty matrix");
  std::ofstream f(path, std::ios::binary);
  ARAMS_CHECK(f.good(), "cannot open for writing: " + path);
  write_header(f, "<f8", m.rows(), m.cols());
  f.write(reinterpret_cast<const char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(double)));
  ARAMS_CHECK(f.good(), "write failed: " + path);
}

void save_npy_f32(const std::string& path, const linalg::MatrixF& m) {
  ARAMS_CHECK(!m.empty(), "refusing to write an empty matrix");
  std::ofstream f(path, std::ios::binary);
  ARAMS_CHECK(f.good(), "cannot open for writing: " + path);
  write_header(f, "<f4", m.rows(), m.cols());
  f.write(reinterpret_cast<const char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  ARAMS_CHECK(f.good(), "write failed: " + path);
}

linalg::Matrix load_npy(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  ARAMS_CHECK(f.good(), "cannot open: " + path);
  const NpyProlog p = read_prolog(f, path);

  linalg::Matrix m(p.rows, p.cols);
  if (p.is_f32) {
    std::vector<float> buf(p.rows * p.cols);
    f.read(reinterpret_cast<char*>(buf.data()),
           static_cast<std::streamsize>(buf.size() * sizeof(float)));
    ARAMS_CHECK(f.good(), "truncated npy payload in " + path);
    double* dst = m.data();
    for (std::size_t i = 0; i < buf.size(); ++i) {
      dst[i] = static_cast<double>(buf[i]);
    }
  } else {
    f.read(reinterpret_cast<char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(double)));
    ARAMS_CHECK(f.good(), "truncated npy payload in " + path);
  }
  return m;
}

linalg::MatrixF load_npy_f32(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  ARAMS_CHECK(f.good(), "cannot open: " + path);
  const NpyProlog p = read_prolog(f, path);

  linalg::MatrixF m(p.rows, p.cols);
  if (p.is_f32) {
    f.read(reinterpret_cast<char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(float)));
    ARAMS_CHECK(f.good(), "truncated npy payload in " + path);
  } else {
    std::vector<double> buf(p.rows * p.cols);
    f.read(reinterpret_cast<char*>(buf.data()),
           static_cast<std::streamsize>(buf.size() * sizeof(double)));
    ARAMS_CHECK(f.good(), "truncated npy payload in " + path);
    float* dst = m.data();
    for (std::size_t i = 0; i < buf.size(); ++i) {
      dst[i] = static_cast<float>(buf[i]);
    }
  }
  return m;
}

}  // namespace arams::io

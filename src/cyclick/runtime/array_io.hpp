// Stream I/O for distributed arrays: portable text images (for tooling and
// golden files) and raw binary images (for checkpoints). Both formats
// carry the global image plus shape metadata; loading redistributes onto
// whatever mapping the target array has, so checkpoints survive
// redistribution decisions.
//
// Text format:
//   cyclick-array v1
//   dims <d> <extent...>
//   <values, whitespace-separated, row-major>
//
// Binary format: the magic "CYA1", a u64 dim count, u64 extents, then the
// row-major payload of raw T values (native endianness — checkpoints, not
// interchange).
#pragma once

#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "cyclick/runtime/distributed_array.hpp"

namespace cyclick {

/// Error for malformed array streams.
class io_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

inline void write_text_header(std::ostream& os, std::span<const i64> extents) {
  os << "cyclick-array v1\n";
  os << "dims " << extents.size();
  for (const i64 e : extents) os << ' ' << e;
  os << '\n';
}

inline std::vector<i64> read_text_header(std::istream& is) {
  std::string magic, version;
  is >> magic >> version;
  if (magic != "cyclick-array" || version != "v1")
    throw io_error("not a cyclick-array v1 text stream");
  std::string word;
  is >> word;
  if (word != "dims") throw io_error("missing dims line");
  std::size_t nd = 0;
  is >> nd;
  if (!is || nd == 0 || nd > 16) throw io_error("bad dimension count");
  std::vector<i64> extents(nd);
  for (auto& e : extents) {
    is >> e;
    if (!is || e < 1) throw io_error("bad extent");
  }
  return extents;
}

template <typename T>
void write_text_values(std::ostream& os, const std::vector<T>& image, i64 per_line) {
  for (std::size_t i = 0; i < image.size(); ++i) {
    os << image[i];
    os << (((static_cast<i64>(i) + 1) % per_line == 0) ? '\n' : ' ');
  }
  if (static_cast<i64>(image.size()) % per_line != 0) os << '\n';
}

template <typename T>
std::vector<T> read_text_values(std::istream& is, i64 count) {
  std::vector<T> image(static_cast<std::size_t>(count));
  for (auto& v : image) {
    is >> v;
    if (!is) throw io_error("truncated value payload");
  }
  return image;
}

constexpr char kBinaryMagic[4] = {'C', 'Y', 'A', '1'};

inline void write_binary_header(std::ostream& os, std::span<const i64> extents) {
  os.write(kBinaryMagic, 4);
  const u64 nd = extents.size();
  os.write(reinterpret_cast<const char*>(&nd), sizeof nd);
  for (const i64 e : extents) {
    const u64 ue = static_cast<u64>(e);
    os.write(reinterpret_cast<const char*>(&ue), sizeof ue);
  }
}

inline std::vector<i64> read_binary_header(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  if (!is || std::string_view(magic, 4) != std::string_view(kBinaryMagic, 4))
    throw io_error("not a cyclick-array binary stream");
  u64 nd = 0;
  is.read(reinterpret_cast<char*>(&nd), sizeof nd);
  if (!is || nd == 0 || nd > 16) throw io_error("bad dimension count");
  std::vector<i64> extents(nd);
  for (auto& e : extents) {
    u64 ue = 0;
    is.read(reinterpret_cast<char*>(&ue), sizeof ue);
    if (!is) throw io_error("truncated header");
    e = static_cast<i64>(ue);
    if (e < 1) throw io_error("bad extent");
  }
  return extents;
}

/// The array's shape, one extent per dimension.
template <typename T>
std::vector<i64> extents_of(const DistributedArray<T>& arr) {
  std::vector<i64> extents;
  for (std::size_t d = 0; d < arr.dims(); ++d) extents.push_back(arr.mapping().dim(d).extent);
  return extents;
}

/// Reject an image whose header shape differs from the array's.
template <typename T>
void require_shape(const std::vector<i64>& extents, const DistributedArray<T>& arr,
                   const char* what) {
  if (extents != extents_of(arr))
    throw io_error(std::string(what) + " image shape does not match the array");
}

}  // namespace detail

/// Write an array as a text image: a row-major payload, one line per
/// innermost row (a 1-D image wraps every 16 values).
template <typename T>
void save_text(std::ostream& os, const DistributedArray<T>& arr) {
  const std::vector<i64> extents = detail::extents_of(arr);
  detail::write_text_header(os, extents);
  detail::write_text_values(os, arr.gather(), arr.dims() == 1 ? 16 : extents.back());
}

/// Load a text image (shapes must match; the data lands in whatever
/// mapping the array already has).
template <typename T>
void load_text(std::istream& is, DistributedArray<T>& arr) {
  detail::require_shape(detail::read_text_header(is), arr, "text");
  arr.scatter(detail::read_text_values<T>(is, arr.size()));
}

/// Binary checkpoint of an array.
template <typename T>
void save_binary(std::ostream& os, const DistributedArray<T>& arr) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::write_binary_header(os, detail::extents_of(arr));
  const auto image = arr.gather();
  os.write(reinterpret_cast<const char*>(image.data()),
           static_cast<std::streamsize>(image.size() * sizeof(T)));
}

template <typename T>
void load_binary(std::istream& is, DistributedArray<T>& arr) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::require_shape(detail::read_binary_header(is), arr, "binary");
  std::vector<T> image(static_cast<std::size_t>(arr.size()));
  is.read(reinterpret_cast<char*>(image.data()),
          static_cast<std::streamsize>(image.size() * sizeof(T)));
  if (!is) throw io_error("truncated binary payload");
  arr.scatter(image);
}

}  // namespace cyclick
